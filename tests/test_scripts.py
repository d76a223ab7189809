import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("script", ["corpus_stats.py", "profile_sweep.py"])
@pytest.mark.parametrize("bounds,message", [
    ("1,1", "expected V,E,L, got '1,1'"),
    ("1,1,1", "relations have length at least two"),
    ("x,1,2", "invalid literal for int()"),
])
def test_bad_bounds_end_in_a_usage_error(script, bounds, message):
    proc = run_script(script, bounds)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:") and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_corpus_stats_counts():
    proc = run_script("corpus_stats.py", "1,1,3", "2,1,2")
    assert proc.returncode == 0
    assert [line.split(" algebras")[0] for line in proc.stdout.splitlines()] == [
        "(1,1,3): 3", "(2,1,2): 3"]


@pytest.mark.parametrize("script,args,first_line", [
    ("profile_sweep.py", ["2,2,2"], b"12 algebras in "),
    ("corpus_stats.py", ["1,1,3", "2,1,2"], b"(1,1,3): 3 algebras"),
], ids=["profile_sweep.py", "corpus_stats.py"])
@pytest.mark.parametrize("lines_read", [0, 1])
def test_scripts_exit_quietly_when_the_reader_closes(lines_read, script, args, first_line):
    # as in `profile_sweep.py 2,2,2 | head -1`; with no line read the pipe is
    # closed before the script writes, so its first write fails for certain
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": "1"}
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader:
        if not lines_read:
            reader.close()
        proc = subprocess.Popen([sys.executable, str(ROOT / "scripts" / script), *args],
                                stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
        if lines_read:
            assert reader.readline().startswith(first_line)
    _, err = proc.communicate(timeout=60)
    # after one line the script may have written every line before the close
    assert proc.returncode == 1 or (lines_read and proc.returncode == 0)
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_profile_sweep_counts_a_truncated_domdim_apart(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location(
        "profile_sweep", ROOT / "scripts" / "profile_sweep.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    facts = [{"domdim": {"kind": kind, "value": value}, "shape": "linear", "dc_holds": True}
             for kind, value in [("finite", 2), ("at_least", 12), ("infinite", 0)]]
    monkeypatch.setattr(script, "sweep_corpus", lambda corpora, workers: facts)
    assert script.main([]) == 0
    [line] = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("dominant dimension:")]
    assert ast.literal_eval(line.split(":", 1)[1].strip()) == {
        "2": 1, ">=12": 1, "infinity": 1}
