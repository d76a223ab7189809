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
