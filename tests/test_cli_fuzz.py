"""Fuzz of the command line: no input ends in a traceback.

Every run either exits 0 or exits 1 with exactly one stderr line (ended by
a newline) that names quivalg; argparse may print its usage lines before
that line.  ``verify``
is left out because it runs whole suites.  Numbers are drawn small, since
``--terms`` and ``--cutoff`` bound the work done, and the junk tokens carry
no digits for the same reason.
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from quivalg.cli import main

FILE_COMMANDS = ["check", "domdim", "coresolve", "nakayama", "qf2", "base", "dc"]
FLAGS = ["--cutoff", "--terms", "--side", "--kupisch", "--summands", "--json",
         "--version", "-h", "--max-n", "-"]
SIDES = ["right", "left", "both", "up"]
KUPISCH = ["cyclic:2", "cyclic:3,2", "cyclic:2,2", "linear:2,1", "linear:3,2,1",
           "linear:1,2", "linear:0", "cyclic:0", "cyclic:", "cyclic:2,x", "loop:2", "2,1"]
SUMMANDS = ["P1", "P2", "P0", "P9", "I1", "I2/s", "I0", "I1/s P2", "top=1,len=1",
            "top=2,len=9", "top=0,len=1", "top=1", "top=x,len=1", "Q", "", " "]
LINES = ["vertices: 1", "vertices: 2", "vertices: 3", "vertices: 0", "vertices: x",
         "arrows: a 1 2", "arrows: b 2 1", "arrows: a 1 1", "arrows: a 1 3; b 3 2",
         "arrows: a 1", "arrows: a 1 9", "relations: a b", "relations: a a",
         "relations: b a b", "relations: q", "relations: b b", "# note", "", "key: 1",
         "vertices 2"]

junk = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
algebra_text = st.one_of(
    st.text(max_size=80),
    st.lists(st.one_of(st.sampled_from(LINES), junk), max_size=6)
    .map(lambda lines: "\n".join(lines)[:80]))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {
        "branching.alg": "vertices: 5\narrows: a1 1 2; a2 3 2; a3 2 4; a4 2 5\n"
                         "relations: a1 a3; a2 a4\n",
        "cycle.alg": "vertices: 2\narrows: a 1 2; b 2 1\nrelations: a b a; b a b\n",
        "chain.alg": "vertices: 3\narrows: a 1 2; b 2 3\n",
        "bad.alg": "vertices: x\n",
    }
    for name, text in paths.items():
        (root / name).write_text(text)
    (root / "binary.alg").write_bytes(b"vertices: 1\n\xff\xfe\n")
    (root / "dir.alg").mkdir()
    return [str(root / name) for name in [*paths, "binary.alg", "dir.alg", "missing.alg"]]


def run(argv, stdin=""):
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code or 0
    return code, err.getvalue()


def assert_handled(code, err):
    assert code in (0, 1), code
    if code == 1:
        lines = err.rstrip("\n").split("\n")
        named = [line for line in lines if line.startswith("quivalg")]
        assert len(named) == 1, err
        assert all(line in named or line.startswith(("usage:", " ")) for line in lines), err


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(FILE_COMMANDS), text=algebra_text)
def test_any_algebra_text_is_handled(command, text):
    assert_handled(*run([command, "-"], stdin=text))


def argv_strategy(files):
    # Hypothesis also draws text from string literals of the code under test,
    # so junk can come out as the word "verify" itself
    values = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(SIDES),
                       st.sampled_from(KUPISCH), st.sampled_from(SUMMANDS),
                       junk.filter(lambda token: token != "verify"))
    single = st.one_of(st.sampled_from(FILE_COMMANDS + ["endo", "paper-example"]),
                       st.sampled_from(FLAGS), st.sampled_from(files), values)
    # --workers starts processes in verify, which is never drawn; its value
    # is still only ever 1 or 2
    chunk = st.one_of(single.map(lambda t: [t]),
                      st.sampled_from([["--workers", "1"], ["--workers", "2"]]))
    # mostly a real subcommand first, so that the work behind it runs
    head = st.one_of(st.sampled_from(FILE_COMMANDS).flatmap(
        lambda c: st.sampled_from(files).map(lambda f: [c, f])),
        st.just(["endo", "--kupisch"]), st.just(["paper-example"]), st.just([]))
    return st.tuples(head, st.lists(chunk, max_size=5)).map(
        lambda t: t[0] + [token for c in t[1] for token in c])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_argument_list_is_handled(files, data):
    argv = data.draw(argv_strategy(files))
    assert "verify" not in argv
    assert_handled(*run(argv, stdin="vertices: 1\n"))


def test_found_faults_stay_mended(files):
    binary = next(f for f in files if f.endswith("binary.alg"))
    code, err = run(["check", binary])
    assert_handled(code, err)
    assert err.endswith("is not UTF-8 text: invalid start byte\n")
    code, err = run(["paper-example", "a\nb"])
    assert_handled(code, err)
    assert err.endswith("unrecognized arguments: a\\nb\n")


def test_huge_vertex_count_is_rejected_at_once():
    """Far more vertices than arrows can connect is rejected before any
    per-vertex table is built; the child runs under a 1 GB address-space
    limit, so a regression fails instead of exhausting memory."""
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from quivalg.cli import main\n"
              "sys.exit(main(['check', '-']))\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], input="vertices: 1000000000000\n",
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "quivalg: monomial algebras are built over connected quivers\n"
