"""The CLI half of the behaviour contract: a committed transcript of
``cli.main`` run in process on every algebra of the (2,2,2) and (1,2,3)
corpora and every Kupisch series with n <= 3, c <= 4.

Each algebra is written to an algebra file and queried with ``check``,
``domdim``, ``nakayama``, ``qf2``, ``base``, ``dc`` and
``coresolve --terms 3``; each Kupisch series is also queried with
``endo --summands "P1 ... Pn I1 ... In"``.  Stdout, stderr and the exit
code of every call are compared with ``cli_transcript.txt``.  When a change
of output is intended, regenerate the transcript with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from quivalg import cli
from quivalg.enumeration import CorpusBounds, enumerate_monomial_algebras
from quivalg.nakayama import enumerate_kupisch, kupisch_to_algebra

TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")
CORPORA = (CorpusBounds(2, 2, 2), CorpusBounds(1, 2, 3))
KUPISCH_BOUNDS = (3, 4)
QUERIES = (["check"], ["domdim"], ["nakayama"], ["qf2"], ["base"], ["dc"],
           ["coresolve", "--terms", "3"])


def algebra_text(algebra):
    """The algebra file of a monomial algebra, 1-based as the CLI reads it."""
    quiver = algebra.quiver
    names = [a.name for a in quiver.arrows]
    arrows = "; ".join(f"{a.name} {a.source + 1} {a.target + 1}" for a in quiver.arrows)
    relations = "; ".join(" ".join(names[i] for i in r.arrows) for r in algebra.relations)
    return f"vertices: {quiver.vertex_count}\narrows: {arrows}\nrelations: {relations}\n"


def run(argv):
    """cli.main in process; returns (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(lines, argv, shown):
    code, out, err = run(argv)
    lines.append(f"$ quivalg {shown}")
    lines += out.splitlines()
    lines += [f"stderr: {line}" for line in err.splitlines()]
    lines.append(f"exit: {code}")


def transcript():
    lines = []
    series = enumerate_kupisch(*KUPISCH_BOUNDS)
    algebras = [(f"({b.max_vertices},{b.max_arrows},{b.max_relation_length})", a)
                for b in CORPORA for a in enumerate_monomial_algebras(b)]
    algebras += [(str(ks), kupisch_to_algebra(ks)) for ks in series]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.alg")
        for label, algebra in algebras:
            text = algebra_text(algebra)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            lines.append(f"# {label}: " + " | ".join(line.rstrip() for line in text.splitlines()))
            for query in QUERIES:
                record(lines, query + [path], " ".join(query + ["ALG"]))
    for ks in series:
        n = ks.vertex_count
        summands = " ".join([f"P{v}" for v in range(1, n + 1)] + [f"I{v}" for v in range(1, n + 1)])
        argv = ["endo", "--kupisch", str(ks), "--summands", summands]
        record(lines, argv, " ".join(argv[:4] + [f'"{summands}"']))
    return "\n".join(lines) + "\n"


def test_cli_output_matches_the_transcript():
    got = transcript().splitlines()
    want = TRANSCRIPT.read_text(encoding="utf-8").splitlines()
    mismatches = [(i + 1, w, g) for i, (w, g) in enumerate(zip(want, got)) if w != g]
    assert not mismatches, f"first differing transcript line: {mismatches[0]}"
    assert len(got) == len(want)


if __name__ == "__main__":
    TRANSCRIPT.write_text(transcript(), encoding="utf-8")
