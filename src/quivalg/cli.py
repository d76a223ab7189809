"""Command-line front end.

Algebras are described in a line-oriented text format with 1-based vertex
indices (0-based internally):

    # comments start with '#'
    vertices: 5
    arrows: a1 1 2; a2 3 2; a3 2 4; a4 2 5
    relations: a1 a3; a2 a4

Exit codes: 0 success / suite passed, 2 a verification suite found a
counterexample, 1 usage or input errors.  All commands are deterministic;
no randomness is used anywhere.
"""

import argparse
import json
import re
import sys
from contextlib import nullcontext
from functools import cache
from importlib import resources
from itertools import islice

from . import __version__
from .endo import (
    endomorphism_algebra,
    gabriel_quiver,
    is_nakayama_algebra,
    is_qf2_algebra,
    kupisch_of_endo,
)
from .enumeration import CorpusBounds
from .errors import AlgebraParseError, QuivalgError
from .homological import (
    DOMDIM_CUTOFF,
    base_algebra,
    dominant_dimension,
    double_centralizer_check,
    injective_coresolution,
    minimal_faithful_proj_inj,
)
from .monomial import build
from .nakayama import (
    algebra_to_kupisch,
    injective_uniserial_id,
    parse_kupisch,
    kupisch_to_algebra,
    uniserial_module,
)
from .quiver import Quiver, kupisch_walk, shape_classify
from .verify import (
    DEFAULT_CORPORA, DEFAULT_MAX_C, DEFAULT_MAX_N, SUITES, first_family, run_suites)


def parse_algebra(text):
    """Parse the algebra file format; raises AlgebraParseError with a line
    number on malformed input, and the usual construction errors after."""
    vertex_count = None
    arrow_specs = []
    relation_specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise AlgebraParseError("expected 'vertices:', 'arrows:' or 'relations:'", lineno)
        key = key.strip().lower()
        if key == "vertices":
            if vertex_count is not None:
                raise AlgebraParseError("duplicate 'vertices:' line", lineno)
            try:
                vertex_count = int(rest.strip())
            except ValueError:
                raise AlgebraParseError(f"bad vertex count {rest.strip()!r}", lineno) from None
            if vertex_count < 1:
                raise AlgebraParseError("vertex count must be positive", lineno)
        elif key == "arrows":
            for chunk in rest.split(";"):
                if not chunk.strip():
                    continue
                parts = chunk.split()
                if len(parts) != 3:
                    raise AlgebraParseError(
                        f"arrow needs 'name source target', got {chunk.strip()!r}", lineno)
                name, s, t = parts
                try:
                    src, tgt = int(s), int(t)
                except ValueError:
                    raise AlgebraParseError(f"bad arrow endpoints in {chunk.strip()!r}",
                                            lineno) from None
                arrow_specs.append((name, src, tgt, lineno))
        elif key == "relations":
            for chunk in rest.split(";"):
                if chunk.strip():
                    relation_specs.append((chunk.split(), lineno))
        else:
            raise AlgebraParseError(f"unknown key {key!r}", lineno)
    if vertex_count is None:
        raise AlgebraParseError("missing 'vertices:' line")
    names = set()
    arrows = []
    for name, src, tgt, lineno in arrow_specs:
        if name in names:
            raise AlgebraParseError(f"duplicate arrow name {name!r}", lineno)
        names.add(name)
        if not (1 <= src <= vertex_count and 1 <= tgt <= vertex_count):
            raise AlgebraParseError(
                f"arrow {name!r} endpoints outside 1..{vertex_count}", lineno)
        arrows.append((name, src - 1, tgt - 1))
    quiver = Quiver.from_arrows(vertex_count, arrows)
    relations = []
    for tokens, lineno in relation_specs:
        for tok in tokens:
            if tok not in names:
                raise AlgebraParseError(f"relation names unknown arrow {tok!r}", lineno)
        if len(tokens) < 2:
            raise AlgebraParseError(
                f"relation {tokens[0]!r} has length 1; relations need at least two arrows", lineno)
        try:
            relations.append(quiver.path(tokens))
        except ValueError:
            raise AlgebraParseError(
                f"arrows {' '.join(tokens)} do not form a path", lineno) from None
    return build(quiver, relations)


def load_algebra(path):
    try:
        if path == "-":
            return parse_algebra(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return parse_algebra(fh.read())
    except UnicodeDecodeError as exc:
        raise AlgebraParseError(f"{path!r} is not UTF-8 text: {exc.reason}") from None


def paper_example_text():
    return resources.files("quivalg.fixtures").joinpath("paper_example.alg").read_text()


def describe_basic(c):
    if c.dimension == c.num_summands:
        return " x ".join(["K"] * c.num_summands)
    return f"dim {c.dimension} basic algebra with {c.num_summands} summands"


def paper_example():
    """Summary record of the five-vertex two-relation example algebra."""
    algebra = parse_algebra(paper_example_text())
    dd = dominant_dimension(algebra)
    pi_right = minimal_faithful_proj_inj(algebra)
    base = base_algebra(algebra)
    dc = double_centralizer_check(algebra)
    return {
        "dominant_dimension": dd.value if dd.kind == "finite" else str(dd),
        "nakayama": kupisch_walk(algebra.quiver) is not None,
        "qf2_right": all(algebra.socle_criterion(v) for v in range(algebra.quiver.vertex_count)),
        "min_faithful_proj_inj_right": [v + 1 for v in pi_right],
        "base_algebra": describe_basic(base),
        "base_algebra_dimension": base.dimension,
        "double_centralizer": dc.holds,
    }


def _parse_summand_tokens(spec, algebra):
    tokens = spec.split()
    if not tokens:
        raise QuivalgError("no summands given")
    n = algebra.quiver.vertex_count
    ids = []
    for tok in tokens:
        match = re.fullmatch(r"P(-?\d+)|I(-?\d+)(/s)?|top=(-?\d+)(?:,len=(-?\d+))?", tok)
        try:
            if match is None:
                raise ValueError("expected P<i>, I<i>, I<i>/s or top=<v>,len=<l>")
            proj, inj, mod_soc, top, length = match.groups()
            if top is not None and length is None:
                raise ValueError("missing len=<l>")
            v = int(proj or inj or top) - 1  # vertices are 1-based outside
            if not 0 <= v < n:
                raise ValueError(f"vertex {v + 1} outside 1..{n}")
            if proj is not None:
                ids.append((v, len(algebra.paths_from(v))))
            elif inj is not None:
                t, l = injective_uniserial_id(algebra, v)
                if mod_soc:
                    l -= 1
                    if l == 0:
                        raise ValueError(f"{tok}: quotient by the socle is zero")
                ids.append((t, l))
            elif not 1 <= int(length) <= len(algebra.paths_from(v)):
                raise QuivalgError(
                    f"no uniserial of length {int(length)} with top at vertex {v + 1}")
            else:
                ids.append((v, int(length)))
        except ValueError as exc:
            raise QuivalgError(f"bad summand token {tok!r}: {exc}") from None
    return ids


def _at_least(low):
    """An argparse type for integers no smaller than ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        message = message.replace("\n", "\\n")  # arguments quoted here stay on one line
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@cache
def build_parser():
    """Built on the first ``main`` call and shared by later ones (stateless)."""
    parser = _Parser(
        prog="quivalg",
        description="Exact workbench for monomial bound quiver algebras.")
    parser.add_argument("--version", action="version", version=f"quivalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def algebra_cmd(name, help_text, run):
        """A command on an algebra file: ``run(algebra, args)`` gets the
        algebra read from it, and looks its command up only then, so a
        command replaced after the shared parser is built still runs."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="algebra description file, or - for stdin")
        p.set_defaults(run=lambda args: run(load_algebra(args.file), args))
        return p

    algebra_cmd("check", "parse an algebra file and print a summary",
                lambda algebra, args: _cmd_check(algebra))
    p = algebra_cmd("domdim", "dominant dimension",
                    lambda algebra, args: _cmd_domdim(algebra, args.cutoff))
    p.add_argument("--cutoff", type=_at_least(1), default=DOMDIM_CUTOFF)
    p = algebra_cmd("coresolve", "terms of the minimal injective coresolution",
                    lambda algebra, args: _cmd_coresolve(algebra, args.terms))
    p.add_argument("--terms", type=_at_least(1), required=True)
    algebra_cmd("nakayama", "Nakayama shape test and Kupisch series",
                lambda algebra, args: _cmd_nakayama(algebra))
    p = algebra_cmd("qf2", "simple-socle test for the indecomposable projectives",
                    lambda algebra, args: _cmd_qf2(algebra, args.side))
    p.add_argument("--side", choices=["right", "left", "both"], default="both")
    algebra_cmd("base", "base algebra fAf of the minimal faithful projective-injective",
                lambda algebra, args: _cmd_base(algebra))
    algebra_cmd("dc", "double centraliser check", lambda algebra, args: _cmd_dc(algebra))

    p = sub.add_parser("endo", help="endomorphism algebra of uniserial modules "
                                    "over a Nakayama algebra")
    p.add_argument("--kupisch", required=True,
                   help="series, e.g. 'cyclic:3,2' or 'linear:2,1'")
    p.add_argument("--summands", required=True,
                   help="space-separated tokens: P<i>, I<i>, I<i>/s, top=<v>,len=<l>")
    p.set_defaults(run=_cmd_endo)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--max-vertices", type=_at_least(1))
    p.add_argument("--max-arrows", type=_at_least(0))
    p.add_argument("--max-rel-len", type=_at_least(2))
    p.add_argument("--max-n", type=_at_least(1), default=DEFAULT_MAX_N)
    p.add_argument("--max-c", type=_at_least(1), default=DEFAULT_MAX_C)
    p.add_argument("--workers", type=_at_least(1), default=1,
                   help="worker processes for corpus sweeps, capped at the CPU count")
    p.add_argument("--report", help="write the JSON report to this file (atomically)")
    p.add_argument("--csv", help="write a CSV summary to this file")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("paper-example", help="summary of the built-in example algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_paper_example)
    return parser


def _cmd_check(algebra):
    quiver = algebra.quiver
    print(f"vertices: {quiver.vertex_count}")
    print(f"arrows: {len(quiver.arrows)}")
    print(f"relations: {len(algebra.relations)}")
    print(f"dimension: {algebra.dimension}")
    print(f"shape: {shape_classify(quiver).value}")


def _cmd_domdim(algebra, cutoff):
    print(f"dominant dimension: {dominant_dimension(algebra, cutoff)}")


def _cmd_coresolve(algebra, terms):
    # asking for one term past the limit tells termination from truncation
    produced = list(islice(injective_coresolution(algebra), terms + 1))
    blocks = algebra._path_index.blocks  # dim I_s at w: the paths w -> s
    for k, term in enumerate(produced[:terms]):
        dims = tuple(sum(len(blocks[w][s]) for s in term.vertices) for w in range(len(blocks)))
        print(f"I_{k}: dims {dims} total {sum(dims)} "
              f"projective={'yes' if term.projective else 'no'}")
    if len(produced) > terms:
        print(f"truncated at {terms} terms")
    else:
        print(f"coresolution terminates after {len(produced)} terms")


def _cmd_nakayama(algebra):
    ks = algebra_to_kupisch(algebra)
    if ks is None:
        print("not a Nakayama algebra")
    else:
        print(f"Nakayama algebra with Kupisch series {ks}")


def _cmd_qf2(algebra, side):
    sides = ("right", "left") if side == "both" else (side,)
    # the left projectives of A are the right projectives of its opposite
    verdicts = [(s, v, (algebra.opposite() if s == "left" else algebra).socle_criterion(v))
                for s in sides for v in range(algebra.quiver.vertex_count)]
    for s, v, ok in verdicts:
        print(f"{s} socle at vertex {v + 1}: {'simple' if ok else 'not simple'}")
    print(f"QF-2 ({side}): {all(ok for _, _, ok in verdicts)}")  # is_qf2 on these sides


def _cmd_base(algebra):
    base = base_algebra(algebra)
    verts = sorted(base.payloads[(i, i)][0].source for i in range(base.num_summands))
    print(f"idempotent vertices: {[v + 1 for v in verts]}")
    print(f"dimension: {base.dimension}")
    print(f"radical dimension: {base.dimension - base.num_summands}")
    print(f"base algebra: {describe_basic(base)}")
    print(f"nakayama (componentwise): {is_nakayama_algebra(base)}")


def _cmd_dc(algebra):
    dc = double_centralizer_check(algebra)
    print(f"dim A: {dc.dim_algebra}")
    print(f"dim End over the base algebra: {dc.dim_commutant}")
    print(f"double centraliser: {dc.holds}")


def _cmd_endo(args):
    algebra = kupisch_to_algebra(parse_kupisch(args.kupisch))
    ids = _parse_summand_tokens(args.summands, algebra)
    reps = [uniserial_module(algebra, t, l) for t, l in sorted(set(ids))]
    endo = endomorphism_algebra(reps)
    print(f"summands: {len(reps)}")
    print(f"dimension: {endo.dimension}")
    quiver = gabriel_quiver(endo)
    print(f"gabriel quiver: {quiver.vertex_count} vertices, {len(quiver.arrows)} arrows")
    print(f"nakayama: {is_nakayama_algebra(endo)}")
    kc = kupisch_of_endo(endo)
    print(f"kupisch: {kc if kc is not None else 'none'}")
    print(f"qf2: {is_qf2_algebra(endo)}")


def _cmd_verify(args):
    triple = (args.max_vertices, args.max_arrows, args.max_rel_len)
    if None in triple and triple != (None, None, None):
        build_parser().error("give all of --max-vertices/--max-arrows/--max-rel-len or none")
    bounds = DEFAULT_CORPORA if None in triple else (CorpusBounds(*triple),)
    # an unusable --csv path fails here, before the suite runs or a report is written
    with open(args.csv, "w", encoding="utf-8") if args.csv else nullcontext() as csv:
        [report] = run_suites([args.suite], bounds=bounds, max_n=args.max_n,
                              max_c=args.max_c, workers=args.workers)
        if args.report:
            report.write(args.report)
            print(f"report written to {args.report}", file=sys.stderr)
        else:
            sys.stdout.write(report.to_json())
        if csv is not None:
            csv.write(report.csv_summary())
    family = first_family(report.suite)
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
          f"({report.counts.get(family, '-')} {family}, "
          f"{len(report.counterexamples)} counterexamples, "
          f"{report.wall_time_seconds:.1f}s)", file=sys.stderr)
    return 0 if report.passed else 2


def _cmd_paper_example(args):
    record = paper_example()
    if args.json:
        print(json.dumps(record, sort_keys=True, indent=2))
    else:
        print(f"dominant dimension: {record['dominant_dimension']}")
        print(f"nakayama: {record['nakayama']}")
        print(f"QF-2 (right): {record['qf2_right']}")
        print("minimal faithful projective-injective vertices (right): "
              f"{record['min_faithful_proj_inj_right']}")
        print(f"base algebra: {record['base_algebra']}")
        print(f"double centraliser: {record['double_centralizer']}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args) or 0  # a command that returns no status succeeded
    except (OSError, QuivalgError) as exc:
        print(f"quivalg: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
