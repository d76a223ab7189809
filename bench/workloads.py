"""The benchmark's workloads.

A workload builds its inputs from the seed when it is constructed (that is
the set-up) and runs one round per ``run_round`` call.  Every round of a
run performs the same ops, so the share of failed ops is the same in every
run.  The program's outputs are checked against ``reference`` after each
round, outside the timed part.

The seed picks presentations, never costs: vertex numbering, arrow order
and names, and rotations of cyclic series.  The isomorphism
classes that set the cost of a round are fixed, because seeded samples of
the corpus and of the generator-cogenerators moved the per-round cost by
10-20 % from seed to seed.
"""

import contextlib
import io
import os
import random
from itertools import combinations

from quivalg import cli, endo, enumeration, nakayama, verify
from quivalg.quiver import QuiverShape

import reference as ref

CUTOFF = verify.DOMDIM_CUTOFF


def _ge(domdim, k):
    kind, value = domdim
    return kind == "infinite" or value >= k


def _domdim_text(domdim):
    kind, value = domdim
    if kind == "infinite":
        return "infinity"
    return f">={value}" if kind == "at_least" else str(value)


# -- corpus-sweep ----------------------------------------------------------


class CorpusSweep:
    """One op per algebra of the default corpus: the enumeration stream
    yields it and ``verify.algebra_facts`` processes it.  The three corpus
    suites then run over the facts.  The whole corpus is swept every round,
    so the seed does not change the inputs."""

    def __init__(self, seed, workdir):
        self.corpora = verify.DEFAULT_CORPORA

    def run_round(self, log, checks):
        facts = []
        presentations = []
        for bounds in self.corpora:
            stream = enumeration.enumerate_monomial_algebras(bounds)
            start = len(facts)
            for algebra, fact in log.op_stream("algebra", stream, verify.algebra_facts):
                facts.append(fact)
                presentations.append(_presentation(algebra))
            # one representative per isomorphism class within each bound
            # family; the two default families share 16 small algebras
            forms = [f["form"] for f in facts[start:]]
            checks.expect(len(set(forms)) == len(forms), f"canonical forms repeat in {bounds}")
        suites = (verify.main_theorem_corpus_checks, verify.qf2_chain_checks,
                  verify.cross_check_facts)
        reports = [log.timed(suite, facts) for suite in suites]
        for suite, (_, counterexamples) in zip(suites, reports):
            checks.expect(not counterexamples,
                          f"{suite.__name__}: {len(counterexamples)} counterexamples")
        for fact, presentation in zip(facts, presentations):
            check_facts(fact, presentation, checks)


def _presentation(algebra):
    quiver = algebra.quiver
    return (quiver.vertex_count,
            [(a.source, a.target) for a in quiver.arrows],
            [r.arrows for r in algebra.relations])


def check_facts(fact, presentation, checks):
    """The corpus properties of one algebra, against its presentation."""
    n, arrows, relations = presentation
    form = fact["form"]
    counts = ref.path_counts(n, arrows, relations)
    checks.expect(fact["dim"] == sum(counts), f"{form}: dim A != path count")
    walk = ref.nakayama_walk(n, arrows)
    shape = "not_nakayama" if walk is None else "cyclic" if walk[0] else "linear"
    checks.expect(fact["shape"] == shape, f"{form}: shape {fact['shape']} != {shape}")
    domdim = (fact["domdim"]["kind"], fact["domdim"]["value"])
    ge1, ge2 = _ge(domdim, 1), _ge(domdim, 2)
    checks.expect(walk is not None or not ge2, f"{form}: domdim >= 2 off Nakayama shape")
    checks.expect(fact["domdim"] == fact["domdim_op"], f"{form}: domdim A != domdim A^op")
    checks.expect(ge1 == (fact["pi_right"] is not None) == (fact["pi_left"] is not None),
                  f"{form}: domdim >= 1 <=> faithful projective-injective")
    checks.expect(ge2 == fact["dc_holds"], f"{form}: domdim >= 2 <=> double centraliser")
    checks.expect(fact["socle_agree"], f"{form}: socle criterion != socle oracle")
    if walk is not None:
        cyclic, order = walk
        expected = ref.nakayama_domdim([counts[v] for v in order], cyclic, CUTOFF)
        checks.expect(domdim == expected, f"{form}: domdim {domdim} != reference {expected}")


# -- endo-qf2 --------------------------------------------------------------


def series_rotations(lengths, cyclic):
    """The shifts that map the series to itself, 0 included; only a cyclic
    series has others."""
    n = len(lengths)
    if not cyclic:
        return [0]
    return [r for r in range(n) if all(lengths[(i + r) % n] == lengths[i] for i in range(n))]


def rotate(cand, shift, n):
    return tuple(sorted(((t + shift) % n, l) for t, l in cand))


def candidate_orbits(lengths, cyclic):
    """The basic generator-cogenerators over the series, from the full
    uniserial universe, one per orbit under ``series_rotations``: the least
    member, as a sorted tuple of (top, length).  Sorted by (summand count,
    member)."""
    n = len(lengths)
    universe = sorted((t, l) for t in range(n) for l in range(1, lengths[t] + 1))
    mandatory = ref.mandatory_summands(lengths, cyclic)
    optional = [u for u in universe if u not in mandatory]
    shifts = series_rotations(lengths, cyclic)
    least = set()
    for k in range(len(optional) + 1):
        for extra in combinations(optional, k):
            cand = mandatory | set(extra)
            least.add(min(rotate(cand, r, n) for r in shifts))
    return sorted(least, key=lambda c: (len(c), c))


class EndoQF2:
    """One op per basic generator-cogenerator M over a Kupisch series of the
    Yamagata family: End_B(M), its Gabriel quiver, the Nakayama and QF-2
    tests and the Kupisch series of End_B(M).  Every ``STRIDE``-th rotation
    orbit of each series is used; the seed picks one rotation per series
    among those that fix it, so every seed costs the same."""

    STRIDE = 5

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.plan = []
        for ks in nakayama.enumerate_kupisch(verify.DEFAULT_MAX_N, verify.DEFAULT_MAX_C):
            lengths = list(ks.lengths)
            cyclic = ks.shape is QuiverShape.CYCLIC
            shift = rng.choice(series_rotations(lengths, cyclic))
            chosen = [rotate(cand, shift, len(lengths))
                      for cand in candidate_orbits(lengths, cyclic)[::self.STRIDE]]
            self.plan.append((ks, lengths, cyclic, chosen))

    @staticmethod
    def _endo_op(ctx, subset):
        algebra = ctx.endo_algebra(subset)
        endo.gabriel_quiver(algebra)
        is_nakayama = endo.is_nakayama_algebra(algebra)
        is_qf2 = endo.is_qf2_algebra(algebra)
        series = endo.kupisch_of_endo(algebra)
        if series is not None:
            series = (series.shape is QuiverShape.CYCLIC, list(series.lengths))
        return algebra.dimension, is_nakayama, is_qf2, series

    def run_round(self, log, checks):
        for ks, lengths, cyclic, chosen in self.plan:
            n = len(lengths)
            algebra = log.timed(nakayama.kupisch_to_algebra, ks)
            universe = [(t, l) for t in range(n) for l in range(1, lengths[t] + 1)]
            reps = log.timed(lambda: [nakayama.uniserial_module(algebra, t, l)
                                      for t, l in universe])
            ctx = log.timed(endo.EndomorphismContext, reps)
            pos = {u: i for i, u in enumerate(universe)}
            allowed = ref.allowed_summands(lengths, cyclic)
            for cand in chosen:
                ok, result = log.op("endo", self._endo_op, ctx, [pos[u] for u in cand])
                if ok:
                    check_endo(ks, lengths, cyclic, cand, allowed, result, checks)


def check_endo(ks, lengths, cyclic, cand, allowed, result, checks):
    dim, is_nakayama, is_qf2, series = result
    n = len(lengths)
    where = f"{ks} M={cand}"
    checks.expect(is_nakayama == all(u in allowed for u in cand),
                  f"{where}: End_B(M) Nakayama != summands allowed")
    checks.expect(is_qf2, f"{where}: End_B(M) is not QF-2")
    expected = sum(ref.hom_dim(a, b, n, cyclic) for a in cand for b in cand)
    checks.expect(dim == expected, f"{where}: dim End_B(M) {dim} != {expected}")
    if is_nakayama:
        checks.expect(series is not None and _ge(ref.nakayama_domdim(series[1], series[0], CUTOFF), 2),
                      f"{where}: Kupisch series of End_B(M) {series} has domdim < 2")


# -- cli-queries -----------------------------------------------------------

# Nakayama series beyond the suites' bounds (at most 6 vertices, lengths at
# most 8): 7 to 14 vertices, lengths up to 10, dominant dimensions 1, 2, 3,
# 5, 10, >= 12 and infinity.  Cyclic series with long projectives make
# ``dc`` take seconds, so the longest ones here are linear.
NAKAYAMA_SERIES = (
    ([10, 9, 8, 7, 6, 5, 4, 3, 2, 1], False),
    ([2] * 13 + [1], False),
    ([3] * 7 + [2, 1], False),
    ([4, 5, 5, 4, 3, 2, 3, 2, 1], False),
    ([2, 2, 3, 2, 2, 2, 2, 1], False),
    ([2, 3, 2, 4, 3, 3, 3, 2, 1], False),
    ([3] * 7, True),
    ([4] * 7, True),
    ([3] * 7 + [2], True),
    ([4, 4, 4, 5, 5, 4, 3, 3], True),
    ([7, 6, 5, 4, 8, 8, 7, 6, 8], True),
    ([5, 6, 5, 6, 5, 4, 4, 6], True),
    ([3, 2, 4, 4, 4, 4, 4, 3], True),
)

# Non-Nakayama monomial algebras on five vertices, so outside the default
# corpus: (vertex count, arrows as (source, target), relations as tuples of
# arrow indices).  The first is the paper's example (dominant dimension 1);
# the others have loops, parallel arrows, cycles and relations of length 3.
NON_NAKAYAMA = (
    (5, [(0, 1), (2, 1), (1, 3), (1, 4)], [(0, 2), (1, 3)]),
    (5, [(2, 2), (1, 4), (2, 0), (0, 4), (0, 3)], [(0, 0, 0)]),
    (5, [(2, 4), (4, 1), (4, 0), (0, 3), (2, 2), (0, 0)], [(2, 3), (4, 4, 4), (5, 5, 5)]),
    (5, [(4, 0), (4, 4), (0, 2), (4, 0), (3, 0), (1, 0)], [(1, 1, 1), (1, 1, 3)]),
    (5, [(1, 4), (1, 0), (4, 0), (2, 0), (3, 4), (4, 1)], [(4, 5, 1), (5, 0), (5, 1)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)], [(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 1, 2)]),
)

# endo queries: (series lengths, cyclic, summands beyond the projectives and
# injectives, as (top, length)).
ENDO_SPECS = (
    ([4, 4, 4], True, [(0, 1)]),
    ([3, 3], True, [(0, 2)]),
    ([3, 2, 1], False, [(1, 1)]),
    ([4, 3, 3], True, [(1, 2)]),
    ([4, 3, 2, 1], False, [(1, 2)]),
)


def write_alg(path, n, arrows, relations, names):
    """An algebra file with 1-based vertices and the given arrow names."""
    arrow_text = "; ".join(f"{names[i]} {s + 1} {t + 1}" for i, (s, t) in enumerate(arrows))
    relation_text = "; ".join(" ".join(names[a] for a in rel) for rel in relations)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"vertices: {n}\narrows: {arrow_text}\nrelations: {relation_text}\n")


def shuffled_presentation(rng, n, arrows, relations):
    """The same algebra with seeded vertex numbers, arrow order and arrow
    names; returns (arrows, relations, names)."""
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(len(arrows)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    new_arrows = [(perm[arrows[old][0]], perm[arrows[old][1]]) for old in order]
    new_relations = [tuple(new_index[a] for a in rel) for rel in relations]
    labels = rng.sample(range(100, 1000), len(arrows))
    names = [f"x{label}" for label in labels]
    return new_arrows, new_relations, names


def run_cli(argv):
    """cli.main in process; returns (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def handled_error(result):
    """A malformed query is handled when it exits 1 and says why on a
    stderr line that starts with 'quivalg'."""
    code, _, err = result
    return code == 1 and any(line.startswith("quivalg") for line in err.splitlines())


class CliQueries:
    """One op per in-process ``cli.main`` call, on algebra files written at
    set-up."""

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.queries = []  # (label, argv, kind, data)
        for k, (lengths, cyclic) in enumerate(NAKAYAMA_SERIES):
            n, arrows, relations = ref.series_algebra(lengths, cyclic)
            path = os.path.join(workdir, f"nakayama{k}.alg")
            write_alg(path, n, *shuffled_presentation(rng, n, arrows, relations))
            data = {"lengths": lengths, "cyclic": cyclic,
                    "domdim": ref.nakayama_domdim(lengths, cyclic, CUTOFF),
                    "coresolve": ref.nakayama_domdim(lengths, cyclic, 3),
                    "envelope_dim": ref.envelope_dim(lengths, cyclic)}
            for argv in (["check"], ["domdim"], ["nakayama"], ["qf2"], ["base"], ["dc"],
                         ["coresolve", "--terms", "3"]):
                self.queries.append((argv[0], [argv[0], path] + argv[1:], "nakayama", data))
        for k, (n, arrows, relations) in enumerate(NON_NAKAYAMA):
            arrows, relations, names = shuffled_presentation(rng, n, arrows, relations)
            path = os.path.join(workdir, f"monomial{k}.alg")
            write_alg(path, n, arrows, relations, names)
            data = {"dim": sum(ref.path_counts(n, arrows, relations))}
            for argv in (["check"], ["domdim"], ["nakayama"], ["qf2"], ["base"], ["dc"]):
                self.queries.append((argv[0], [argv[0], path] + argv[1:], "monomial", data))
        for lengths, cyclic, extra in ENDO_SPECS:
            self.queries.append(("endo",) + _endo_query(rng, lengths, cyclic, extra))
        self.queries.extend(_malformed_queries(workdir))

    def run_round(self, log, checks):
        results = {}
        for index, (label, argv, kind, data) in enumerate(self.queries):
            accept = handled_error if kind == "malformed" else None
            ok, result = log.op(label, run_cli, argv, accept=accept)
            if ok:
                results[index] = result
        domdims = {}
        for index, result in results.items():
            label, argv, kind, data = self.queries[index]
            if kind == "nakayama":
                check_nakayama_query(label, argv, data, result, checks)
            elif kind == "monomial":
                check_monomial_query(label, argv, data, result, checks, domdims)
            elif kind == "endo":
                check_endo_query(argv, data, result, checks)


def _endo_query(rng, lengths, cyclic, extra):
    """An endo query on a seeded rotation of the series, with the summands
    given in a seeded order as P/I/top-length tokens."""
    n = len(lengths)
    shift = rng.randrange(n) if cyclic else 0
    rotated = [lengths[(i + shift) % n] for i in range(n)]
    summands = rotate(ref.mandatory_summands(lengths, cyclic) | set(extra), -shift, n)
    tokens = [f"top={t + 1},len={l}" for t, l in summands]
    tokens += [f"P{v + 1}" for v in range(n) if rng.random() < 0.5]
    rng.shuffle(tokens)
    series = ("cyclic:" if cyclic else "linear:") + ",".join(map(str, rotated))
    data = {"lengths": rotated, "cyclic": cyclic, "summands": summands}
    return ["endo", "--kupisch", series, "--summands", " ".join(tokens)], "endo", data


def _malformed_queries(workdir):
    """Seed-independent malformed queries.  The first three fail today."""
    fixed = os.path.join(workdir, "fixed.alg")
    write_alg(fixed, *ref.series_algebra([2, 2, 1], False), ["a1", "a2"])
    unknown = os.path.join(workdir, "unknown_arrow.alg")
    with open(unknown, "w", encoding="utf-8") as fh:
        fh.write("vertices: 2\narrows: a1 1 2\nrelations: a1 b7\n")
    loop = os.path.join(workdir, "loop.alg")
    with open(loop, "w", encoding="utf-8") as fh:
        fh.write("vertices: 1\narrows: x 1 1\n")
    missing = os.path.join(workdir, "missing.alg")
    queries = [
        ["coresolve", fixed, "--terms", "0"],
        ["endo", "--kupisch", "linear:2,1", "--summands", "top=1,len=9"],
        ["domdim", fixed, "--cutoff", "0"],
        ["check", unknown],
        ["check", loop],
        ["check", missing],
        ["domdim", fixed, "--cutoff", "x"],
        ["endo", "--kupisch", "linear:1,2", "--summands", "P1"],
    ]
    return [(f"malformed-{argv[0]}", argv, "malformed", None) for argv in queries]


def _lines(text):
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def check_nakayama_query(label, argv, data, result, checks):
    code, out, _ = result
    lengths, cyclic, domdim = data["lengths"], data["cyclic"], data["domdim"]
    n = len(lengths)
    where = f"{label} {ref.series_text(lengths, cyclic)}"
    fields = _lines(out)
    if label == "base":
        checks.expect(code == (0 if _ge(domdim, 1) else 1), f"{where}: exit {code}")
        checks.expect(code != 0 or fields.get("nakayama (componentwise)") == "True",
                      f"{where}: base algebra is not Nakayama")
        return
    checks.expect(code == 0, f"{where}: exit {code}")
    if label == "check":
        checks.expect(fields.get("dimension") == str(sum(lengths)), f"{where}: dimension")
    elif label == "domdim":
        checks.expect(fields.get("dominant dimension") == _domdim_text(domdim),
                      f"{where}: {fields.get('dominant dimension')} != {_domdim_text(domdim)}")
        selfinjective = ref.is_selfinjective_series(lengths, cyclic)
        checks.expect((domdim[0] == "infinite") == selfinjective, f"{where}: infinity")
        checks.expect(selfinjective or domdim[1] <= 2 * n - 2, f"{where}: domdim > 2n - 2")
    elif label == "nakayama":
        printed = out.strip().rpartition(" ")[2]
        checks.expect(printed == ref.series_text(lengths, cyclic), f"{where}: series {printed}")
    elif label == "qf2":
        checks.expect(fields.get("QF-2 (both)") == "True", f"{where}: not QF-2")
    elif label == "dc":
        checks.expect(fields.get("double centraliser") == str(_ge(domdim, 2)), f"{where}: dc")
    elif label == "coresolve":
        terms = [line for line in out.splitlines() if line.startswith("I_")]
        flags = [line.endswith("projective=yes") for line in terms]
        leading = len(flags) if all(flags) else flags.index(False)
        kind, value = data["coresolve"]
        expected = value if kind == "finite" else len(flags)
        checks.expect(0 < len(flags) <= 3 and leading == expected,
                      f"{where}: {leading} leading projective terms, expected {expected}")
        total = terms[0].partition(" total ")[2].partition(" ")[0] if terms else ""
        checks.expect(total == str(data["envelope_dim"]), f"{where}: dim I_0 {total}")


def check_monomial_query(label, argv, data, result, checks, domdims):
    """Checks on a non-Nakayama input.  ``domdims`` carries the answer of
    the file's ``domdim`` query, which runs before ``base`` and ``dc``."""
    code, out, _ = result
    path = argv[1]
    where = f"{label} {os.path.basename(path)}"
    fields = _lines(out)
    domdim = domdims.get(path)
    if label == "base":
        if domdim is not None:
            checks.expect(code == (1 if domdim == "0" else 0), f"{where}: exit {code}")
        checks.expect(code != 0 or fields.get("nakayama (componentwise)") == "True",
                      f"{where}: base algebra is not Nakayama")
        return
    checks.expect(code == 0, f"{where}: exit {code}")
    if label == "check":
        checks.expect(fields.get("dimension") == str(data["dim"]), f"{where}: dimension")
        checks.expect(fields.get("shape") == "not_nakayama", f"{where}: shape")
    elif label == "domdim":
        text = fields.get("dominant dimension", "")
        domdims[path] = text
        checks.expect(text in ("0", "1"), f"{where}: domdim {text} >= 2 off Nakayama shape")
    elif label == "nakayama":
        checks.expect(out.strip() == "not a Nakayama algebra", f"{where}: {out.strip()}")
    elif label == "dc" and domdim is not None:
        holds = domdim not in ("0", "1")
        checks.expect(fields.get("double centraliser") == str(holds),
                      f"{where}: double centraliser != domdim >= 2")


def check_endo_query(argv, data, result, checks):
    code, out, _ = result
    lengths, cyclic, summands = data["lengths"], data["cyclic"], data["summands"]
    n = len(lengths)
    where = f"endo {argv[2]} {argv[4]!r}"
    fields = _lines(out)
    checks.expect(code == 0, f"{where}: exit {code}")
    checks.expect(fields.get("summands") == str(len(summands)), f"{where}: summand count")
    expected = sum(ref.hom_dim(a, b, n, cyclic) for a in summands for b in summands)
    checks.expect(fields.get("dimension") == str(expected), f"{where}: dimension")
    allowed = ref.allowed_summands(lengths, cyclic)
    is_nakayama = all(u in allowed for u in summands)
    checks.expect(fields.get("nakayama") == str(is_nakayama), f"{where}: nakayama")
    checks.expect(fields.get("qf2") == "True", f"{where}: not QF-2")
    printed = fields.get("kupisch", "")
    if is_nakayama:
        shape, _, text = printed.partition(":")
        series = [int(x) for x in text.split(",")] if text else []
        checks.expect(bool(series) and _ge(ref.nakayama_domdim(series, shape == "cyclic", CUTOFF), 2),
                      f"{where}: Kupisch series {printed} has domdim < 2")
    else:
        checks.expect(printed == "none", f"{where}: kupisch {printed}")


WORKLOADS = {
    "corpus-sweep": CorpusSweep,
    "endo-qf2": EndoQF2,
    "cli-queries": CliQueries,
}
