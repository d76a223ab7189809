"""Exhaustive theorem verification over bounded corpora.

Each suite sweeps a finite family of algebras, evaluates the relevant
implications on every member, and returns a machine-readable report whose
counterexample list is empty exactly when the suite passes.  Sweeps are
pure and deterministic; with several workers the corpus is partitioned by
quiver and merged in a fixed order, so reports do not depend on the
worker count.
"""

import csv
import io
import json
import os
import time
from collections import namedtuple
from dataclasses import dataclass
from functools import cache

from . import __version__
from .endo import (
    EndomorphismContext,
    is_nakayama_algebra,
    is_qf2_algebra,
    kupisch_of_endo,
    kupisch_reading,
    monomial_basic_algebra,
)
from .enumeration import (
    CorpusBounds,
    algebras_over,
    cached_canonical_form,
    connected_quivers,
    enumerate_monomial_algebras,
)
from .homological import (
    DOMDIM_CUTOFF,
    DomDim,
    base_algebra,
    dominant_dimension,
    double_centralizer_check,
    is_selfinjective,
    minimal_faithful_proj_inj,
    projective_injective_vertices,
)
from .nakayama import (
    KupischSeries,
    algebra_to_kupisch,
    all_uniserial_ids,
    allowed_summand_ids,
    enumerate_kupisch,
    gen_cogen_candidate_ids,
    injective_uniserial_id,
    is_selfinjective_kupisch,
    kupisch_to_algebra,
    uniserial_module,
)
from .quiver import QuiverShape, shape_classify
from .representations import projective_socle_dims

# The default corpus pairs a length-two-relation family with a smaller
# family exercising relation length three; together they stay in the
# thousands-of-algebras regime that keeps exhaustive runs at minutes.
DEFAULT_CORPORA = (CorpusBounds(4, 4, 2), CorpusBounds(3, 2, 3))
DEFAULT_MAX_N = 3
DEFAULT_MAX_C = 4
COMPARISON_MAX_N = 6
COMPARISON_MAX_C = 8


@dataclass
class VerificationReport:
    suite: str
    bounds: dict
    counts: dict
    counterexamples: list
    wall_time_seconds: float = 0.0

    @property
    def passed(self):
        return not self.counterexamples

    def to_dict(self):
        """Serializable content; wall time is reported separately so equal
        runs produce byte-identical files."""
        return {
            "suite": self.suite,
            "tool_version": __version__,
            "bounds": dict(sorted(self.bounds.items())),
            "counts": dict(sorted(self.counts.items())),
            "counterexamples": self.counterexamples,
            "passed": self.passed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path):
        tmp = f"{path}.tmp"
        fh = open(tmp, "w", encoding="utf-8")
        try:
            with fh:
                fh.write(self.to_json())
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise

    def csv_summary(self):
        """Key/value rows; a value with a comma, such as the corpus bounds,
        is CSV-quoted."""
        rows = [("key", "value"), ("suite", self.suite), ("passed", str(self.passed).lower())]
        rows += [(f"bounds.{k}", v) for k, v in sorted(self.bounds.items())]
        rows += [(f"counts.{k}", v) for k, v in sorted(self.counts.items())]
        rows.append(("counterexamples", len(self.counterexamples)))
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()


# -- corpus sweep ---------------------------------------------------------------


def _domdim_dict(d):
    return {"kind": d.kind, "value": d.value}


def algebra_facts(algebra):
    """Everything the monomial-side suites need to know about one algebra."""
    opp = algebra.opposite()
    n = algebra.quiver.vertex_count
    socle_agree = True
    qf2 = []  # right projectives of A, then of the opposite: the left ones of A
    for work in (algebra, opp):
        qf2.append(all(work.socle_criterion(v) for v in range(n)))
        socle_agree &= all(work.socle_dims(v) == projective_socle_dims(work, v) for v in range(n))
    pi_right = minimal_faithful_proj_inj(algebra)
    pi_left = minimal_faithful_proj_inj(opp)
    dc = double_centralizer_check(algebra)
    base_naka = None
    dim_faf = None
    if pi_left is not None:
        base = monomial_basic_algebra(algebra, pi_left)
        base_naka = is_nakayama_algebra(base)
        dim_faf = base.dimension
    dim_eae = None
    if pi_right is not None:
        dim_eae = monomial_basic_algebra(algebra, pi_right).dimension
    return {
        "form": cached_canonical_form(algebra).decode("ascii"),
        "dim": algebra.dimension,
        "shape": shape_classify(algebra.quiver).value,
        "domdim": _domdim_dict(dominant_dimension(algebra, DOMDIM_CUTOFF)),
        "domdim_op": _domdim_dict(dominant_dimension(opp, DOMDIM_CUTOFF)),
        "qf2_right": qf2[0],
        "qf2_left": qf2[1],
        "socle_agree": socle_agree,
        "pi_right": list(pi_right) if pi_right is not None else None,
        "pi_left": list(pi_left) if pi_left is not None else None,
        "dc_holds": dc.holds,
        "dc_dim_commutant": dc.dim_commutant,
        "base_nakayama": base_naka,
        "dim_eAe": dim_eae,
        "dim_fAf": dim_faf,
    }


def _facts_for_quiver(payload):
    quiver, max_rel = payload
    return [algebra_facts(algebra) for algebra in algebras_over(quiver, max_rel)]


def sweep_corpus(corpora, workers=1):
    """Facts for every algebra of every corpus, partitioned per quiver and
    merged in canonical order regardless of the worker count, which is
    capped at the number of CPUs."""
    payloads = [(quiver, bounds.max_relation_length)
                for bounds in corpora
                for quiver in connected_quivers(bounds.max_vertices, bounds.max_arrows)]
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        chunks = [_facts_for_quiver(p) for p in payloads]
    else:
        from multiprocessing import Pool
        with Pool(workers) as pool:
            # one quiver per task: a few multi-loop quivers dominate, and
            # default chunks of neighbouring quivers leave a worker idle
            chunks = pool.map(_facts_for_quiver, payloads, chunksize=1)
    return [fact for chunk in chunks for fact in chunk]


# -- suites ---------------------------------------------------------------------


def main_theorem_corpus_checks(facts):
    """Counts and counterexamples of the main-theorem rows of the corpus table."""
    return _corpus_checks("main-theorem", facts)


def _instances(series, candidates):
    """(ks, B, M, End_B(M)) for each series ks, its Nakayama algebra B and
    each M in ``candidates(B)``, a sorted tuple of uniserial ids; one
    context per B computes B's hom spaces once for all its modules."""
    for ks in series:
        algebra = kupisch_to_algebra(ks)
        universe = all_uniserial_ids(algebra)
        ctx = EndomorphismContext([uniserial_module(algebra, t, l) for t, l in universe])
        pos = {uid: i for i, uid in enumerate(universe)}
        for cand in candidates(algebra):
            yield ks, algebra, cand, ctx.endo_algebra([pos[uid] for uid in cand])


def _instance(implication, ks, cand=None, **detail):
    """The counterexample to ``implication`` at the series ``ks`` and, when
    given, the module M = sum of ``cand`` over it."""
    summands = {} if cand is None else {"summands": list(map(list, cand))}
    return {"implication": implication, "series": str(ks), **summands, **detail}


def _domdim2_base(ks):
    """Whether the Nakayama algebra of ``ks`` has dominant dimension at
    least two and, when it has, the Kupisch series of its base algebra
    (None when that is not connected Nakayama)."""
    algebra = kupisch_to_algebra(ks)
    if not dominant_dimension(algebra, 2).ge(2):
        return False, None
    return True, kupisch_of_endo(base_algebra(algebra))


def kupisch_side_checks(max_n, max_c):
    """Counts and counterexamples for the Kupisch-side set matching: the
    Kupisch series realized by endomorphism algebras of allowed
    generator-cogenerators coincide with those of the Nakayama algebras
    within the comparison bounds of dominant dimension at least two whose
    base algebra fits the generator bounds."""
    cmp_n, cmp_c = COMPARISON_MAX_N, COMPARISON_MAX_C
    counterexamples = []
    lhs = set()
    n_endo = 0
    for ks, _, cand, endo in _instances(enumerate_kupisch(max_n, max_c), gen_cogen_candidate_ids):
        n_endo += 1
        kc = kupisch_of_endo(endo)
        if kc is None:
            counterexamples.append(
                _instance("End of allowed generator-cogenerator is Nakayama", ks, cand))
            continue
        ge2, base_ks = _domdim2_base(kc)
        if not ge2:
            counterexamples.append(
                _instance("End of generator-cogenerator has domdim >= 2", ks, cand))
        elif base_ks != ks.canonical():
            counterexamples.append(_instance("base algebra of End_B(M) recovers B", ks, cand,
                                             base=str(base_ks)))
        if kc.vertex_count <= cmp_n and max(kc.lengths) <= cmp_c:
            lhs.add(str(kc))
    rhs = set()
    comparison = enumerate_kupisch(cmp_n, cmp_c)
    for ks in comparison:
        ge2, base_ks = _domdim2_base(ks)
        if ge2 and base_ks is None:
            counterexamples.append(
                _instance("base algebra of a Nakayama algebra is connected Nakayama", ks))
        elif ge2 and base_ks.vertex_count <= max_n and max(base_ks.lengths) <= max_c:
            rhs.add(str(ks))
    for s in sorted(lhs - rhs):
        counterexamples.append(
            _instance("realized endomorphism series has domdim >= 2 with small base", s))
    for s in sorted(rhs - lhs):
        counterexamples.append(
            _instance("Nakayama series with domdim >= 2 and small base is realized", s))
    counts = {"endo_instances": n_endo, "realized_series": len(lhs),
              "comparison_series": len(comparison), "matched_series": len(lhs & rhs)}
    return counts, counterexamples


def qf2_chain_checks(facts):
    """Counts and counterexamples of the qf2-chain rows of the corpus table."""
    return _corpus_checks("qf2-chain", facts)


def cross_check_facts(facts):
    """Counts and counterexamples of the cross-checks rows of the corpus table."""
    return _corpus_checks("cross-checks", facts)


def structural_oracle_checks(max_n, max_c):
    """Kupisch roundtrips, selfinjectivity agreement, and the two fixed
    enumeration counts."""
    counts = {}
    counterexamples = []
    series = enumerate_kupisch(max_n, max_c)
    counts["kupisch_series"] = len(series)
    for ks in series:
        algebra = kupisch_to_algebra(ks)
        back = algebra_to_kupisch(algebra)
        if back != ks:
            counterexamples.append(_instance("kupisch roundtrip", ks, roundtrip=str(back)))
        dims = tuple(len(algebra.paths_from(v)) for v in range(ks.vertex_count))
        if dims != ks.lengths:
            counterexamples.append(
                _instance("projective dimensions match the series", ks, dims=list(dims)))
        if is_selfinjective_kupisch(ks) != is_selfinjective(algebra):
            counterexamples.append(
                _instance("selfinjectivity criterion matches homological oracle", ks))
    expected = ["linear:1", "linear:2,1", "cyclic:2", "cyclic:3",
                "cyclic:2,2", "cyclic:3,2", "cyclic:3,3"]
    got = [str(ks) for ks in enumerate_kupisch(2, 3)]
    counts["kupisch_2_3"] = len(got)
    if sorted(got) != sorted(expected):
        counterexamples.append({
            "implication": "enumerate_kupisch(2,3) yields the seven known series",
            "series": got,
        })
    small = sum(1 for _ in enumerate_monomial_algebras(CorpusBounds(1, 1, 3)))
    counts["loop_algebras_1_1_3"] = small
    if small != 3:
        counterexamples.append({
            "implication": "enumerate_monomial_algebras(1,1,3) yields three algebras",
            "count": small,
        })
    return counts, counterexamples


def yamagata_checks(max_n, max_c):
    """Over every Kupisch series within bounds and every basic
    generator-cogenerator from the full uniserial universe: End_B(M) is
    Nakayama exactly when all summands are allowed, End_B(M) is always
    QF-2 on both sides, and for Nakayama outcomes the projective-injective
    vertices match the injective summands."""
    series = enumerate_kupisch(max_n, max_c)
    counts = {"series": len(series), "candidates": 0, "allowed_candidates": 0,
              "nakayama_endos": 0}
    counterexamples = []
    current = None
    full = _instances(series, lambda b: gen_cogen_candidate_ids(b, full_universe=True))
    for ks, algebra, cand, endo in full:
        if algebra is not current:  # the first instance of a series reads its summand sets
            current, allowed = algebra, set(allowed_summand_ids(algebra))
            injective_ids = {injective_uniserial_id(algebra, v) for v in range(ks.vertex_count)}
        counts["candidates"] += 1
        expect_nakayama = allowed.issuperset(cand)
        if expect_nakayama:
            counts["allowed_candidates"] += 1
        naka = is_nakayama_algebra(endo)
        if naka:
            counts["nakayama_endos"] += 1
        if naka != expect_nakayama:
            counterexamples.append(_instance("End_B(M) Nakayama <=> summands allowed", ks, cand,
                                             nakayama=naka))
        if not is_qf2_algebra(endo):
            counterexamples.append(_instance("End_B(M) is QF-2", ks, cand))
        mismatch = naka and _apt_mismatch(endo, cand, injective_ids)
        if mismatch:
            counterexamples.append(_instance(
                "projective-injectives of End_B(M) sit at injective summands", ks, cand,
                detail=mismatch))
    return counts, counterexamples


def _apt_mismatch(endo, cand, injective_ids):
    """Compare projective-injective vertices of a Nakayama End algebra with
    the injective summands of M, through its Kupisch series in walk order."""
    series, order = kupisch_reading(endo)
    pi_positions = sorted(projective_injective_vertices(kupisch_to_algebra(series)))
    inj_positions = [k for k, i in enumerate(order) if cand[i] in injective_ids]
    if pi_positions != inj_positions:
        return {"proj_inj": pi_positions, "injective_summands": inj_positions}
    return None


def _with_p_mod_soc(algebra):
    """B plus each set of distinct P/soc summands, over a selfinjective
    Nakayama algebra B."""
    n, c = algebra.quiver.vertex_count, len(algebra.paths_from(0))
    return [tuple(sorted([(v, c) for v in range(n)]
                         + [(v, c - 1) for v in range(n) if mask >> v & 1]))
            for mask in range(1 << n)]


def morita_checks(max_n, max_c):
    """Forward direction of the Morita-algebra classification: for a
    selfinjective (constant cyclic) series and M = B plus distinct P/soc
    summands, End_B(M) is Nakayama with selfinjective base and dominant
    dimension at least two."""
    series = [KupischSeries(QuiverShape.CYCLIC, (c,) * n)
              for c in range(2, max_c + 1) for n in range(1, max_n + 1)]
    counts = {"series": len(series), "instances": 0}
    counterexamples = []
    for ks, _, cand, endo in _instances(series, _with_p_mod_soc):
        counts["instances"] += 1
        if not is_nakayama_algebra(endo):
            counterexamples.append(_instance("End is Nakayama", ks, cand))
            continue
        ge2, base_ks = _domdim2_base(kupisch_of_endo(endo))
        if not ge2:
            counterexamples.append(_instance("End has domdim >= 2", ks, cand))
        elif base_ks is None or not is_selfinjective_kupisch(base_ks):
            counterexamples.append(_instance("base algebra is selfinjective", ks, cand))
    return counts, counterexamples


# Named predicates on the facts of one algebra, read by the corpus table;
# domdim >= k is decided once per dominant dimension value.
_domdim_ge = cache(lambda k, kind, value: DomDim(kind, value).ge(k))
_PREDICATES = {
    "domdim_ge1": lambda f: _domdim_ge(1, **f["domdim"]),
    "domdim_ge2": lambda f: _domdim_ge(2, **f["domdim"]),
    "nakayama_shape": lambda f: f["shape"] != QuiverShape.NOT_NAKAYAMA.value,
    "qf2_both": lambda f: f["qf2_right"] and f["qf2_left"],
    "socle_agree": lambda f: f["socle_agree"],
    "dc_holds": lambda f: f["dc_holds"],
    "proj_inj_iff_domdim_ge1": lambda f: (
        (f["pi_right"] is not None) == (f["pi_left"] is not None) == _domdim_ge(1, **f["domdim"])),
    "dc_iff_domdim_ge2": lambda f: f["dc_holds"] == _domdim_ge(2, **f["domdim"]),
    "domdim_op_equal": lambda f: f["domdim"] == f["domdim_op"],
    "base_nakayama": lambda f: f["base_nakayama"] is True,
    "corners_equal": lambda f: f["dim_eAe"] == f["dim_fAf"],
}


def _corpus_checks(suite, facts):
    """Counts of the suite's counted predicates over ``facts``, and one
    counterexample per fact and implication whose premise (None: always)
    holds and whose conclusion does not."""
    counted, implications = _SUITE_TABLE[suite].corpus
    counts = {"algebras": len(facts), **dict.fromkeys(counted, 0)}
    counterexamples = []
    for f in facts:
        for name in counted:
            if _PREDICATES[name](f):
                counts[name] += 1
        for text, premise, conclusion, keys in implications:
            if (premise is None or _PREDICATES[premise](f)) and not _PREDICATES[conclusion](f):
                counterexamples.append({"canonical_form": f["form"], "implication": text,
                                        **{k: f[k] for k in keys}})
    return counts, counterexamples


# A suite checks the corpus facts, the (max_n, max_c) families, or both; its
# report records the named bounds, and it fails when a family it sweeps is
# empty instead of passing vacuously.  A corpus suite counts the algebras and
# its counted predicates, and checks each implication (text, premise or None,
# conclusion, fact keys its counterexample carries) on every algebra.
_Suite = namedtuple("_Suite", "corpus family_checks bounds families")
_SUITE_TABLE = {
    "main-theorem": _Suite(
        (("domdim_ge2", "nakayama_shape"),
         (("domdim>=2 => nakayama shape", "domdim_ge2", "nakayama_shape", ()),)),
        kupisch_side_checks,
        ("corpora", "max_n", "max_c", "comparison_max_n", "comparison_max_c"),
        ("algebras", "endo_instances", "comparison_series")),
    "yamagata": _Suite(None, yamagata_checks, ("max_n", "max_c"), ("series", "candidates")),
    "qf2-chain": _Suite(
        (("qf2_both", "domdim_ge2"),
         (("domdim>=2 => QF-2 on both sides", "domdim_ge2", "qf2_both", ()),
          ("monomial QF-2 => nakayama shape", "qf2_both", "nakayama_shape", ()),
          ("socle criterion == socle dimension oracle", None, "socle_agree", ()))),
        None, ("corpora",), ("algebras",)),
    "morita": _Suite(None, morita_checks, ("max_n", "max_c"), ("series", "instances")),
    "cross-checks": _Suite(
        (("domdim_ge1", "dc_holds"),
         (("domdim>=1 <=> minimal faithful projective-injective exists", None,
           "proj_inj_iff_domdim_ge1", ()),
          ("domdim>=2 <=> double centralizer", None, "dc_iff_domdim_ge2", ()),
          ("domdim(A) == domdim(op A)", None, "domdim_op_equal", ("domdim", "domdim_op")),
          ("base algebra fAf is componentwise Nakayama", "domdim_ge1", "base_nakayama", ()),
          ("dim eAe == dim fAf", "domdim_ge1", "corners_equal", ()))),
        structural_oracle_checks, ("corpora", "max_n", "max_c"), ("algebras", "kupisch_series")),
}
SUITES = tuple(_SUITE_TABLE)


def first_family(suite):
    """The family a suite sweeps first, which its one-line summary names."""
    return _SUITE_TABLE[suite].families[0]


def suite_report(suite, bounds, counts, counterexamples, started):
    """The report of a suite started at time ``started``, with its
    counterexamples in a fixed order."""
    counterexamples = counterexamples + [
        {"implication": "the swept family is nonempty", "count": name}
        for name in _SUITE_TABLE[suite].families if not counts[name]]
    return VerificationReport(
        suite=suite, bounds=bounds, counts=counts,
        counterexamples=sorted(counterexamples, key=lambda d: json.dumps(d, sort_keys=True)),
        wall_time_seconds=time.time() - started,
    )


def run_suites(suites, bounds=DEFAULT_CORPORA, max_n=DEFAULT_MAX_N, max_c=DEFAULT_MAX_C,
               workers=1):
    """One report per suite, in the order given.  The corpus is swept at
    most once, when the first suite that reads its facts runs, and that
    suite's wall time includes the sweep."""
    unknown = [s for s in suites if s not in _SUITE_TABLE]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from {', '.join(SUITES)}")
    recorded = {"corpora": [b.as_dict() for b in bounds], "max_n": max_n, "max_c": max_c,
                "comparison_max_n": COMPARISON_MAX_N, "comparison_max_c": COMPARISON_MAX_C}
    facts = None
    reports = []
    for suite in suites:
        t0 = time.time()
        row = _SUITE_TABLE[suite]
        counts, counterexamples = {}, []
        if row.corpus is not None:
            if facts is None:
                facts = sweep_corpus(bounds, workers=workers)
            counts, counterexamples = _corpus_checks(suite, facts)
        if row.family_checks is not None:
            more_counts, more = row.family_checks(max_n, max_c)
            counts.update(more_counts)
            counterexamples.extend(more)
        reports.append(suite_report(suite, {k: recorded[k] for k in row.bounds},
                                    counts, counterexamples, t0))
    return reports
