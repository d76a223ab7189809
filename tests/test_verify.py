import csv
import io
import json

import pytest

from quivalg import homological, verify
from quivalg.cli import paper_example, paper_example_text, parse_algebra
from quivalg.enumeration import CorpusBounds, enumerate_monomial_algebras
from quivalg.nakayama import enumerate_kupisch
from quivalg.verify import (
    SUITES,
    VerificationReport,
    algebra_facts,
    cross_check_facts,
    kupisch_side_checks,
    main_theorem_corpus_checks,
    morita_checks,
    qf2_chain_checks,
    run_suites,
    structural_oracle_checks,
    suite_report,
    sweep_corpus,
    yamagata_checks,
)

TINY = (CorpusBounds(2, 2, 2),)


@pytest.fixture
def small_comparison(monkeypatch):
    """Compare the Kupisch side against series up to 3 vertices and length 4."""
    monkeypatch.setattr(verify, "COMPARISON_MAX_N", 3)
    monkeypatch.setattr(verify, "COMPARISON_MAX_C", 4)


@pytest.fixture
def sweeps(monkeypatch):
    """The arguments of every ``sweep_corpus`` call made by ``run_suites``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep_corpus(*args, **kwargs)

    monkeypatch.setattr(verify, "sweep_corpus", counted)
    return calls


def _qf2_chain_tiny():
    [report] = run_suites(["qf2-chain"], TINY)
    return report


def test_sweep_is_deterministic():
    a = sweep_corpus(TINY)
    b = sweep_corpus(TINY)
    assert a == b and len(a) > 0


def test_sweep_workers_agree():
    assert sweep_corpus(TINY, workers=2) == sweep_corpus(TINY, workers=1)


def test_algebra_facts_fields(branching_algebra):
    f = algebra_facts(branching_algebra)
    assert f["dim"] == 11
    assert f["domdim"] == {"kind": "finite", "value": 1}
    assert f["domdim"] == f["domdim_op"]
    assert f["pi_right"] == [0, 2] and f["pi_left"] == [3, 4]
    assert f["dc_holds"] is False and f["dc_dim_commutant"] == 18
    assert f["base_nakayama"] is True
    assert f["dim_eAe"] == f["dim_fAf"] == 2
    assert f["socle_agree"] is True


def test_small_suites_pass():
    facts = sweep_corpus(TINY)
    for checker in (main_theorem_corpus_checks, qf2_chain_checks, cross_check_facts):
        counts, ces = checker(facts)
        assert ces == []
        assert counts["algebras"] == len(facts)


def test_structural_oracles_pass():
    counts, ces = structural_oracle_checks(2, 3)
    assert ces == []
    assert counts["kupisch_2_3"] == 7
    assert counts["loop_algebras_1_1_3"] == 3


def test_kupisch_side_small(monkeypatch):
    monkeypatch.setattr(verify, "COMPARISON_MAX_N", 4)
    monkeypatch.setattr(verify, "COMPARISON_MAX_C", 4)
    counts, ces = kupisch_side_checks(2, 2)
    assert ces == []
    assert counts["realized_series"] == counts["matched_series"] > 0


@pytest.mark.parametrize("checks,series_count", [
    (kupisch_side_checks, lambda counts: len(enumerate_kupisch(2, 3))),
    (yamagata_checks, lambda counts: counts["series"]),
    (morita_checks, lambda counts: counts["series"]),
], ids=["kupisch-side", "yamagata", "morita"])
def test_modules_over_one_series_share_one_context(monkeypatch, small_comparison,
                                                   checks, series_count):
    """Every End_B(M) over one Kupisch series is built from one context, so
    the hom spaces between B's uniserials are computed once per series."""
    built = []

    class Counted(verify.EndomorphismContext):
        def __init__(self, universe):
            built.append(universe)
            super().__init__(universe)

    monkeypatch.setattr(verify, "EndomorphismContext", Counted)
    counts, ces = checks(2, 3)
    assert ces == []
    assert len(built) == series_count(counts) > 1
    assert sum(counts.get(k, 0) for k in ("endo_instances", "candidates", "instances")) > len(built)


def test_run_suite_dispatch(sweeps):
    [report] = run_suites(["qf2-chain"], bounds=TINY)
    assert report.suite == "qf2-chain" and report.passed
    with pytest.raises(ValueError):
        run_suites(["nonsense"])
    # an unknown suite is rejected before the corpus is swept
    with pytest.raises(ValueError, match="nonsense"):
        run_suites(["qf2-chain", "nonsense"])
    assert len(sweeps) == 1


@pytest.mark.parametrize("suites,expected", [(SUITES, 1), (("yamagata", "morita"), 0)],
                         ids=["all", "kupisch-side"])
def test_run_suites_sweeps_the_corpus_at_most_once(suites, expected, sweeps, small_comparison):
    reports = run_suites(suites, TINY, max_n=2, max_c=2)
    assert [r.suite for r in reports] == list(suites)
    assert all(r.passed for r in reports)
    assert len(sweeps) == expected


def test_report_roundtrip(tmp_path):
    report = _qf2_chain_tiny()
    path = tmp_path / "report.json"
    report.write(str(path))
    data = json.loads(path.read_text())
    assert data["suite"] == "qf2-chain"
    assert data["passed"] is True
    assert data["counterexamples"] == []
    assert "wall_time_seconds" not in data  # timing never enters the file


def test_report_bytes_identical_across_runs(tmp_path):
    r1 = _qf2_chain_tiny()
    r2 = _qf2_chain_tiny()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    r1.write(str(p1))
    r2.write(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_report_csv_summary():
    report = _qf2_chain_tiny()
    text = report.csv_summary()
    assert text.splitlines()[0] == "key,value"
    assert "suite,qf2-chain" in text
    assert "passed,true" in text
    # the corpus bounds hold commas, so they are quoted into one field
    rows = list(csv.reader(io.StringIO(text)))
    assert all(len(row) == 2 for row in rows)
    assert ["bounds.corpora", str(report.bounds["corpora"])] in rows


def test_failing_report_shape():
    report = VerificationReport(
        suite="demo", bounds={}, counts={},
        counterexamples=[{"implication": "x", "canonical_form": "y"}])
    assert not report.passed
    assert json.loads(report.to_json())["passed"] is False


def test_yamagata_and_morita_tiny():
    yamagata, morita = run_suites(["yamagata", "morita"], max_n=2, max_c=2)
    counts = yamagata.counts
    assert yamagata.passed and counts["candidates"] >= counts["allowed_candidates"]
    assert counts["allowed_candidates"] == counts["nakayama_endos"]
    assert morita.passed and morita.counts["instances"] > 0


def test_main_theorem_tiny(small_comparison):
    [r] = run_suites(["main-theorem"], TINY, max_n=2, max_c=2)
    assert r.passed
    assert r.counts["matched_series"] == r.counts["realized_series"]


def test_cross_checks_tiny():
    [r] = run_suites(["cross-checks"], TINY, max_n=2, max_c=2)
    assert r.passed
    assert r.counts["dc_holds"] <= r.counts["domdim_ge1"]


def test_algebra_facts_reuse_the_streamed_canonical_form(monkeypatch):
    from quivalg import enumeration
    algebra = next(iter(enumeration.enumerate_monomial_algebras(CorpusBounds(2, 2, 2))))
    form = enumeration.canonical_form(algebra.quiver, [r.arrows for r in algebra.relations])

    def recomputed(quiver, relations):
        raise AssertionError("canonical form computed twice")

    monkeypatch.setattr(enumeration, "canonical_form", recomputed)
    assert algebra_facts(algebra)["form"] == form.decode("ascii")


def test_algebra_facts_decide_faithfulness_once_per_side(monkeypatch):
    """Af and eA are each tested for faithfulness once; the double
    centraliser check and the corner algebra reuse the cached answer, in
    the facts pass and in the CLI's paper example alike."""
    calls = []
    real = homological._suffix_faithful
    monkeypatch.setattr(homological, "_suffix_faithful",
                        lambda a, verts: calls.append(verts) or real(a, verts))
    algebra = parse_algebra(paper_example_text())
    algebra_facts(algebra)
    assert calls == [(0, 2), (3, 4)]
    homological.double_centralizer_check(algebra)
    homological.base_algebra(algebra)
    assert len(calls) == 2
    calls.clear()
    paper_example()
    assert sorted(calls) == [(0, 2), (3, 4)]
    # one test per side that has projective-injectives
    seen = set()
    for algebra in enumerate_monomial_algebras(CorpusBounds(3, 2, 2)):
        calls.clear()
        algebra_facts(algebra)
        assert len(calls) == sum(bool(homological.projective_injective_vertices(w))
                                 for w in (algebra, algebra.opposite()))
        seen.add(len(calls))
    assert seen == {0, 2}


def test_empty_families_fail():
    [report] = run_suites(["morita"], max_n=0, max_c=4)
    assert not report.passed
    assert {ce["count"] for ce in report.counterexamples} == {"series", "instances"}
    counts, ces = qf2_chain_checks([])
    assert not suite_report("qf2-chain", {}, counts, ces, 0.0).passed


# One fact that passes every corpus implication, and for each implication
# the overrides under which its suite reports that implication alone.
PASSING_FACT = {
    "form": "synthetic", "dim": 1, "shape": "linear",
    "domdim": {"kind": "finite", "value": 2}, "domdim_op": {"kind": "finite", "value": 2},
    "qf2_right": True, "qf2_left": True, "socle_agree": True,
    "pi_right": [0], "pi_left": [1], "dc_holds": True, "dc_dim_commutant": 1,
    "base_nakayama": True, "dim_eAe": 1, "dim_fAf": 1,
}
CORPUS_CHECKS = {"main-theorem": main_theorem_corpus_checks, "qf2-chain": qf2_chain_checks,
                 "cross-checks": cross_check_facts}
BREAKING = [
    ("main-theorem", "domdim>=2 => nakayama shape",
     {"shape": "not_nakayama", "qf2_left": False}),
    ("qf2-chain", "domdim>=2 => QF-2 on both sides", {"qf2_left": False}),
    ("qf2-chain", "monomial QF-2 => nakayama shape", {"shape": "not_nakayama"}),
    ("qf2-chain", "socle criterion == socle dimension oracle", {"socle_agree": False}),
    ("cross-checks", "domdim>=1 <=> minimal faithful projective-injective exists",
     {"pi_left": None}),
    ("cross-checks", "domdim>=2 <=> double centralizer", {"dc_holds": False}),
    ("cross-checks", "domdim(A) == domdim(op A)",
     {"domdim_op": {"kind": "finite", "value": 3}}),
    ("cross-checks", "base algebra fAf is componentwise Nakayama", {"base_nakayama": False}),
    ("cross-checks", "dim eAe == dim fAf", {"dim_eAe": 2}),
]


def test_the_passing_fact_passes_every_corpus_suite():
    for checks in CORPUS_CHECKS.values():
        counts, ces = checks([PASSING_FACT])
        assert ces == [] and counts["algebras"] == 1


def test_every_corpus_implication_has_a_breaking_case():
    rows = {(suite, row[0]) for suite, entry in verify._SUITE_TABLE.items()
            if entry.corpus is not None for row in entry.corpus[1]}
    assert {(suite, text) for suite, text, _ in BREAKING} == rows


@pytest.mark.parametrize("suite,implication,overrides", BREAKING,
                         ids=[f"{suite}:{'+'.join(o)}" for suite, _, o in BREAKING])
def test_each_corpus_implication_can_fail(suite, implication, overrides):
    """No corpus implication is vacuous: on a fact that breaks it alone, its
    suite reports exactly that implication."""
    _, ces = CORPUS_CHECKS[suite]([{**PASSING_FACT, **overrides}])
    assert [ce["implication"] for ce in ces] == [implication]
    assert ces[0]["canonical_form"] == "synthetic"
