"""Acceptance suite: one test per acceptance criterion.

The corpus-based criteria share a single exhaustive sweep over the default
corpora (all connected quivers with up to 4 vertices and 4 arrows with
quadratic relations, plus all quivers with up to 3 vertices and 2 arrows
with relations up to length three).  Every test prints an explicit
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import pathlib
import time

import pytest

from quivalg.endo import endomorphism_algebra, kupisch_of_endo
from quivalg.homological import DomDim, dominant_dimension
from quivalg.nakayama import KupischSeries, kupisch_to_algebra, uniserial_module
from quivalg.quiver import QuiverShape
from quivalg.representations import projective_module
from quivalg.verify import (
    COMPARISON_MAX_C,
    COMPARISON_MAX_N,
    DEFAULT_CORPORA,
    DEFAULT_MAX_C,
    DEFAULT_MAX_N,
    _corpora_dict,
    cross_check_facts,
    kupisch_side_checks,
    main_theorem_corpus_checks,
    qf2_chain_checks,
    run_morita,
    run_yamagata,
    structural_oracle_checks,
    suite_report,
    sweep_corpus,
)

REPORTS = pathlib.Path(__file__).resolve().parent.parent / "reports"


@pytest.fixture(scope="module")
def corpus():
    t0 = time.time()
    facts = sweep_corpus(DEFAULT_CORPORA)
    return {"facts": facts, "sweep_seconds": time.time() - t0}


@pytest.fixture(scope="module")
def kupisch_side():
    return kupisch_side_checks(DEFAULT_MAX_N, DEFAULT_MAX_C, COMPARISON_MAX_N, COMPARISON_MAX_C)


@pytest.fixture(scope="module")
def structural():
    return structural_oracle_checks(DEFAULT_MAX_N, DEFAULT_MAX_C)


def _assert_golden(report):
    """The committed report at default bounds, byte for byte."""
    golden = (REPORTS / f"{report.suite}.json").read_bytes()
    assert report.to_json().encode("utf-8") == golden, f"{report.suite} report changed"


def _report(ok, label):
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def _filtered(counterexamples, implication):
    return [ce for ce in counterexamples if ce["implication"] == implication]


def test_criterion_1_paper_example_reproduction():
    from quivalg.cli import paper_example
    t0 = time.time()
    record = paper_example()
    elapsed = time.time() - t0
    ok = (record["dominant_dimension"] == 1
          and record["nakayama"] is False
          and record["qf2_right"] is False
          and record["double_centralizer"] is False
          and record["min_faithful_proj_inj_right"] == [1, 3]
          and record["base_algebra_dimension"] == 2
          and elapsed < 1.0)
    _report(ok, "criterion 1: example algebra has domdim 1, is not Nakayama, "
                f"fails QF-2 and the double centraliser ({elapsed:.2f}s)")


def test_criterion_2_main_theorem_monomial_side(corpus):
    counts, ces = main_theorem_corpus_checks(corpus["facts"])
    bad = _filtered(ces, "domdim>=2 => nakayama shape")
    ok = not bad and corpus["sweep_seconds"] < 600
    _report(ok, f"criterion 2: domdim>=2 <=> Nakayama shape & domdim>=2 on "
                f"{counts['algebras']} algebras "
                f"({corpus['sweep_seconds']:.0f}s sweep, {len(bad)} counterexamples)")


def test_criterion_3a_minimal_faithful_iff_domdim_one(corpus):
    _, ces = cross_check_facts(corpus["facts"])
    bad = _filtered(ces, "domdim>=1 <=> minimal faithful projective-injective exists")
    _report(not bad, f"criterion 3a: domdim>=1 <=> minimal faithful "
                     f"projective-injective exists ({len(bad)} counterexamples)")


def test_criterion_3b_double_centralizer_iff_domdim_two(corpus):
    _, ces = cross_check_facts(corpus["facts"])
    bad = _filtered(ces, "domdim>=2 <=> double centralizer")
    _report(not bad, f"criterion 3b: domdim>=2 <=> double centraliser "
                     f"({len(bad)} counterexamples)")


def test_criterion_3c_domdim_opposite_invariance(corpus):
    _, ces = cross_check_facts(corpus["facts"])
    bad = _filtered(ces, "domdim(A) == domdim(op A)")
    _report(not bad, f"criterion 3c: domdim(A) == domdim(opposite A) "
                     f"({len(bad)} counterexamples)")


def test_criterion_4a_domdim_two_implies_qf2(corpus):
    _, ces = qf2_chain_checks(corpus["facts"])
    bad = _filtered(ces, "domdim>=2 => QF-2 on both sides")
    _report(not bad, f"criterion 4a: domdim>=2 => QF-2 both sides "
                     f"({len(bad)} counterexamples)")


def test_criterion_4b_qf2_implies_nakayama_shape(corpus):
    _, ces = qf2_chain_checks(corpus["facts"])
    bad = _filtered(ces, "monomial QF-2 => nakayama shape")
    _report(not bad, f"criterion 4b: monomial QF-2 => Nakayama shape "
                     f"({len(bad)} counterexamples)")


def test_criterion_4c_socle_criterion_matches_oracle(corpus):
    _, ces = qf2_chain_checks(corpus["facts"])
    bad = _filtered(ces, "socle criterion == socle dimension oracle")
    _report(not bad, f"criterion 4c: combinatorial socle criterion == "
                     f"socle dimension oracle ({len(bad)} counterexamples)")


def test_criterion_5_base_algebra_is_nakayama(corpus):
    counts, ces = cross_check_facts(corpus["facts"])
    bad = _filtered(ces, "base algebra fAf is componentwise Nakayama")
    _report(not bad, f"criterion 5: fAf componentwise Nakayama on "
                     f"{counts['domdim_ge1']} algebras with domdim>=1 "
                     f"({len(bad)} counterexamples)")


def test_criterion_6_yamagata_biconditional():
    report = run_yamagata(DEFAULT_MAX_N, DEFAULT_MAX_C)
    _assert_golden(report)
    ok = report.passed and report.wall_time_seconds < 300
    _report(ok, f"criterion 6: Nakayama(End) <=> allowed summands and QF-2 always, "
                f"{report.counts['candidates']} generator-cogenerators over "
                f"{report.counts['series']} series "
                f"({report.wall_time_seconds:.0f}s, "
                f"{len(report.counterexamples)} counterexamples)")


def test_criterion_7_kupisch_side_set_equality(kupisch_side):
    counts, ces = kupisch_side
    ok = not ces and counts["realized_series"] == counts["matched_series"] > 0
    _report(ok, "criterion 7: realized endomorphism Kupisch series == "
                "domdim>=2 series with base in bounds "
                f"(generators n<=3 c<=4, comparison n<=6 c<=8; "
                f"{counts['realized_series']} series on both sides, "
                f"{len(ces)} counterexamples)")


def test_criterion_8_auslander_spot_check():
    dual = kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (2,)))
    p = projective_module(dual, 0)
    s = uniserial_module(dual, 0, 1)  # P / soc P
    endo = endomorphism_algebra([p, s])
    ks = kupisch_of_endo(endo)
    recon = kupisch_to_algebra(ks)
    dd = dominant_dimension(recon)
    ok = (ks == KupischSeries(QuiverShape.CYCLIC, (3, 2)) and dd == DomDim.finite(2))
    _report(ok, f"criterion 8: End(P + P/soc) over the loop algebra has Kupisch "
                f"{ks} with domdim {dd}")


def test_criterion_9_morita_forward():
    report = run_morita(DEFAULT_MAX_N, DEFAULT_MAX_C)
    _assert_golden(report)
    _report(report.passed,
            f"criterion 9: selfinjective series give Nakayama End algebras with "
            f"selfinjective base and domdim>=2, {report.counts['instances']} "
            f"instances ({len(report.counterexamples)} counterexamples)")


def test_criterion_10_structural_oracles(structural):
    counts, ces = structural
    ok = (not ces and counts["kupisch_2_3"] == 7
          and counts["loop_algebras_1_1_3"] == 3)
    _report(ok, f"criterion 10: Kupisch roundtrips and selfinjectivity oracle over "
                f"{counts['kupisch_series']} series; 7 series at (2,3); "
                f"3 one-loop algebras ({len(ces)} counterexamples)")


def test_main_theorem_report_is_golden(corpus, kupisch_side):
    counts, ces = main_theorem_corpus_checks(corpus["facts"])
    counts.update(kupisch_side[0])
    bounds = {**_corpora_dict(DEFAULT_CORPORA), "max_n": DEFAULT_MAX_N,
              "max_c": DEFAULT_MAX_C, "comparison_max_n": COMPARISON_MAX_N,
              "comparison_max_c": COMPARISON_MAX_C}
    _assert_golden(suite_report("main-theorem", bounds, counts, ces + kupisch_side[1], 0.0))


def test_qf2_chain_report_is_golden(corpus):
    counts, ces = qf2_chain_checks(corpus["facts"])
    _assert_golden(suite_report("qf2-chain", _corpora_dict(DEFAULT_CORPORA), counts, ces, 0.0))


def test_cross_checks_report_is_golden(corpus, structural):
    counts, ces = cross_check_facts(corpus["facts"])
    counts.update(structural[0])
    bounds = {**_corpora_dict(DEFAULT_CORPORA), "max_n": DEFAULT_MAX_N, "max_c": DEFAULT_MAX_C}
    _assert_golden(suite_report("cross-checks", bounds, counts, ces + structural[1], 0.0))
