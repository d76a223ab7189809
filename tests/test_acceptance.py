"""Acceptance suite: one test per acceptance criterion.

Every suite runs once, at the default bounds, through ``run_suites``; the
corpus-based criteria read the reports of its single exhaustive sweep over
the default corpora (all connected quivers with up to 4 vertices and 4
arrows with quadratic relations, plus all quivers with up to 3 vertices and
2 arrows with relations up to length three).  Every test prints an explicit
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
from quivalg.verify import SUITES, run_suites

REPORTS = pathlib.Path(__file__).resolve().parent.parent / "reports"


@pytest.fixture(scope="module")
def reports():
    """Every suite's report at the default bounds, by suite name."""
    return {report.suite: report for report in run_suites(SUITES)}


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


def test_criterion_2_main_theorem_monomial_side(reports):
    report = reports["main-theorem"]
    bad = _filtered(report.counterexamples, "domdim>=2 => nakayama shape")
    ok = not bad and report.wall_time_seconds < 600
    _report(ok, f"criterion 2: domdim>=2 <=> Nakayama shape & domdim>=2 on "
                f"{report.counts['algebras']} algebras "
                f"({report.wall_time_seconds:.0f}s with the sweep, {len(bad)} counterexamples)")


def test_criterion_3a_minimal_faithful_iff_domdim_one(reports):
    bad = _filtered(reports["cross-checks"].counterexamples,
                    "domdim>=1 <=> minimal faithful projective-injective exists")
    _report(not bad, f"criterion 3a: domdim>=1 <=> minimal faithful "
                     f"projective-injective exists ({len(bad)} counterexamples)")


def test_criterion_3b_double_centralizer_iff_domdim_two(reports):
    bad = _filtered(reports["cross-checks"].counterexamples, "domdim>=2 <=> double centralizer")
    _report(not bad, f"criterion 3b: domdim>=2 <=> double centraliser "
                     f"({len(bad)} counterexamples)")


def test_criterion_3c_domdim_opposite_invariance(reports):
    bad = _filtered(reports["cross-checks"].counterexamples, "domdim(A) == domdim(op A)")
    _report(not bad, f"criterion 3c: domdim(A) == domdim(opposite A) "
                     f"({len(bad)} counterexamples)")


def test_criterion_4a_domdim_two_implies_qf2(reports):
    bad = _filtered(reports["qf2-chain"].counterexamples, "domdim>=2 => QF-2 on both sides")
    _report(not bad, f"criterion 4a: domdim>=2 => QF-2 both sides "
                     f"({len(bad)} counterexamples)")


def test_criterion_4b_qf2_implies_nakayama_shape(reports):
    bad = _filtered(reports["qf2-chain"].counterexamples, "monomial QF-2 => nakayama shape")
    _report(not bad, f"criterion 4b: monomial QF-2 => Nakayama shape "
                     f"({len(bad)} counterexamples)")


def test_criterion_4c_socle_criterion_matches_oracle(reports):
    bad = _filtered(reports["qf2-chain"].counterexamples,
                    "socle criterion == socle dimension oracle")
    _report(not bad, f"criterion 4c: combinatorial socle criterion == "
                     f"socle dimension oracle ({len(bad)} counterexamples)")


def test_criterion_5_base_algebra_is_nakayama(reports):
    report = reports["cross-checks"]
    bad = _filtered(report.counterexamples, "base algebra fAf is componentwise Nakayama")
    _report(not bad, f"criterion 5: fAf componentwise Nakayama on "
                     f"{report.counts['domdim_ge1']} algebras with domdim>=1 "
                     f"({len(bad)} counterexamples)")


def test_criterion_6_yamagata_biconditional(reports):
    report = reports["yamagata"]
    _assert_golden(report)
    ok = report.passed and report.wall_time_seconds < 300
    _report(ok, f"criterion 6: Nakayama(End) <=> allowed summands and QF-2 always, "
                f"{report.counts['candidates']} generator-cogenerators over "
                f"{report.counts['series']} series "
                f"({report.wall_time_seconds:.0f}s, "
                f"{len(report.counterexamples)} counterexamples)")


def test_criterion_7_kupisch_side_set_equality(reports):
    counts = reports["main-theorem"].counts
    # the Kupisch-side counterexamples name a series, the corpus ones a form
    ces = [ce for ce in reports["main-theorem"].counterexamples if "series" in ce]
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


def test_criterion_9_morita_forward(reports):
    report = reports["morita"]
    _assert_golden(report)
    _report(report.passed,
            f"criterion 9: selfinjective series give Nakayama End algebras with "
            f"selfinjective base and domdim>=2, {report.counts['instances']} "
            f"instances ({len(report.counterexamples)} counterexamples)")


def test_criterion_10_structural_oracles(reports):
    counts = reports["cross-checks"].counts
    ces = [ce for ce in reports["cross-checks"].counterexamples if "canonical_form" not in ce]
    ok = (not ces and counts["kupisch_2_3"] == 7
          and counts["loop_algebras_1_1_3"] == 3)
    _report(ok, f"criterion 10: Kupisch roundtrips and selfinjectivity oracle over "
                f"{counts['kupisch_series']} series; 7 series at (2,3); "
                f"3 one-loop algebras ({len(ces)} counterexamples)")


def test_main_theorem_report_is_golden(reports):
    _assert_golden(reports["main-theorem"])


def test_qf2_chain_report_is_golden(reports):
    _assert_golden(reports["qf2-chain"])


def test_cross_checks_report_is_golden(reports):
    _assert_golden(reports["cross-checks"])
