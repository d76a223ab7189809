"""The reference computations, on hand-worked cases and against quivalg."""

import pytest

import reference as ref
from quivalg import enumeration, homological, monomial, nakayama, representations
from quivalg.quiver import QuiverShape


def series(ks):
    return list(ks.lengths), ks.shape is QuiverShape.CYCLIC


@pytest.mark.parametrize("lengths, cyclic, expected", [
    ([2], True, ("infinite", 0)),        # dual numbers
    ([2, 1], False, ("finite", 1)),
    ([2, 2, 1], False, ("finite", 2)),
    ([1], False, ("infinite", 0)),       # the field
    ([3, 3, 3], True, ("infinite", 0)),  # selfinjective
    ([2] * 13 + [1], False, ("at_least", 12)),
])
def test_nakayama_domdim_hand_cases(lengths, cyclic, expected):
    assert ref.nakayama_domdim(lengths, cyclic, 12) == expected


def test_nakayama_domdim_cutoff_applies():
    assert ref.nakayama_domdim([2, 2, 1], False, 1) == ("at_least", 1)
    assert ref.nakayama_domdim([2, 2, 1], False, 2) == ("at_least", 2)
    assert ref.nakayama_domdim([2, 2, 1], False, 3) == ("finite", 2)


def test_nakayama_domdim_matches_quivalg_and_marczinzik_bound():
    reached = 0
    all_series = nakayama.enumerate_kupisch(6, 8)
    assert len(all_series) == 664
    for ks in all_series:
        lengths, cyclic = series(ks)
        got = homological.dominant_dimension(nakayama.kupisch_to_algebra(ks), 12)
        expected = ref.nakayama_domdim(lengths, cyclic, 12)
        assert (got.kind, got.value) == expected, ks
        if not ref.is_selfinjective_series(lengths, cyclic):
            assert expected[0] == "finite" and expected[1] <= 2 * len(lengths) - 2, ks
            reached += expected[1] == 2 * len(lengths) - 2
    assert reached > 0


def test_hom_dim_matches_hom_space():
    pairs = 0
    for ks in nakayama.enumerate_kupisch(3, 4):
        lengths, cyclic = series(ks)
        algebra = nakayama.kupisch_to_algebra(ks)
        universe = nakayama.all_uniserial_ids(algebra)
        modules = {u: nakayama.uniserial_module(algebra, *u) for u in universe}
        for a in universe:
            for b in universe:
                got = len(representations.hom_space(modules[a], modules[b]))
                assert got == ref.hom_dim(a, b, len(lengths), cyclic), (ks, a, b)
                pairs += 1
    assert pairs == 966


def test_summand_sets_match_quivalg():
    for ks in nakayama.enumerate_kupisch(4, 5):
        lengths, cyclic = series(ks)
        algebra = nakayama.kupisch_to_algebra(ks)
        assert ref.allowed_summands(lengths, cyclic) == set(nakayama.allowed_summand_ids(algebra))
        assert ref.mandatory_summands(lengths, cyclic) == set(nakayama.mandatory_summand_ids(algebra))


def test_envelope_dim_matches_first_coresolution_term():
    for ks in nakayama.enumerate_kupisch(4, 5):
        lengths, cyclic = series(ks)
        core = homological.injective_coresolution(nakayama.kupisch_to_algebra(ks), 1)
        assert core.terms[0].total_dim == ref.envelope_dim(lengths, cyclic), ks


def test_path_counts_hand_cases():
    assert ref.path_counts(1, [(0, 0)], [(0, 0, 0)]) == [3]
    assert ref.path_counts(3, [(0, 1), (1, 2)], []) == [3, 2, 1]
    assert ref.path_counts(3, [(0, 1), (1, 2)], [(0, 1)]) == [2, 2, 1]
    n, arrows, relations = ref.series_algebra([3, 3, 2], True)
    assert ref.path_counts(n, arrows, relations) == [3, 3, 2]


def test_path_counts_match_algebra_dimension():
    for algebra in enumeration.enumerate_monomial_algebras(enumeration.CorpusBounds(3, 2, 3)):
        arrows = [(a.source, a.target) for a in algebra.quiver.arrows]
        relations = [r.arrows for r in algebra.relations]
        assert sum(ref.path_counts(algebra.quiver.vertex_count, arrows, relations)) == algebra.dimension


def test_series_algebra_matches_kupisch_to_algebra():
    for ks in nakayama.enumerate_kupisch(4, 5):
        lengths, cyclic = series(ks)
        n, arrows, relations = ref.series_algebra(lengths, cyclic)
        algebra = nakayama.kupisch_to_algebra(ks)
        assert arrows == [(a.source, a.target) for a in algebra.quiver.arrows]
        built = monomial.MonomialAlgebra(algebra.quiver, tuple(
            algebra.quiver.path_from_indices(r) for r in relations))
        assert built.dimension == sum(lengths) == algebra.dimension
        assert ref.series_text(lengths, cyclic) == str(ks.canonical())
