import pytest
from hypothesis import given, settings, strategies as st

from quivalg.errors import InvalidKupischError, NotNakayamaError
from quivalg.homological import is_selfinjective
from quivalg.monomial import build
from quivalg.nakayama import (
    KupischSeries,
    algebra_to_kupisch,
    allowed_summand_ids,
    enumerate_kupisch,
    gen_cogen_candidate_ids,
    injective_uniserial_id,
    is_selfinjective_kupisch,
    kupisch_to_algebra,
    parse_kupisch,
    uniserial_module,
)
from quivalg.quiver import Quiver, QuiverShape
from quivalg.representations import socle, top


def test_invariants_enforced():
    with pytest.raises(InvalidKupischError):
        KupischSeries(QuiverShape.LINEAR, (2, 2))  # must end in 1
    with pytest.raises(InvalidKupischError):
        KupischSeries(QuiverShape.LINEAR, (4, 2, 1))  # drops by more than 1
    with pytest.raises(InvalidKupischError):
        KupischSeries(QuiverShape.CYCLIC, (2, 1))  # cyclic lengths >= 2
    with pytest.raises(InvalidKupischError):
        KupischSeries(QuiverShape.CYCLIC, (4, 2))  # successor >= c - 1
    KupischSeries(QuiverShape.LINEAR, (3, 2, 1))
    KupischSeries(QuiverShape.CYCLIC, (3, 2))


def test_parse_and_format():
    ks = parse_kupisch("cyclic:3,2")
    assert ks == KupischSeries(QuiverShape.CYCLIC, (3, 2))
    assert str(ks) == "cyclic:3,2"
    assert parse_kupisch(" linear: 2 , 1 ") == KupischSeries(QuiverShape.LINEAR, (2, 1))
    with pytest.raises(InvalidKupischError):
        parse_kupisch("spiral:2,1")
    with pytest.raises(InvalidKupischError):
        parse_kupisch("linear:a,b")


def test_canonical_rotation():
    ks = KupischSeries(QuiverShape.CYCLIC, (2, 3))
    assert ks.canonical().lengths == (3, 2)
    lin = KupischSeries(QuiverShape.LINEAR, (2, 1))
    assert lin.canonical() is lin


def test_kupisch_to_algebra_examples():
    a = kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (3, 2)))
    assert len(a.relations) == 1
    rel = a.relations[0]
    assert rel.length == 2 and rel.source == 1 and rel.target == 1
    a = kupisch_to_algebra(KupischSeries(QuiverShape.LINEAR, (2, 1)))
    assert a.relations == () and a.dimension == 3
    a = kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (2, 2)))
    assert len(a.relations) == 2 and a.dimension == 4


def test_projective_dimensions_match_series():
    for ks in enumerate_kupisch(4, 5):
        a = kupisch_to_algebra(ks)
        dims = sorted(len(a.paths_from(v)) for v in range(ks.vertex_count))
        assert dims == sorted(ks.lengths)


def test_algebra_to_kupisch_examples(branching_algebra, a2, cyclic_32):
    assert algebra_to_kupisch(branching_algebra) is None
    assert algebra_to_kupisch(a2) == KupischSeries(QuiverShape.LINEAR, (2, 1))
    assert algebra_to_kupisch(cyclic_32) == KupischSeries(QuiverShape.CYCLIC, (3, 2))


def test_roundtrip_all_series():
    for ks in enumerate_kupisch(4, 4):
        assert algebra_to_kupisch(kupisch_to_algebra(ks)) == ks


def test_roundtrip_under_rotation():
    # a relabeled cyclic algebra normalizes back to the canonical rotation
    q = Quiver.from_arrows(2, [("a", 1, 0), ("b", 0, 1)])
    a = build(q, [q.path(["a", "b"])])  # relation through vertex 1
    ks = algebra_to_kupisch(a)
    assert ks == KupischSeries(QuiverShape.CYCLIC, (3, 2))


def test_uniserial_construction(cyclic_32):
    u = uniserial_module(cyclic_32, 0, 3)
    assert u.total_dim == 3
    assert [v for v, d in enumerate(top(u)[0].dims) if d] == [0]
    assert socle(u)[0].total_dim == 1
    assert top(u)[0].total_dim == 1
    with pytest.raises(ValueError):
        uniserial_module(cyclic_32, 1, 3)  # projective at 1 has length 2


def test_uniserial_wraps_around_cycle():
    a = kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (4, 4, 4)))
    u = uniserial_module(a, 0, 4)
    assert u.dims == (2, 1, 1)
    assert socle(u)[0].total_dim == 1


def test_injective_ids(cyclic_32, a3_full):
    # socle at v, length = number of paths into v, top at the farthest source
    assert injective_uniserial_id(cyclic_32, 0) == (0, 3)
    assert injective_uniserial_id(cyclic_32, 1) == (0, 2)
    assert injective_uniserial_id(a3_full, 2) == (0, 3)
    assert injective_uniserial_id(a3_full, 0) == (0, 1)


def test_allowed_summands_examples(dual_numbers, a3_full, semisimple):
    assert allowed_summand_ids(dual_numbers) == ((0, 1), (0, 2))
    assert allowed_summand_ids(a3_full) == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 1))
    assert allowed_summand_ids(semisimple) == ((0, 1),)


def test_allowed_summands_are_uniserial_with_simple_ends(a3_full, cyclic_32):
    for algebra in (a3_full, cyclic_32):
        for t, l in allowed_summand_ids(algebra):
            u = uniserial_module(algebra, t, l)
            assert socle(u)[0].total_dim == 1
            assert top(u)[0].total_dim == 1


def test_allowed_summands_rejects_non_nakayama(branching_algebra):
    with pytest.raises(NotNakayamaError):
        allowed_summand_ids(branching_algebra)


def test_gen_cogen_candidates(dual_numbers, a3_full, semisimple):
    assert gen_cogen_candidate_ids(a3_full) == [
        ((0, 1), (0, 2), (0, 3), (1, 2), (2, 1))]
    cands = gen_cogen_candidate_ids(dual_numbers)
    assert sorted(cands) == sorted([((0, 2),), ((0, 1), (0, 2))])
    assert gen_cogen_candidate_ids(semisimple) == [((0, 1),)]


def test_gen_cogen_candidates_contain_projectives_and_injectives(cyclic_32):
    from quivalg.nakayama import mandatory_summand_ids
    mandatory = set(mandatory_summand_ids(cyclic_32))
    for cand in gen_cogen_candidate_ids(cyclic_32, full_universe=True):
        assert mandatory <= set(cand)


def test_enumerate_kupisch_examples():
    got = [str(ks) for ks in enumerate_kupisch(2, 3)]
    assert got == ["linear:1", "linear:2,1", "cyclic:2", "cyclic:3",
                   "cyclic:2,2", "cyclic:3,2", "cyclic:3,3"]
    assert [str(ks) for ks in enumerate_kupisch(1, 1)] == ["linear:1"]


def test_enumerate_kupisch_all_valid():
    for ks in enumerate_kupisch(4, 4):
        kupisch_to_algebra(ks)  # must not raise
        assert ks.canonical() == ks


def test_selfinjective_kupisch():
    assert is_selfinjective_kupisch(KupischSeries(QuiverShape.CYCLIC, (2, 2)))
    assert not is_selfinjective_kupisch(KupischSeries(QuiverShape.CYCLIC, (3, 2)))
    assert is_selfinjective_kupisch(KupischSeries(QuiverShape.LINEAR, (1,)))
    assert not is_selfinjective_kupisch(KupischSeries(QuiverShape.LINEAR, (2, 1)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(enumerate_kupisch(3, 4)))
def test_selfinjective_matches_homological_oracle(ks):
    assert is_selfinjective_kupisch(ks) == is_selfinjective(kupisch_to_algebra(ks))
