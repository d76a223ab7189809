import itertools

import pytest
from hypothesis import given, settings, strategies as st

import presentation_oracles as oracle
from quivalg.cli import paper_example_text, parse_algebra
from quivalg.enumeration import CorpusBounds, _paths_by_level, enumerate_monomial_algebras
from quivalg.errors import BadRelationError, DisconnectedQuiverError, NotAdmissibleError
from quivalg.monomial import MonomialAlgebra, _reduce_relations, build
from quivalg.nakayama import kupisch_to_algebra, parse_kupisch
from quivalg.quiver import Quiver
from quivalg.representations import projective_module, socle


def brute_force_basis(quiver, relations, max_len=10):
    """Independent oracle: enumerate all paths up to max_len and drop those
    containing a forbidden factor."""
    forbidden = [r.arrows for r in relations]

    def clean(seq):
        return not any(seq[k:k + len(f)] == f
                       for f in forbidden for k in range(len(seq) - len(f) + 1))

    found = {(v, ()) for v in range(quiver.vertex_count)}
    frontier = [(v, ()) for v in range(quiver.vertex_count)]
    for _ in range(max_len):
        nxt = []
        for v, seq in frontier:
            for ai in quiver.out_arrows[v]:
                ext = seq + (ai,)
                if clean(ext):
                    tgt = quiver.arrows[ai].target
                    nxt.append((tgt, ext))
                    found.add((tgt, ext))
        frontier = nxt
    return found


def test_basis_of_branching_example(branching_algebra):
    a = branching_algebra
    expected = brute_force_basis(a.quiver, a.relations)
    assert len(expected) == 11
    assert a.dimension == 11
    assert {(p.target, p.arrows) for p in a.basis} == expected
    names = {oracle.path_name(a.quiver, p) for p in a.basis}
    assert {"e0", "e1", "e2", "e3", "e4", "a1", "a2", "a3", "a4"} <= names
    assert "a1*a4" in names and "a2*a3" in names
    assert "a1*a3" not in names and "a2*a4" not in names


def test_one_loop_square_zero():
    q = Quiver.from_arrows(1, [("x", 0, 0)])
    a = build(q, [q.path(["x", "x"])])
    assert a.dimension == 2


def test_free_loop_not_admissible():
    q = Quiver.from_arrows(1, [("x", 0, 0)])
    with pytest.raises(NotAdmissibleError):
        build(q, [])


def test_bad_relation_length():
    q = Quiver.from_arrows(2, [("a", 0, 1)])
    with pytest.raises(BadRelationError):
        build(q, [q.path(["a"])])


def test_relation_with_negative_arrow_indices_rejected():
    q = Quiver.from_arrows(3, [("a", 0, 1), ("b", 1, 2)])
    rel = q.path(["a", "b"])
    assert build(q, [rel]).dimension == 5
    with pytest.raises(BadRelationError, match="not a path of the quiver"):
        build(q, [type(rel)(0, 2, (-2, -1))])


def test_disconnected_rejected():
    q = Quiver.from_arrows(2, [])
    with pytest.raises(DisconnectedQuiverError):
        build(q, [])


# one loop, two loops, a loop plus an arrow, parallel arrows closed into a
# 2-cycle, a 2-cycle and a 3-cycle; in the last shape the only cycle is a
# loop on the branch out of vertex 0 that the search pops last
ADMISSIBILITY_QUIVERS = (
    Quiver.from_arrows(1, [("x", 0, 0)]),
    Quiver.from_arrows(1, [("x", 0, 0), ("y", 0, 0)]),
    Quiver.from_arrows(2, [("x", 0, 0), ("a", 0, 1)]),
    Quiver.from_arrows(2, [("a", 0, 1), ("b", 0, 1), ("c", 1, 0)]),
    Quiver.from_arrows(2, [("a", 0, 1), ("b", 1, 0)]),
    Quiver.from_arrows(3, [("a", 0, 1), ("b", 1, 2), ("c", 2, 0)]),
    Quiver.from_arrows(4, [("a", 0, 1), ("b", 0, 2), ("c", 0, 3), ("x", 1, 1)]),
)


def test_basis_search_decides_admissibility_as_the_cycle_search():
    """Over every set of at most three paths of length 2 or 3 on small
    quivers, the basis search rejects exactly the presentations that the
    former cycle search rejects, with its message, and otherwise finds the
    brute-force basis."""
    checked = rejected = 0
    for q in ADMISSIBILITY_QUIVERS:
        levels = _paths_by_level(q, 3)
        paths = [q.path_from_indices(w) for w in levels[2] + levels[3]]
        for rels in itertools.chain.from_iterable(
                itertools.combinations(paths, k) for k in range(4)):
            try:
                oracle.check_admissible(q, rels)
            except NotAdmissibleError as err:
                with pytest.raises(NotAdmissibleError) as got:
                    build(q, rels)
                assert str(got.value) == str(err)
                rejected += 1
            else:
                a = build(q, rels)
                assert {(p.target, p.arrows) for p in a.basis} == brute_force_basis(q, rels)
            checked += 1
    assert (checked, rejected) == (566, 379)


def test_multiply_examples(branching_algebra):
    a = branching_algebra
    q = a.quiver
    assert a.multiply(q.path(["a1"]), q.path(["a3"])) is None  # in the ideal
    assert a.multiply(q.trivial_path(0), q.path(["a1"])) == q.path(["a1"])
    assert a.multiply(q.path(["a1"]), q.path(["a4"])) == q.path(["a1", "a4"])
    assert a.multiply(q.path(["a1"]), q.path(["a2"])) is None  # incomposable


def test_multiply_requires_basis_elements(branching_algebra):
    q = branching_algebra.quiver
    with pytest.raises(ValueError):
        branching_algebra.multiply(q.path(["a1", "a3"]), q.trivial_path(3))


def test_associativity_exhaustive(dual_numbers, cyclic_32):
    for a in (dual_numbers, cyclic_32):
        for p, q, r in itertools.product(a.basis, repeat=3):
            left = a.multiply(p, q)
            left = a.multiply(left, r) if left is not None else None
            right = a.multiply(q, r)
            right = a.multiply(p, right) if right is not None else None
            assert left == right


def test_opposite_of_branching_example(branching_algebra):
    opp = branching_algebra.opposite()
    arrows = {(a.name, a.source, a.target) for a in opp.quiver.arrows}
    assert arrows == {("a1", 1, 0), ("a2", 1, 2), ("a3", 3, 1), ("a4", 4, 1)}
    rel_names = {oracle.path_name(opp.quiver, r) for r in opp.relations}
    assert rel_names == {"a3*a1", "a4*a2"}


def test_opposite_is_involution(branching_algebra, a2, dual_numbers):
    for a in (branching_algebra, a2, dual_numbers):
        assert a.opposite().opposite() is a
        assert a.opposite().opposite() == a


@pytest.fixture(scope="module")
def presentations():
    """Three small corpora, the paper example and Kupisch series of up to
    14 vertices."""
    series = ["linear:10,9,8,7,6,5,4,3,2,1", "cyclic:4,4,4,5,5,4,3,3",
              "linear:" + ",".join(["3"] * 12 + ["2", "1"]), "cyclic:" + ",".join(["2"] * 14)]
    algebras = [a for bounds in (CorpusBounds(3, 3, 2), CorpusBounds(2, 2, 3), CorpusBounds(1, 2, 3))
                for a in enumerate_monomial_algebras(bounds)]
    algebras += [parse_algebra(paper_example_text())] + [kupisch_to_algebra(parse_kupisch(s)) for s in series]
    assert max(a.quiver.vertex_count for a in algebras) == 14
    return algebras


def test_opposite_matches_the_full_construction(presentations):
    """The reversed basis equals what the search and enumeration find over
    the reversed presentation, in the same order and with the same index and
    products, over small corpora, the paper example and Kupisch series."""
    for a in presentations:
        opp, expected = a.opposite(), oracle.opposite(a)
        assert opp.quiver == expected.quiver
        assert opp.quiver is a.quiver.reversed  # one per quiver, shared by its algebras
        assert opp.basis == expected.basis
        assert opp.relations == expected.relations
        assert opp._basis_index == expected._basis_index
        for p in opp.basis:
            for arrow in range(len(opp.quiver.arrows)):
                assert opp.extend_by_arrow(p, arrow) == expected.extend_by_arrow(p, arrow)
        assert opp.opposite() is a


def test_path_index_matches_the_basis_scans(presentations):
    """Every reader of the path index against the Path-level scans, for
    every vertex and every (basis path, arrow), on A and on its opposite."""
    for a in presentations:
        for work in (a, a.opposite()):
            q = work.quiver
            for v in range(q.vertex_count):
                assert work.paths_from(v) == oracle.paths_from(work, v)
                assert work.paths_into(v) == oracle.paths_into(work, v)
                maximal = [p for p in oracle.paths_from(work, v)
                           if all(oracle.extend_by_arrow(work, p, b) is None
                                  for b in range(len(q.arrows)))]
                assert work.socle_criterion(v) is (len(maximal) == 1)
            for p in work.basis:
                for arrow in range(len(q.arrows)):
                    assert work.extend_by_arrow(p, arrow) == oracle.extend_by_arrow(work, p, arrow)


def test_projective_modules_match_the_path_oracle(presentations):
    for a in presentations:
        for work in (a, a.opposite()):
            for v in range(work.quiver.vertex_count):
                built, expected = projective_module(work, v), oracle.projective_module(work, v)
                assert built.dims == expected.dims
                assert built.maps == expected.maps


def test_paths_at_a_vertex_outside_the_quiver(branching_algebra):
    for v in (-1, 5):
        assert branching_algebra.paths_from(v) == branching_algebra.paths_into(v) == []
        assert not branching_algebra.socle_criterion(v)


def test_self_opposite_loop():
    q = Quiver.from_arrows(1, [("x", 0, 0)])
    a = build(q, [q.path(["x", "x"])])
    o = a.opposite()
    assert o.dimension == 2 and o == MonomialAlgebra(o.quiver, o.relations)


def test_relation_reduction_gives_canonical_set():
    q = Quiver.from_arrows(1, [("x", 0, 0)])
    a = build(q, [q.path(["x", "x"]), q.path(["x", "x", "x"])])
    b = build(q, [q.path(["x", "x"])])
    assert a.relations == b.relations
    assert a == b


# loops at both vertices and two parallel arrows a, b
REDUCTION_QUIVER = Quiver.from_arrows(2, [("x", 0, 0), ("a", 0, 1), ("b", 0, 1),
                                          ("c", 1, 0), ("y", 1, 1)])


@st.composite
def walks(draw, quiver=REDUCTION_QUIVER):
    arrows = [draw(st.integers(0, len(quiver.arrows) - 1))]
    for _ in range(draw(st.integers(0, 4))):
        arrows.append(draw(st.sampled_from(quiver.out_arrows[quiver.arrows[arrows[-1]].target])))
    return quiver.path_from_indices(arrows)


def test_relation_reduction_drops_nested_factors_and_duplicates():
    q = REDUCTION_QUIVER
    rels = [q.path(["a", "c", "x"]), q.path(["a", "c"]), q.path(["a", "c", "x"]),
            q.path(["b", "y"]), q.path(["x", "b", "y", "c"])]
    assert _reduce_relations(rels) == (q.path(["a", "c"]), q.path(["b", "y"]))
    assert _reduce_relations(rels) == oracle.reduce_relations(rels)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_relation_reduction_matches_pairwise_oracle(data):
    relations = data.draw(st.lists(walks(), max_size=8))
    # add contiguous factors of drawn relations, the whole word included
    for r in data.draw(st.lists(st.sampled_from(relations), max_size=4)) if relations else ():
        i = data.draw(st.integers(0, r.length - 1))
        j = data.draw(st.integers(i + 1, r.length))
        relations.append(REDUCTION_QUIVER.path_from_indices(r.arrows[i:j]))
    relations = data.draw(st.permutations(relations))
    assert _reduce_relations(relations) == oracle.reduce_relations(relations)


def test_socle_criterion_against_representation_oracle(branching_algebra):
    a = branching_algebra
    expected = {0: True, 1: False, 2: True, 3: True, 4: True}
    for v, want in expected.items():
        assert a.socle_criterion(v) is want
        soc = socle(projective_module(a, v))[0]
        assert a.socle_dims(v) == soc.dims
        assert (soc.total_dim == 1) is want


def test_socle_dims_outside_the_quiver(branching_algebra):
    for v in (-1, 5, 99):
        assert branching_algebra.socle_dims(v) == (0,) * 5
    assert branching_algebra.socle_dims(4) == (0, 0, 0, 0, 1)


def test_socle_criterion_trivial_vertex():
    q = Quiver.from_arrows(1, [])
    a = build(q, [])
    assert a.socle_criterion(0)
    assert a.is_qf2()


def test_is_qf2_sides(branching_algebra, cyclic_32):
    assert not branching_algebra.is_qf2()
    assert not all(branching_algebra.socle_criterion(v) for v in range(5))
    assert cyclic_32.is_qf2()


def _sample_algebras():
    from quivalg.nakayama import KupischSeries, kupisch_to_algebra
    from quivalg.quiver import QuiverShape
    q = Quiver.from_arrows(5, [("a1", 0, 1), ("a2", 2, 1), ("a3", 1, 3), ("a4", 1, 4)])
    return [
        build(q, [q.path(["a1", "a3"]), q.path(["a2", "a4"])]),
        kupisch_to_algebra(KupischSeries(QuiverShape.LINEAR, (2, 1))),
        kupisch_to_algebra(KupischSeries(QuiverShape.LINEAR, (3, 2, 1))),
        kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (3, 2))),
    ]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_qf2_left_is_right_of_opposite(data):
    a = data.draw(st.sampled_from(_sample_algebras()))
    n = a.quiver.vertex_count
    # A e_v has simple socle when exactly one path into v has no nonzero
    # extension on the left
    arrows = [a.quiver.path_from_indices((b,)) for b in range(len(a.quiver.arrows))]
    left = [sum(all(a.multiply(x, p) is None for x in arrows) for p in a.paths_into(v)) == 1
            for v in range(n)]
    assert a.is_qf2() == (all(left) and all(a.socle_criterion(v) for v in range(n)))
    v = data.draw(st.integers(0, n - 1))
    assert left[v] == a.opposite().socle_criterion(v)


def test_nakayama_shaped_monomial_is_qf2(cyclic_32, a2, a3_full):
    for a in (cyclic_32, a2, a3_full):
        assert a.is_qf2()
