import itertools

import pytest
from hypothesis import given, settings, strategies as st

import presentation_oracles as oracle
from quivalg.enumeration import (
    CorpusBounds,
    admissible_relation_sets,
    algebras_over,
    cached_canonical_form,
    canonical_form,
    connected_quivers,
    enumerate_monomial_algebras,
)
from quivalg.errors import NotAdmissibleError
from quivalg.monomial import MonomialAlgebra, _reduce_relations, build
from quivalg.quiver import Arrow, Path, Quiver, is_connected


def test_bounds_validation():
    with pytest.raises(ValueError):
        CorpusBounds(0, 1, 2)
    with pytest.raises(ValueError):
        CorpusBounds(1, 1, 1)


def test_loop_corpus_counts():
    algs = list(enumerate_monomial_algebras(CorpusBounds(1, 1, 3)))
    assert len(algs) == 3
    assert sorted(a.dimension for a in algs) == [1, 2, 3]
    assert len(list(enumerate_monomial_algebras(CorpusBounds(1, 0, 2)))) == 1


def test_connected_quiver_enumeration():
    quivers = connected_quivers(2, 2)
    for q in quivers:
        assert is_connected(q)
    # one-vertex: empty, loop, two loops; two-vertex: single arrow and the
    # four two-arrow configurations up to swapping the vertices
    assert len(quivers) == 3 + 1 + 4


@pytest.mark.parametrize("max_vertices", [1, 2, 3, 4])
def test_connected_quivers_match_the_former_search(max_vertices):
    for max_arrows in range(6):
        assert (connected_quivers(max_vertices, max_arrows)
                == oracle.connected_quivers(max_vertices, max_arrows))


def brute_force_relation_sets(quiver, max_len):
    """Oracle: all factor-antichains whose ideal is admissible, by scanning
    every subset of candidate paths and testing through the builder."""
    candidates = []
    frontier = [((a,), quiver.arrows[a].target) for a in range(len(quiver.arrows))]
    length = 1
    while length < max_len:
        nxt = []
        for seq, tgt in frontier:
            for a in quiver.out_arrows[tgt]:
                nxt.append((seq + (a,), quiver.arrows[a].target))
        candidates.extend(seq for seq, _ in nxt)
        frontier = nxt
        length += 1

    def is_antichain(sets):
        for x, y in itertools.permutations(sets, 2):
            for k in range(len(y) - len(x) + 1):
                if y[k:k + len(x)] == x:
                    return False
        return True

    good = set()
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            if not is_antichain(combo):
                continue
            paths = tuple(quiver.path_from_indices(w) for w in combo)
            try:
                build(quiver, paths)
            except NotAdmissibleError:
                continue
            good.add(tuple(sorted(combo)))
    return good


@pytest.mark.parametrize("arrows", [
    [("x", 0, 0)],
    [("x", 0, 0), ("y", 0, 0)],
])
def test_relation_sets_match_brute_force_loops(arrows):
    quiver = Quiver.from_arrows(1, arrows)
    got = {tuple(sorted(rels)) for rels in admissible_relation_sets(quiver, 3)}
    assert got == brute_force_relation_sets(quiver, 3)


def test_relation_sets_match_brute_force_cycle():
    quiver = Quiver.from_arrows(2, [("a", 0, 1), ("b", 1, 0)])
    got = {tuple(sorted(rels)) for rels in admissible_relation_sets(quiver, 3)}
    assert got == brute_force_relation_sets(quiver, 3)


def test_relation_sets_match_brute_force_chain():
    quiver = Quiver.from_arrows(3, [("a", 0, 1), ("b", 1, 2)])
    got = {tuple(sorted(rels)) for rels in admissible_relation_sets(quiver, 3)}
    assert got == brute_force_relation_sets(quiver, 3)


def form_of(algebra):
    """The canonical form of an algebra's own presentation, computed anew."""
    return canonical_form(algebra.quiver, [r.arrows for r in algebra.relations])


def test_canonical_form_distinguishes_relation_lengths():
    q = Quiver.from_arrows(1, [("x", 0, 0)])
    a2 = build(q, [q.path(["x", "x"])])
    a3 = build(q, [q.path(["x", "x", "x"])])
    assert form_of(a2) != form_of(a3)


def test_canonical_form_identifies_orientations():
    qa = Quiver.from_arrows(2, [("a", 0, 1)])
    qb = Quiver.from_arrows(2, [("a", 1, 0)])
    assert form_of(build(qa, [])) == form_of(build(qb, []))


def test_canonical_form_handles_parallel_arrow_swaps():
    q = Quiver.from_arrows(1, [("x", 0, 0), ("y", 0, 0)])
    rx = build(q, [q.path(["x", "x"]), q.path(["x", "y"]),
                   q.path(["y", "x"]), q.path(["y", "y", "y"])])
    ry = build(q, [q.path(["y", "y"]), q.path(["y", "x"]),
                   q.path(["x", "y"]), q.path(["x", "x", "x"])])
    assert form_of(rx) == form_of(ry)


def test_canonical_form_invariant_under_relabeling(branching_algebra):
    base = form_of(branching_algebra)
    for perm in itertools.permutations(range(5)):
        q = oracle.permute_vertices(branching_algebra.quiver, list(perm))
        rels = tuple(Path(perm[r.source], perm[r.target], r.arrows)
                     for r in branching_algebra.relations)
        assert cached_canonical_form(MonomialAlgebra(q, rels)) == base


def test_stream_has_no_duplicates_and_valid_members():
    seen = set()
    for algebra in enumerate_monomial_algebras(CorpusBounds(2, 2, 2)):
        form = form_of(algebra)
        assert form not in seen
        seen.add(form)
        assert is_connected(algebra.quiver)
        assert algebra.dimension >= 1
    assert len(seen) >= 10


def test_branching_algebra_is_in_its_corpus(branching_algebra):
    target = form_of(branching_algebra)
    assert any(cached_canonical_form(a) == target
               for a in enumerate_monomial_algebras(CorpusBounds(5, 4, 2)))


def test_stream_computes_each_canonical_form_once(monkeypatch):
    from quivalg import enumeration
    calls = []
    real = enumeration.canonical_form
    monkeypatch.setattr(enumeration, "canonical_form",
                        lambda q, rels: calls.append(rels) or real(q, rels))
    algebras = list(enumerate_monomial_algebras(CorpusBounds(2, 2, 2)))
    streamed = len(calls)
    # one form per candidate relation set, and none once an algebra is built
    assert streamed == sum(len(admissible_relation_sets(q, 2)) for q in connected_quivers(2, 2))
    assert [cached_canonical_form(a) for a in algebras] == [
        real(a.quiver, [r.arrows for r in a.relations]) for a in algebras]
    assert len(calls) == streamed


def test_stream_is_the_union_over_quivers():
    bounds = CorpusBounds(2, 2, 3)
    per_quiver = [a for q in connected_quivers(2, 2) for a in algebras_over(q, 3)]
    assert per_quiver == list(enumerate_monomial_algebras(bounds))


def build_every_candidate(bounds):
    """Oracle stream: build the algebra of every admissible relation set and
    keep the first of each class of the former per-algebra canonical form."""
    for quiver in connected_quivers(bounds.max_vertices, bounds.max_arrows):
        seen = set()
        for rels in admissible_relation_sets(quiver, bounds.max_relation_length):
            algebra = build(quiver, [quiver.path_from_indices(w) for w in rels])
            form = oracle.canonical_form(algebra)
            if form not in seen:
                seen.add(form)
                yield algebra, form


@pytest.mark.parametrize("bounds", [(3, 3, 2), (2, 2, 3), (1, 2, 3)])
def test_stream_matches_building_every_candidate(bounds):
    """The stream builds its algebras without the constructor's checks; it
    must give the presentations (relations in order) and the bases that
    the constructor gives, because every relation set is already reduced."""
    bounds = CorpusBounds(*bounds)
    streamed = [(a, cached_canonical_form(a)) for a in enumerate_monomial_algebras(bounds)]
    built = list(build_every_candidate(bounds))
    assert streamed == built
    # __eq__ compares quivers and relations only
    assert [a.basis for a, _ in streamed] == [b.basis for b, _ in built]
    for quiver in connected_quivers(bounds.max_vertices, bounds.max_arrows):
        for rels in admissible_relation_sets(quiver, bounds.max_relation_length):
            paths = tuple(quiver.path_from_indices(w) for w in rels)
            assert _reduce_relations(paths) == paths


ORACLE_ALGEBRAS = [a for bounds in [(3, 3, 2), (2, 2, 3), (1, 3, 2)]
                   for a in enumerate_monomial_algebras(CorpusBounds(*bounds))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_form_invariant_under_random_presentations(data):
    algebra = data.draw(st.sampled_from(ORACLE_ALGEBRAS))
    quiver = algebra.quiver
    perm = data.draw(st.permutations(range(quiver.vertex_count)))
    order = data.draw(st.permutations(range(len(quiver.arrows))))  # new index -> old
    new_index = {old: new for new, old in enumerate(order)}
    shuffled = Quiver(quiver.vertex_count, tuple(
        Arrow(quiver.arrows[old].name, perm[quiver.arrows[old].source],
              perm[quiver.arrows[old].target]) for old in order))
    rels = [tuple(new_index[a] for a in r.arrows) for r in algebra.relations]
    form = canonical_form(shuffled, rels)
    assert form == cached_canonical_form(algebra) == oracle.canonical_form(algebra)
    assert form == oracle.canonical_form(
        build(shuffled, [shuffled.path_from_indices(r) for r in rels]))
