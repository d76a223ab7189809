import itertools

import pytest

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
from quivalg.monomial import MonomialAlgebra, build
from quivalg.quiver import Path, Quiver, is_connected, permute_vertices


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


def test_canonical_form_distinguishes_relation_lengths():
    q = Quiver.from_arrows(1, [("x", 0, 0)])
    a2 = build(q, [q.path(["x", "x"])])
    a3 = build(q, [q.path(["x", "x", "x"])])
    assert canonical_form(a2) != canonical_form(a3)


def test_canonical_form_identifies_orientations():
    qa = Quiver.from_arrows(2, [("a", 0, 1)])
    qb = Quiver.from_arrows(2, [("a", 1, 0)])
    assert canonical_form(build(qa, [])) == canonical_form(build(qb, []))


def test_canonical_form_handles_parallel_arrow_swaps():
    q = Quiver.from_arrows(1, [("x", 0, 0), ("y", 0, 0)])
    rx = build(q, [q.path(["x", "x"]), q.path(["x", "y"]),
                   q.path(["y", "x"]), q.path(["y", "y", "y"])])
    ry = build(q, [q.path(["y", "y"]), q.path(["y", "x"]),
                   q.path(["x", "y"]), q.path(["x", "x", "x"])])
    assert canonical_form(rx) == canonical_form(ry)


def test_canonical_form_invariant_under_relabeling(branching_algebra):
    base = canonical_form(branching_algebra)
    for perm in itertools.permutations(range(5)):
        q = permute_vertices(branching_algebra.quiver, list(perm))
        rels = tuple(Path(perm[r.source], perm[r.target], r.arrows)
                     for r in branching_algebra.relations)
        assert canonical_form(MonomialAlgebra(q, rels)) == base


def test_stream_has_no_duplicates_and_valid_members():
    seen = set()
    for algebra in enumerate_monomial_algebras(CorpusBounds(2, 2, 2)):
        form = canonical_form(algebra)
        assert form not in seen
        seen.add(form)
        assert is_connected(algebra.quiver)
        assert algebra.dimension >= 1
    assert len(seen) >= 10


def test_branching_algebra_is_in_its_corpus(branching_algebra):
    target = canonical_form(branching_algebra)
    assert any(cached_canonical_form(a) == target
               for a in enumerate_monomial_algebras(CorpusBounds(5, 4, 2)))


def test_stream_computes_each_canonical_form_once(monkeypatch):
    from quivalg import enumeration
    calls = []
    real = enumeration.canonical_form
    monkeypatch.setattr(enumeration, "canonical_form", lambda a: calls.append(a) or real(a))
    algebras = list(enumerate_monomial_algebras(CorpusBounds(2, 2, 2)))
    streamed = len(calls)
    assert [cached_canonical_form(a) for a in algebras] == [real(a) for a in algebras]
    assert len(calls) == streamed


def test_stream_is_the_union_over_quivers():
    bounds = CorpusBounds(2, 2, 3)
    per_quiver = [a for q in connected_quivers(2, 2) for a in algebras_over(q, 3)]
    assert per_quiver == list(enumerate_monomial_algebras(bounds))
