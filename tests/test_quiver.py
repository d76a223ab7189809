from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from presentation_oracles import permute_vertices
from quivalg.errors import DisconnectedQuiverError
from quivalg.quiver import (
    Quiver,
    QuiverShape,
    compose,
    degrees_at_most_one,
    is_connected,
    kupisch_walk,
    shape_classify,
)


def paper_quiver():
    return Quiver.from_arrows(5, [("a1", 0, 1), ("a2", 2, 1),
                                  ("a3", 1, 3), ("a4", 1, 4)])


def test_compose_identity_left():
    q = paper_quiver()
    assert compose(q.trivial_path(0), q.path(["a1"])) == q.path(["a1"])
    assert compose(q.path(["a1"]), q.trivial_path(1)) == q.path(["a1"])


def test_compose_chain():
    q = paper_quiver()
    p = compose(q.path(["a1"]), q.path(["a4"]))
    assert p == q.path(["a1", "a4"])
    assert (p.source, p.target, p.length) == (0, 4, 2)


def test_compose_mismatch_is_none():
    q = paper_quiver()
    assert compose(q.path(["a1"]), q.path(["a2"])) is None


def test_shape_examples():
    assert shape_classify(paper_quiver()) is QuiverShape.NOT_NAKAYAMA
    chain = Quiver.from_arrows(2, [("a", 0, 1)])
    assert shape_classify(chain) is QuiverShape.LINEAR
    loop = Quiver.from_arrows(1, [("x", 0, 0)])
    assert shape_classify(loop) is QuiverShape.CYCLIC


def test_shape_needs_connected():
    two_points = Quiver.from_arrows(2, [])
    with pytest.raises(DisconnectedQuiverError):
        shape_classify(two_points)


def test_is_connected():
    assert is_connected(Quiver.from_arrows(1, []))
    assert not is_connected(Quiver.from_arrows(2, []))
    assert is_connected(paper_quiver())


def test_parallel_arrows_are_not_nakayama():
    q = Quiver.from_arrows(2, [("a", 0, 1), ("b", 0, 1)])
    assert shape_classify(q) is QuiverShape.NOT_NAKAYAMA


def test_linear_needs_tree_arrow_count():
    cycle = Quiver.from_arrows(3, [("a", 0, 1), ("b", 1, 2), ("c", 2, 0)])
    assert shape_classify(cycle) is QuiverShape.CYCLIC


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_shape_invariant_under_permutation(data):
    quivers = [
        paper_quiver(),
        Quiver.from_arrows(3, [("a", 0, 1), ("b", 1, 2)]),
        Quiver.from_arrows(3, [("a", 0, 1), ("b", 1, 2), ("c", 2, 0)]),
        Quiver.from_arrows(2, [("a", 0, 1), ("b", 1, 0)]),
        Quiver.from_arrows(4, [("a", 0, 1), ("b", 1, 2), ("c", 1, 3)]),
    ]
    q = data.draw(st.sampled_from(quivers))
    perm = data.draw(st.permutations(range(q.vertex_count)))
    assert shape_classify(permute_vertices(q, list(perm))) is shape_classify(q)


def test_degree_characterization_of_shapes():
    # cyclic: arrows == vertices and every degree exactly one
    for q in [Quiver.from_arrows(2, [("a", 0, 1), ("b", 1, 0)]),
              Quiver.from_arrows(1, [("x", 0, 0)])]:
        assert shape_classify(q) is QuiverShape.CYCLIC
        assert len(q.arrows) == q.vertex_count
    # linear: arrows == vertices - 1 with degree bounds
    for q in [Quiver.from_arrows(1, []), Quiver.from_arrows(3, [("a", 0, 1), ("b", 1, 2)])]:
        assert shape_classify(q) is QuiverShape.LINEAR
        assert len(q.arrows) == q.vertex_count - 1


def test_components_and_induced():
    assert not is_connected(Quiver.from_arrows(3, [("a", 0, 1)]))
    assert is_connected(Quiver.from_arrows(2, [("a", 0, 1)]))
    assert not is_connected(Quiver.from_arrows(3, [("a", 0, 1), ("b", 1, 0)]))
    assert is_connected(Quiver.from_arrows(3, [("a", 0, 1), ("b", 2, 1)]))


def test_path_validation():
    q = paper_quiver()
    with pytest.raises(ValueError):
        q.path(["a1", "a2"])
    assert q.is_valid_path(q.path(["a1", "a3"]))
    assert not q.is_valid_path(type(q.path(["a1"]))(0, 4, (0, 1)))


def test_arrow_indices_outside_the_quiver_are_rejected():
    """A negative index must not wrap round to an arrow from the end."""
    q = Quiver.from_arrows(3, [("a", 0, 1), ("b", 1, 2)])
    path = type(q.path(["a"]))
    for idxs in [(-2, -1), (0, -1), (-1,), (2,), (0, 2)]:
        with pytest.raises(ValueError, match="outside the quiver"):
            q.path_from_indices(idxs)
        assert not q.is_valid_path(path(0, 2, idxs))
    assert q.is_valid_path(path(0, 2, (0, 1)))


def test_kupisch_walk():
    line = Quiver.from_arrows(3, [("a", 2, 0), ("b", 1, 2)])
    assert kupisch_walk(line) == (QuiverShape.LINEAR, [1, 2, 0])
    cycle = Quiver.from_arrows(3, [("a", 0, 2), ("b", 2, 1), ("c", 1, 0)])
    assert kupisch_walk(cycle) == (QuiverShape.CYCLIC, [0, 2, 1])
    assert kupisch_walk(Quiver.from_arrows(1, [])) == (QuiverShape.LINEAR, [0])
    assert kupisch_walk(paper_quiver()) is None


def small_quivers(max_vertices=4, max_arrows=5):
    """Every labelled quiver with at most the given numbers of vertices and
    arrows, parallel arrows told apart only by their names."""
    for n in range(1, max_vertices + 1):
        pairs = [(s, t) for s in range(n) for t in range(n)]
        for k in range(max_arrows + 1):
            for chosen in combinations_with_replacement(pairs, k):
                yield Quiver.from_arrows(n, [(f"a{i}", s, t) for i, (s, t) in enumerate(chosen)])


def components_oracle(quiver):
    """Vertex sets of the undirected components, found by merging the two
    ends of each arrow."""
    comps = [{v} for v in range(quiver.vertex_count)]
    for a in quiver.arrows:
        ends = [c for c in comps if a.source in c or a.target in c]
        comps = [c for c in comps if c not in ends] + [set().union(*ends)]
    return comps


def shape_oracle(quiver, vertices):
    """The shape of the arrows among ``vertices``: LINEAR or CYCLIC when some
    ordering of them has exactly those arrows as its consecutive pairs (the
    closing pair included for a cycle), else NOT_NAKAYAMA."""
    arrows = sorted((a.source, a.target) for a in quiver.arrows
                    if a.source in vertices and a.target in vertices)
    for order in permutations(sorted(vertices)):
        line = sorted(zip(order, order[1:]))
        if arrows == line:
            return QuiverShape.LINEAR
        if arrows == sorted(line + [(order[-1], order[0])]):
            return QuiverShape.CYCLIC
    return QuiverShape.NOT_NAKAYAMA


def test_shape_functions_match_the_brute_force_oracle():
    for count, q in enumerate(small_quivers(), 1):
        comps = components_oracle(q)
        shapes = [shape_oracle(q, c) for c in comps]
        assert is_connected(q) == (len(comps) == 1)
        assert degrees_at_most_one(q) == (QuiverShape.NOT_NAKAYAMA not in shapes)
        if len(comps) == 1:
            assert shape_classify(q) is shapes[0]
        else:
            with pytest.raises(DisconnectedQuiverError):
                shape_classify(q)
        whole = shapes[0] if len(comps) == 1 else shape_oracle(q, set(range(q.vertex_count)))
        walk = kupisch_walk(q)
        assert (walk is None) == (whole is QuiverShape.NOT_NAKAYAMA)
        if walk is not None:
            shape, order = walk
            assert shape is whole and sorted(order) == list(range(q.vertex_count))
            pairs = {(a.source, a.target) for a in q.arrows}
            assert all(step in pairs for step in zip(order, order[1:]))
    assert count == 22483
