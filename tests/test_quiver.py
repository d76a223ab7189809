import pytest
from hypothesis import given, settings, strategies as st

from presentation_oracles import permute_vertices
from quivalg.errors import DisconnectedQuiverError
from quivalg.quiver import (
    Quiver,
    QuiverShape,
    compose,
    connected_components,
    induced_subquiver,
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
    q = Quiver.from_arrows(3, [("a", 0, 1)])
    comps = connected_components(q)
    assert comps == [[0, 1], [2]]
    sub = induced_subquiver(q, comps[0])
    assert sub.vertex_count == 2 and len(sub.arrows) == 1


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
