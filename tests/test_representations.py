import itertools

import pytest

from module_oracles import (
    annihilator_dimension,
    commutes,
    injective_module,
    is_faithful,
    is_surjective,
    mod_socle,
    radical,
    regular_module,
    simple_module,
    socle_dims,
)
from quivalg.endo import EndomorphismContext
from quivalg.errors import ZeroModuleError
from quivalg.monomial import build
from quivalg.nakayama import KupischSeries, kupisch_to_algebra
from quivalg.quiver import Quiver, QuiverShape
from quivalg.representations import (
    Morphism,
    Representation,
    direct_sum,
    dual_representation,
    hom_space,
    homological_status,
    injective_envelope,
    projective_cover,
    projective_module,
    projective_socle_dims,
    socle,
    top,
)


def a3_linear():
    return kupisch_to_algebra(KupischSeries(QuiverShape.LINEAR, (3, 2, 1)))


# -- standard modules ---------------------------------------------------------


def test_projective_dims(branching_algebra):
    assert projective_module(branching_algebra, 0).dims == (1, 1, 0, 0, 1)
    assert projective_module(branching_algebra, 1).dims == (0, 1, 0, 1, 1)


def test_injective_dims(branching_algebra):
    # dual basis of the paths into the vertex
    assert injective_module(branching_algebra, 3).dims == (0, 1, 1, 1, 0)
    assert injective_module(branching_algebra, 4).dims == (1, 1, 0, 0, 1)


def test_simple_module(branching_algebra):
    s = simple_module(branching_algebra, 2)
    assert s.dims == (0, 0, 1, 0, 0)
    assert all(not any(m) for m in s.maps)


def test_projective_satisfies_relations(branching_algebra):
    for v in range(5):
        p = projective_module(branching_algebra, v)
        for rel in branching_algebra.relations:
            action = p.path_action(rel)
            assert not any(action)


def test_constructors_reject_wrong_shapes(a2):
    # a2 has one arrow, vertex 0 -> vertex 1; every space of P_0 has dim 1
    Representation(a2, (1, 1), [[{0: 1}]])
    p0 = projective_module(a2, 0)
    Morphism(p0, p0, [[{0: 1}], [{0: 1}]])
    for maps in ([[{0: 1}, {}]], [[{1: 1}]]):  # two rows; a column past the target
        with pytest.raises(ValueError, match="arrow 'a0' has the wrong shape"):
            Representation(a2, (1, 1), maps)
    for maps in ([[{0: 1}], []], [[{0: 1}], [{1: 1}]]):  # no row; a column past the target
        with pytest.raises(ValueError, match="vertex map at 1 has the wrong shape"):
            Morphism(p0, p0, maps)


# -- socle / top / radical ------------------------------------------------------


def test_socle_examples(branching_algebra):
    s, incl = socle(projective_module(branching_algebra, 1))
    assert s.dims == (0, 0, 0, 1, 1)
    assert incl.is_injective()
    sv = simple_module(branching_algebra, 3)
    assert socle(sv)[0].dims == sv.dims


def test_top_examples(branching_algebra):
    t, pr = top(projective_module(branching_algebra, 0))
    assert t.dims == (1, 0, 0, 0, 0)
    assert is_surjective(pr)


def test_socle_includes_loops(dual_numbers):
    p = projective_module(dual_numbers, 0)
    assert p.dims == (2,)
    assert socle(p)[0].dims == (1,)


def test_rank_socles_with_a_loop(dual_numbers):
    """K[x]/(x^2): x kills x alone, so each socle is the line of x."""
    assert projective_socle_dims(dual_numbers, 0) == (1,)
    assert dual_numbers.socle_dims(0) == (1,)
    assert socle_dims(regular_module(dual_numbers)) == (1,)
    assert socle_dims(injective_module(dual_numbers, 0)) == (1,)
    cube = kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (3,)))  # K[x]/(x^3)
    assert projective_socle_dims(cube, 0) == cube.socle_dims(0) == (1,)


def test_rank_socles_with_parallel_arrows():
    """Kronecker quiver a, b: 0 -> 1.  P_0 has basis e_0, a, b and socle
    spanned by a and b; I_1 = D(A e_1) has dims (2, 1) and simple socle."""
    kronecker = build(Quiver.from_arrows(2, [("a", 0, 1), ("b", 0, 1)]), [])
    assert projective_socle_dims(kronecker, 0) == kronecker.socle_dims(0) == (0, 2)
    assert projective_socle_dims(kronecker, 1) == kronecker.socle_dims(1) == (0, 1)
    assert socle_dims(projective_module(kronecker, 0)) == (0, 2)
    i1 = injective_module(kronecker, 1)
    assert i1.dims == (2, 1) and socle_dims(i1) == socle(i1)[0].dims == (0, 1)
    assert socle_dims(injective_module(kronecker, 0)) == (1, 0)


def test_radical_is_arrow_image_span(branching_algebra):
    p = projective_module(branching_algebra, 0)
    r, incl = radical(p)
    assert r.dims == (0, 1, 0, 0, 1)
    assert incl.is_injective()


# -- envelopes and covers --------------------------------------------------------


def test_envelope_of_simple(branching_algebra):
    env, emb, vertices = injective_envelope(simple_module(branching_algebra, 4))
    assert vertices == (4,)
    assert env.total_dim == 3
    assert env.dims == injective_module(branching_algebra, 4).dims
    assert emb.is_injective()


def test_envelope_of_injective_is_itself(branching_algebra):
    m = injective_module(branching_algebra, 3)
    env, emb, vertices = injective_envelope(m)
    assert vertices == (3,)
    assert env.dims == m.dims
    assert emb.is_isomorphism()


def test_envelope_of_regular_a2(a2):
    env, emb, vertices = injective_envelope(regular_module(a2))
    assert vertices == (1, 1)
    assert env.dims == (2, 2)
    assert emb.is_injective()
    s, _ = socle(env)
    assert s.dims == socle(regular_module(a2))[0].dims


def test_cover_examples(branching_algebra, a2):
    m = projective_module(branching_algebra, 1)
    cov, pr, vertices = projective_cover(m)
    assert cov.dims == m.dims and pr.is_isomorphism() and vertices == (1,)
    cov, pr, vertices = projective_cover(simple_module(branching_algebra, 0))
    assert cov.total_dim == 3 and is_surjective(pr) and vertices == (0,)
    # over the two-vertex chain the injective at the sink is projective
    i2 = injective_module(a2, 1)
    cov, pr, vertices = projective_cover(i2)
    assert vertices == (0,)
    assert cov.dims == projective_module(a2, 0).dims
    assert pr.is_isomorphism()


def test_envelope_cover_reject_zero(branching_algebra):
    zero = mod_socle(simple_module(branching_algebra, 0))
    assert zero.is_zero
    with pytest.raises(ZeroModuleError):
        injective_envelope(zero)
    with pytest.raises(ZeroModuleError):
        projective_cover(zero)
    with pytest.raises(ZeroModuleError):
        homological_status(zero)


def test_top_and_socle_preserved(branching_algebra):
    for v in range(5):
        m = injective_module(branching_algebra, v)
        cov, _, _ = projective_cover(m)
        assert top(cov)[0].dims == top(m)[0].dims
        env, _, _ = injective_envelope(m)
        assert socle(env)[0].dims == socle(m)[0].dims


# -- homological status -----------------------------------------------------------


def test_status_examples(branching_algebra):
    assert homological_status(projective_module(branching_algebra, 0)) == (True, True)
    assert homological_status(projective_module(branching_algebra, 1)) == (True, False)


def test_status_semisimple(semisimple):
    assert homological_status(simple_module(semisimple, 0)) == (True, True)


def is_isomorphic(m, n):
    return EndomorphismContext([m, n]).is_isomorphic(0, 1)


def test_projective_injective_pairing(branching_algebra):
    assert is_isomorphic(projective_module(branching_algebra, 0),
                         injective_module(branching_algebra, 4))
    assert is_isomorphic(projective_module(branching_algebra, 2),
                         injective_module(branching_algebra, 3))


# -- quotients ---------------------------------------------------------------------


def test_mod_socle_examples(branching_algebra, dual_numbers):
    assert mod_socle(simple_module(branching_algebra, 0)).is_zero
    p = projective_module(dual_numbers, 0)
    q = mod_socle(p)
    assert q.total_dim == 1
    a3 = a3_linear()
    q = mod_socle(injective_module(a3, 2))
    assert q.dims == injective_module(a3, 1).dims
    assert is_isomorphic(q, injective_module(a3, 1))


def test_socle_layers_fill_module(branching_algebra):
    for v in range(5):
        m = projective_module(branching_algebra, v)
        layers = []
        current = m
        while not current.is_zero:
            layers.append(socle(current)[0].total_dim)
            current = mod_socle(current)
        assert sum(layers) == m.total_dim


# -- hom spaces --------------------------------------------------------------------


def test_yoneda_dimension(branching_algebra):
    for v in range(5):
        for w in range(5):
            n = projective_module(branching_algebra, w)
            assert len(hom_space(projective_module(branching_algebra, v), n)) == n.dims[v]


def test_hom_examples(a2, branching_algebra):
    p0, p1 = projective_module(a2, 0), projective_module(a2, 1)
    assert len(hom_space(p0, p1)) == 0
    s = simple_module(branching_algebra, 2)
    assert len(hom_space(s, s)) == 1


def test_hom_morphisms_commute(branching_algebra):
    m = projective_module(branching_algebra, 1)
    n = injective_module(branching_algebra, 3)
    morphisms = hom_space(m, n)
    assert morphisms and all(commutes(f) for f in morphisms)


# -- duality ------------------------------------------------------------------------


def test_duality_swaps_projective_injective(branching_algebra, cyclic_32):
    for a in (branching_algebra, cyclic_32):
        for v in range(a.quiver.vertex_count):
            m = projective_module(a, v)
            status = homological_status(m)
            dual_status = homological_status(dual_representation(m))
            assert status.is_injective == dual_status.is_projective
            assert status.is_projective == dual_status.is_injective


def test_exactness_of_envelope_sequence(branching_algebra):
    for v in range(5):
        n = simple_module(branching_algebra, v)
        env, emb, _ = injective_envelope(n)
        from quivalg.representations import quotient_by
        coker, _ = quotient_by(env, emb.vertex_maps)
        for w in range(5):
            assert env.dims[w] == n.dims[w] + coker.dims[w]


# -- faithfulness --------------------------------------------------------------------


def test_faithfulness_examples(branching_algebra, a2):
    assert is_faithful(regular_module(branching_algebra))
    m = direct_sum([projective_module(branching_algebra, 0),
                    projective_module(branching_algebra, 2)])
    assert is_faithful(m)
    assert not is_faithful(simple_module(a2, 0))
    # the annihilator of the simple at the source is spanned by e_1 and the arrow
    assert annihilator_dimension(simple_module(a2, 0)) == 2


def test_faithful_matches_suffix_shortcut(branching_algebra, cyclic_32, a2, a3_full):
    from quivalg.homological import _suffix_faithful
    for a in (branching_algebra, cyclic_32, a2, a3_full):
        n = a.quiver.vertex_count
        for r in range(1, n + 1):
            for verts in itertools.combinations(range(n), r):
                m = direct_sum([projective_module(a, v) for v in verts])
                assert is_faithful(m) == _suffix_faithful(a, verts)
