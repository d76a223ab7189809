from itertools import islice

import pytest

from module_oracles import (
    coresolution_oracle,
    flat_table,
    injective_module,
    is_surjective,
    regular_module,
    socle_dims,
)
from quivalg import homological
from quivalg.endo import gabriel_quiver, is_nakayama_algebra
from quivalg.enumeration import CorpusBounds, enumerate_monomial_algebras
from quivalg.errors import DomDimZeroError
from quivalg.homological import (
    DomDim,
    base_algebra,
    dominant_dimension,
    double_centralizer_check,
    injective_coresolution,
    is_selfinjective,
    minimal_faithful_proj_inj,
    projective_injective_vertices,
)
from quivalg.monomial import build
from quivalg.nakayama import KupischSeries, enumerate_kupisch, kupisch_to_algebra
from quivalg.quiver import Quiver, QuiverShape
from quivalg.representations import (
    envelope_dim,
    homological_status,
    projective_module,
    projective_socle_dims,
    quotient_by,
    socle,
)


def test_domdim_value_semantics():
    assert DomDim.finite(1).ge(1) and not DomDim.finite(1).ge(2)
    assert DomDim.at_least(12).ge(12) and not DomDim.at_least(12).ge(13)
    assert DomDim.infinite().ge(10 ** 6)
    assert str(DomDim.finite(0)) == "0"
    assert str(DomDim.at_least(12)) == ">=12"
    assert str(DomDim.infinite()) == "infinity"


def coresolution(algebra, limit=8):
    return list(islice(injective_coresolution(algebra), limit))


def with_oracle(algebra, limit=8):
    """The first terms of the coresolution and of the exact envelope chain,
    after checking that both sum the same I_s in each term and stop
    together."""
    terms, chain = coresolution(algebra, limit), list(islice(coresolution_oracle(algebra), limit))
    assert [t.vertices for t in terms] == [t.vertices for t in chain]
    return terms, chain


def envelopes(chain):
    return [term.envelope[0] for term in chain]


def test_coresolution_a2(a2):
    terms, chain = with_oracle(a2)
    assert [t.dims for t in envelopes(chain)] == [(2, 2), (1, 0)]
    assert [term.projective for term in terms] == [True, False]
    assert homological_status(chain[0].envelope[0]).is_projective
    assert not homological_status(chain[1].envelope[0]).is_projective


def test_coresolution_semisimple(semisimple):
    _, chain = with_oracle(semisimple)
    assert [t.dims for t in envelopes(chain)] == [(1,)]


def test_coresolution_cyclic_32(cyclic_32):
    terms, chain = with_oracle(cyclic_32, 3)
    assert [t.dims for t in envelopes(chain)] == [(4, 2), (2, 1), (1, 1)]
    flags = [homological_status(t).is_projective for t in envelopes(chain)]
    assert flags == [term.projective for term in terms] == [True, True, False]


def test_all_coresolution_terms_injective(branching_algebra, cyclic_32, a2):
    for a in (branching_algebra, cyclic_32, a2):
        for term in envelopes(with_oracle(a, 4)[1]):
            assert homological_status(term).is_injective


def test_embeddings_and_cokernels_are_exact(branching_algebra, cyclic_32, a2):
    for a in (branching_algebra, cyclic_32, a2):
        terms, chain = with_oracle(a, 4)
        for k, term in enumerate(chain):
            env, emb, vertices = term.envelope
            assert emb.target is env and emb.is_injective()
            assert vertices == terms[k].vertices
            coker, pr = quotient_by(env, emb.vertex_maps)
            assert is_surjective(pr)
            if k + 1 < len(chain):
                # the next term embeds the cokernel of this one
                assert chain[k + 1].envelope[1].source == coker
            elif len(chain) < 4:
                assert coker.is_zero


@pytest.mark.parametrize("bounds", [CorpusBounds(3, 3, 2), CorpusBounds(2, 2, 3)])
def test_envelope_dim_matches_built_injectives(bounds):
    """envelope_dim reads dim I_w off the opposite projective that I_w
    dualises; the built injectives must give the same sum, for the socles
    of the P_v and for every simple socle."""
    for algebra in enumerate_monomial_algebras(bounds):
        for work in (algebra, algebra.opposite()):
            n = work.quiver.vertex_count
            socles = [projective_socle_dims(work, v) for v in range(n)]
            socles += [tuple(int(w == u) for w in range(n)) for u in range(n)]
            for soc in socles:
                assert envelope_dim(work, soc) == sum(
                    d * injective_module(work, w).total_dim for w, d in enumerate(soc))


def test_projective_injective_table_matches_oracle():
    """The cached table and selfinjectivity against the elimination oracle,
    for every algebra of a small corpus and its opposite."""
    domdims = set()
    algebras = list(enumerate_monomial_algebras(CorpusBounds(3, 3, 2)))
    assert len(algebras) == 115
    for algebra in algebras:
        for work in (algebra, algebra.opposite()):
            n = work.quiver.vertex_count
            expected = tuple(v for v in range(n)
                             if homological_status(projective_module(work, v)).is_injective)
            assert projective_injective_vertices(work) == expected
            assert is_selfinjective(work) == homological_status(regular_module(work)).is_injective
        domdim = dominant_dimension(algebra)
        # dominant_dimension reads selfinjectivity off the opposite's table
        assert (domdim == DomDim.infinite()) == is_selfinjective(algebra)
        domdims.add(str(domdim))
    assert domdims == {"0", "1", "2", "3", "infinity"}


@pytest.mark.parametrize("bounds,term_count", [(CorpusBounds(3, 3, 2), 752),
                                               (CorpusBounds(2, 2, 3), 464)])
def test_lazy_coresolution_matches_envelope_chain(bounds, term_count):
    """The first four terms, the first decided from socles and the later
    ones from syzygies, against the exact envelope chain, for every algebra
    of a small corpus and its opposite; the socles of the P_v, read off the
    path basis and by the elimination oracle, and the rank socles of the
    cokernels N_1, ..., N_4, against a fresh socle."""
    checked = 0
    for algebra in enumerate_monomial_algebras(bounds):
        for work in (algebra, algebra.opposite()):
            for v in range(work.quiver.vertex_count):
                soc = socle(projective_module(work, v))[0].dims
                assert projective_socle_dims(work, v) == soc
                assert work.socle_dims(v) == soc
            terms, chain = with_oracle(work, 4)
            for term, step in zip(terms, chain):
                assert term.projective == step.projective
                assert socle_dims(step.cokernel) == socle(step.cokernel)[0].dims
            # the generator stops early only at a zero cokernel
            assert len(terms) == 4 or chain[-1].cokernel.is_zero
            checked += len(terms)
    assert checked == term_count


def test_coresolution_builds_envelopes_lazily(monkeypatch, cyclic_32):
    steps = []
    syzygy = homological._syzygy

    def counting(*args):
        steps.append(args)
        return syzygy(*args)

    monkeypatch.setattr(homological, "_syzygy", counting)
    # no projective-injective at all: the first term decides domdim 0
    # without a syzygy, and the regular module is never built
    q = Quiver.from_arrows(3, [("a", 0, 1), ("b", 2, 1)])
    a = build(q, [])
    assert dominant_dimension(a) == DomDim.finite(0)
    assert steps == [] and ("regular",) not in a._cache
    # terms 0 and 1 are projective and term 2 is not: two syzygies, and
    # none past the cutoff-th term
    assert dominant_dimension(cyclic_32) == DomDim.finite(2)
    assert len(steps) == 2
    steps.clear()
    assert dominant_dimension(cyclic_32, cutoff=2) == DomDim.at_least(2)
    assert len(steps) == 1
    # each syzygy is computed only when the term after it is requested
    steps.clear()
    terms = injective_coresolution(cyclic_32)
    next(terms)
    assert steps == []
    next(terms)
    assert len(steps) == 1


def two_loop_algebra():
    """One vertex, two loops, radical square zero."""
    q = Quiver.from_arrows(1, [("x", 0, 0), ("y", 0, 0)])
    return build(q, [q.path(w) for w in (["x", "x"], ["x", "y"], ["y", "x"], ["y", "y"])])


def test_syzygy_loop_matches_envelope_chain_for_eight_terms(branching_algebra):
    """Eight terms, vertices and projective flags, against the exact
    envelope chain, for every Kupisch series with at most five vertices
    and lengths up to six and its opposite, the paper's example and an
    algebra whose multiplicities double."""
    works = [branching_algebra, branching_algebra.opposite(), two_loop_algebra()]
    for ks in enumerate_kupisch(5, 6):
        algebra = kupisch_to_algebra(ks)
        works += [algebra, algebra.opposite()]
    assert len(works) == 335
    for work in works:
        terms, chain = with_oracle(work)
        assert [t.projective for t in terms] == [t.projective for t in chain]
    assert [len(t.vertices) for t in coresolution(two_loop_algebra())] == [
        2, 3, 6, 12, 24, 48, 96, 192]


def test_nakayama_domdim_within_marczinzik_bound():
    """A non-selfinjective Nakayama algebra with n simples has dominant
    dimension at most 2n - 2 (Marczinzik, J. Algebra 2018).  Observed here
    with the default cutoff, above every bound, so it never truncates: every
    such Kupisch series with n <= 6 and lengths up to 8 keeps the bound, and
    for each n from 2 to 6 some series attains it."""
    highest = {}
    for ks in enumerate_kupisch(6, 8):
        algebra = kupisch_to_algebra(ks)
        domdim = dominant_dimension(algebra)
        if is_selfinjective(algebra):
            assert domdim == DomDim.infinite()
            continue
        n = algebra.quiver.vertex_count
        assert domdim.kind == "finite" and domdim.value <= 2 * n - 2, ks
        highest[n] = max(highest.get(n, 0), domdim.value)
    assert highest == {n: 2 * n - 2 for n in range(2, 7)}


def test_domdim_examples(branching_algebra, cyclic_32, a2, semisimple):
    assert dominant_dimension(branching_algebra) == DomDim.finite(1)
    assert dominant_dimension(cyclic_32) == DomDim.finite(2)
    assert dominant_dimension(a2) == DomDim.finite(1)
    assert dominant_dimension(semisimple) == DomDim.infinite()


def test_domdim_selfinjective_cyclic():
    a = kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (2, 2)))
    assert is_selfinjective(a)
    assert dominant_dimension(a) == DomDim.infinite()
    assert dominant_dimension(a, cutoff=1) == DomDim.infinite()


def test_domdim_cutoff_reporting(cyclic_32):
    assert dominant_dimension(cyclic_32, cutoff=1) == DomDim.at_least(1)
    assert dominant_dimension(cyclic_32, cutoff=2) == DomDim.at_least(2)
    assert dominant_dimension(cyclic_32, cutoff=3) == DomDim.finite(2)


def test_minimal_faithful_examples(branching_algebra):
    assert minimal_faithful_proj_inj(branching_algebra) == (0, 2)
    assert minimal_faithful_proj_inj(branching_algebra.opposite()) == (3, 4)


def test_minimal_faithful_selfinjective():
    a = kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (3, 3)))
    n = a.quiver.vertex_count
    assert minimal_faithful_proj_inj(a) == tuple(range(n))
    assert minimal_faithful_proj_inj(a.opposite()) == tuple(range(n))


def test_no_projective_injective_at_all():
    # two sources feeding one sink: every injective envelope jumps dimension
    q = Quiver.from_arrows(3, [("a", 0, 1), ("b", 2, 1)])
    a = build(q, [])
    for v in range(3):
        assert not homological_status(projective_module(a, v)).is_injective
    assert minimal_faithful_proj_inj(a) is None
    assert dominant_dimension(a) == DomDim.finite(0)


def test_proj_inj_exists_but_not_faithful():
    # the three-subspace star: projective-injectives exist on neither side
    # faithfully; dominant dimension is zero
    q = Quiver.from_arrows(3, [("a", 0, 1), ("b", 1, 2)])
    a = build(q, [q.path(["a", "b"])])
    # radical-square-zero chain: P(0) = I(1) is projective-injective
    assert homological_status(projective_module(a, 0)).is_injective
    verts = minimal_faithful_proj_inj(a)
    assert verts == (0, 1)
    assert dominant_dimension(a).ge(1)


def test_base_algebra_paper(branching_algebra):
    base = base_algebra(branching_algebra)
    assert base.dimension == 2
    assert flat_table(base).radical == ()
    assert base.num_summands == 2
    assert is_nakayama_algebra(base)
    assert len(gabriel_quiver(base).arrows) == 0


def test_base_algebra_cyclic_32(cyclic_32):
    base = base_algebra(cyclic_32)
    assert base.dimension == 2
    table = flat_table(base)
    assert len(table.radical) == 1
    r = table.radical[0]
    assert table.products[r].get(r, ()) == ()  # rad^2 = 0
    g = gabriel_quiver(base)
    assert g.vertex_count == 1 and len(g.arrows) == 1


def test_base_algebra_selfinjective_is_whole():
    a = kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (2, 2)))
    base = base_algebra(a)
    assert base.dimension == a.dimension
    assert base.num_summands == a.quiver.vertex_count


def test_base_algebra_requires_domdim_one():
    q = Quiver.from_arrows(3, [("a", 0, 1), ("b", 2, 1)])
    a = build(q, [])
    with pytest.raises(DomDimZeroError):
        base_algebra(a)


def test_double_centralizer_examples(branching_algebra, cyclic_32):
    dc = double_centralizer_check(branching_algebra)
    assert (dc.holds, dc.dim_algebra, dc.dim_commutant) == (False, 11, 18)
    dc = double_centralizer_check(cyclic_32)
    assert (dc.holds, dc.dim_algebra, dc.dim_commutant) == (True, 5, 5)


def test_double_centralizer_selfinjective():
    a = kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (2, 2)))
    dc = double_centralizer_check(a)
    assert dc.holds and dc.dim_commutant == a.dimension


def test_double_centralizer_domdim_zero():
    q = Quiver.from_arrows(3, [("a", 0, 1), ("b", 2, 1)])
    a = build(q, [])
    dc = double_centralizer_check(a)
    assert not dc.holds and dc.dim_commutant is None


def test_is_selfinjective_examples(a2, semisimple):
    assert not is_selfinjective(a2)
    assert is_selfinjective(semisimple)
    assert is_selfinjective(kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (2, 2))))


def test_domdim_agrees_with_opposite(branching_algebra, cyclic_32, a2):
    for a in (branching_algebra, cyclic_32, a2):
        assert dominant_dimension(a) == dominant_dimension(a.opposite())
