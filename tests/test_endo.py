import itertools

import pytest
from fractions import Fraction

import dense_linalg as dense
from module_oracles import flat_table, injective_module, simple_module
from quivalg import linalg
from quivalg.errors import NotBasicError, NotLocalError
from quivalg.endo import (
    EndomorphismContext,
    endomorphism_algebra,
    gabriel_quiver,
    is_nakayama_algebra,
    is_qf2_algebra,
    kupisch_of_endo,
    monomial_basic_algebra,
)
from quivalg.enumeration import CorpusBounds, enumerate_monomial_algebras
from quivalg.monomial import build
from quivalg.nakayama import (
    KupischSeries,
    all_uniserial_ids,
    enumerate_kupisch,
    gen_cogen_candidate_ids,
    kupisch_to_algebra,
    uniserial_module,
)
from quivalg.quiver import Quiver, QuiverShape
from quivalg.representations import (
    Representation,
    direct_sum,
    hom_space,
    projective_module,
    radical_endomorphisms,
    radical_rows,
)


def auslander_of_dual_numbers(dual_numbers):
    p = projective_module(dual_numbers, 0)
    s = uniserial_module(dual_numbers, 0, 1)
    return endomorphism_algebra([p, s])


def test_endo_dimension_is_hom_table_sum(dual_numbers):
    p = projective_module(dual_numbers, 0)
    s = uniserial_module(dual_numbers, 0, 1)
    expected = sum(len(hom_space(m, n)) for m in (p, s) for n in (p, s))
    assert expected == 5
    c = endomorphism_algebra([p, s])
    assert c.dimension == 5
    assert c.num_summands == 2


def test_endo_of_regular_module_recovers_algebra(cyclic_32, a3_full):
    for algebra in (cyclic_32, a3_full):
        projs = [projective_module(algebra, v)
                 for v in range(algebra.quiver.vertex_count)]
        c = endomorphism_algebra(projs)
        assert c.dimension == algebra.dimension
        from quivalg.nakayama import algebra_to_kupisch
        assert kupisch_of_endo(c) == algebra_to_kupisch(algebra)


def test_gabriel_quiver_of_auslander_algebra(dual_numbers):
    c = auslander_of_dual_numbers(dual_numbers)
    g = gabriel_quiver(c)
    assert g.vertex_count == 2
    assert sorted((a.source, a.target) for a in g.arrows) == [(0, 1), (1, 0)]


def test_kupisch_of_auslander_algebra(dual_numbers):
    c = auslander_of_dual_numbers(dual_numbers)
    assert kupisch_of_endo(c) == KupischSeries(QuiverShape.CYCLIC, (3, 2))
    assert is_qf2_algebra(c)
    assert is_nakayama_algebra(c)


def test_semisimple_product_is_nakayama(branching_algebra):
    from quivalg.homological import base_algebra
    base = base_algebra(branching_algebra)  # K x K
    g = gabriel_quiver(base)
    assert g.vertex_count == 2 and len(g.arrows) == 0
    assert is_nakayama_algebra(base)
    assert is_qf2_algebra(base)
    assert kupisch_of_endo(base) is None  # disconnected


def test_monomial_self_embedding_matches_qf2(branching_algebra, cyclic_32):
    c = monomial_basic_algebra(branching_algebra, range(5))
    assert c.dimension == branching_algebra.dimension
    assert is_qf2_algebra(c) == branching_algebra.is_qf2() == False
    c32 = monomial_basic_algebra(cyclic_32, range(2))
    assert is_qf2_algebra(c32) and cyclic_32.is_qf2()


@pytest.mark.parametrize("bounds", [CorpusBounds(3, 3, 2), CorpusBounds(2, 2, 3)], ids=str)
def test_path_basis_qf2_matches_structure_constants_over_corpora(bounds):
    """The socle criterion on the path basis against elimination over the
    multiplication table, for every algebra of a corpus and its opposite."""
    verdicts = []
    for algebra in enumerate_monomial_algebras(bounds):
        for work in (algebra, algebra.opposite()):
            c = monomial_basic_algebra(work, range(work.quiver.vertex_count))
            verdicts.append(work.is_qf2())
            assert verdicts[-1] == is_qf2_algebra(c)
    assert any(verdicts) and not all(verdicts)


def test_gabriel_of_monomial_embedding_recovers_quiver(branching_algebra):
    c = monomial_basic_algebra(branching_algebra, range(5))
    g = gabriel_quiver(c)
    want = sorted((a.source, a.target) for a in branching_algebra.quiver.arrows)
    assert sorted((a.source, a.target) for a in g.arrows) == want


def test_yamagata_only_if_over_chain(a3_full):
    reps = [uniserial_module(a3_full, t, l) for t, l in all_uniserial_ids(a3_full)]
    assert len(reps) == 6
    c = endomorphism_algebra(reps)
    assert not is_nakayama_algebra(c)
    assert kupisch_of_endo(c) is None
    assert is_qf2_algebra(c)  # QF-2 holds for every generator-cogenerator


def test_not_basic_rejected(dual_numbers):
    p = projective_module(dual_numbers, 0)
    with pytest.raises(NotBasicError):
        endomorphism_algebra([p, p])


def test_not_local_rejected(a2):
    decomposable = direct_sum([simple_module(a2, 0), simple_module(a2, 1)])
    with pytest.raises(NotLocalError):
        endomorphism_algebra([decomposable])


def test_top_of_dimension_two_at_one_vertex():
    """Over the Kronecker algebra (a, b: 1 -> 2), the injective at the sink
    has top S_1 + S_1 and End = K; beside S_1, or S_1 beside itself, the
    End is not local."""
    kronecker = build(Quiver.from_arrows(2, [("a", 0, 1), ("b", 0, 1)]), [])
    inj, s0 = injective_module(kronecker, 1), simple_module(kronecker, 0)
    assert inj.dims == (2, 1)
    [ident] = EndomorphismContext([inj]).hom(0, 0)
    assert ident.vertex_maps == [linalg.identity(2), linalg.identity(1)]
    for summands in ([s0, s0], [inj, s0]):
        with pytest.raises(NotLocalError):
            endomorphism_algebra([direct_sum(summands)])


def test_locality_known_beforehand():
    """Over the (3,3,2) corpus every P_v and S_v has a local End, whose
    radical is spanned by endomorphisms with image in rad M, each
    nilpotent; P_u + P_v and S_v + P_v do not."""
    accepted = rejected = 0
    for algebra in enumerate_monomial_algebras(CorpusBounds(3, 3, 2)):
        n = algebra.quiver.vertex_count
        projs = [projective_module(algebra, v) for v in range(n)]
        simples = [simple_module(algebra, v) for v in range(n)]
        for m in projs + simples:
            endomorphism_algebra([m])
            radicals = radical_endomorphisms(m)
            assert len(radicals) == len(hom_space(m, m)) - 1
            for f in radicals:
                for v, fv in enumerate(f.vertex_maps):
                    rad = radical_rows(m, v)
                    assert linalg.rank(rad + fv, m.dims[v]) == linalg.rank(rad, m.dims[v])
                power = f
                for _ in range(m.total_dim - 1):
                    power = power.then(f)
                assert all(not any(fv) for fv in power.vertex_maps)
            accepted += 1
        pairs = [(projs[u], projs[v]) for u, v in itertools.combinations(range(n), 2)]
        for summands in pairs + list(zip(simples, projs)):
            with pytest.raises(NotLocalError):
                endomorphism_algebra([direct_sum(list(summands))])
            rejected += 1
    assert accepted + rejected == 1040


def test_idempotents_are_orthogonal_and_complete(dual_numbers):
    c = flat_table(auslander_of_dual_numbers(dual_numbers))
    for i, ei in enumerate(c.idempotents):
        for j, ej in enumerate(c.idempotents):
            prod = dict(c.products[ei].get(ej, ()))
            if i == j:
                assert prod == {ei: Fraction(1)}
            else:
                assert prod == {}


def test_structure_constants_associative(dual_numbers):
    c = auslander_of_dual_numbers(dual_numbers)
    d = c.dimension
    table = flat_table(c)

    def mul_vec(vx, vy):
        out = [Fraction(0)] * d
        for x, cx in enumerate(vx):
            if not cx:
                continue
            for y, cy in enumerate(vy):
                if not cy:
                    continue
                for z, cz in table.products[x].get(y, ()):
                    out[z] += cx * cy * cz
        return out

    basis_vecs = [[Fraction(int(i == k)) for i in range(d)] for k in range(d)]
    for x, y, z in itertools.product(range(d), repeat=3):
        left = mul_vec(mul_vec(basis_vecs[x], basis_vecs[y]), basis_vecs[z])
        right = mul_vec(basis_vecs[x], mul_vec(basis_vecs[y], basis_vecs[z]))
        assert left == right


def test_radical_is_nilpotent_ideal(dual_numbers):
    c = auslander_of_dual_numbers(dual_numbers)
    table = flat_table(c)
    rad = set(table.radical)
    assert len(rad) == c.dimension - c.num_summands
    # products of radical elements stay inside the radical span
    for x in rad:
        for y in rad:
            for z, coeff in table.products[x].get(y, ()):
                assert z in rad
    # nilpotency: iterated products die out
    layer = {(x,) for x in rad}
    for _ in range(c.dimension + 1):
        nxt = set()
        for word in layer:
            for y in rad:
                prod = table.products[word[-1]].get(y, ())
                if prod:
                    nxt.add(word + (y,))
        if not nxt:
            break
        layer = nxt
    else:
        pytest.fail("radical did not nilpotize")


def test_apt_dimension_formula(cyclic_32):
    ids = all_uniserial_ids(cyclic_32)
    reps = [uniserial_module(cyclic_32, t, l) for t, l in ids]
    c = endomorphism_algebra(reps)
    tags = flat_table(c).tags
    for i, rep in enumerate(reps):
        hom_to_i = sum(len(hom_space(m, rep)) for m in reps)
        assert len([x for x, tag in enumerate(tags) if tag[0] == i]) == hom_to_i
    assert c.dimension == sum(len(hom_space(m, n)) for m in reps for n in reps)


def test_context_caching_consistency(cyclic_32):
    ids = all_uniserial_ids(cyclic_32)
    reps = [uniserial_module(cyclic_32, t, l) for t, l in ids]
    ctx = EndomorphismContext(reps)
    full = ctx.endo_algebra(range(len(reps)))
    again = endomorphism_algebra(reps)
    assert full.dimension == again.dimension
    full, again = flat_table(full), flat_table(again)
    assert full.tags == again.tags
    assert full.products == again.products


def full_universe_contexts(max_n, max_c, change_basis=lambda rep: rep):
    """(context, universe size) for the full uniserial universe of every
    Kupisch series within the bounds, each module passed through
    ``change_basis``."""
    for ks in enumerate_kupisch(max_n, max_c):
        algebra = kupisch_to_algebra(ks)
        reps = [change_basis(uniserial_module(algebra, t, l))
                for t, l in all_uniserial_ids(algebra)]
        yield EndomorphismContext(reps), len(reps)


def lower_triangular_basis(rep):
    """The module in the basis at each vertex v given by the rows of the
    lower unitriangular all-ones matrix S_v, so each arrow map M_a becomes
    S_u M_a S_w^-1.  Hom bases between the path-basis uniserials have
    disjoint supports; over this basis they overlap."""
    def s(d):
        return [{j: 1 for j in range(i + 1)} for i in range(d)]

    def s_inverse(d):
        return [{i: 1, **({i - 1: -1} if i else {})} for i in range(d)]

    maps = [linalg.mat_mul(linalg.mat_mul(s(rep.dims[a.source]), m), s_inverse(rep.dims[a.target]))
            for a, m in zip(rep.algebra.quiver.arrows, rep.maps)]
    return Representation(rep.algebra, rep.dims, maps)


def dense_entries(f):
    """The entries of a morphism's vertex maps, each row-major, one map
    after another: the cells (v, r, c) in order."""
    return [row.get(c, 0) for m, ncols in zip(f.vertex_maps, f.target.dims)
            for row in m for c in range(ncols)]


def test_sparse_products_match_composition_oracle():
    """Every product x * y of basis elements, identity factors included,
    against the coordinates of the composite ``y.then(x)`` over the basis
    of its hom space, solved densely, over the full uniserial universes of
    small Kupisch series, in the path basis and in a lower triangular one;
    no row stores a zero product."""
    checked = identities = 0
    contexts = itertools.chain(full_universe_contexts(3, 4),
                               full_universe_contexts(3, 4, lower_triangular_basis))
    for ctx, size in contexts:
        c = flat_table(ctx.endo_algebra(range(size)))
        blocks = {}
        for x, tag in enumerate(c.tags):
            blocks.setdefault(tag, []).append(x)
        assert all(prod for row in c.products for prod in row.values())
        for x, (bi, bm) in enumerate(c.tags):
            for y, (bm2, bj) in enumerate(c.tags):
                if bm2 != bm:
                    assert y not in c.products[x]
                    continue
                comp = dense_entries(c.payloads[y].then(c.payloads[x]))
                zs = blocks.get((bi, bj), [])
                basis = [dense_entries(c.payloads[z]) for z in zs]
                # the one kernel vector of [basis | composite] is
                # (-coordinates, 1) when the composite lies in the span
                kernel = dense.nullspace([list(col) for col in zip(*basis, comp)],
                                         len(basis) + 1)
                assert len(kernel) == 1 and kernel[0][-1] == 1
                want = tuple((z, -k) for z, k in zip(zs, kernel[0]) if k)
                assert c.products[x].get(y, ()) == want
                checked += 1
                identities += c.payloads[x].is_isomorphism() or c.payloads[y].is_isomorphism()
    assert checked > identities > 0


def test_composites_are_computed_once_and_never_for_identities(monkeypatch):
    """Within one context every composite is computed at most once, none
    with an identity factor, and a repeated subset composes nothing."""
    calls = []
    compose = EndomorphismContext.compose_coords

    def counting(self, dom, mid, cod, g_idx, f_idx):
        calls.append((id(self), dom, mid, cod, g_idx, f_idx))
        return compose(self, dom, mid, cod, g_idx, f_idx)

    monkeypatch.setattr(EndomorphismContext, "compose_coords", counting)
    contexts = []  # kept alive, so that no two contexts share an id
    for ctx, size in full_universe_contexts(3, 4):
        contexts.append(ctx)
        pos = {u: i for i, u in enumerate(all_uniserial_ids(ctx.algebra))}
        subsets = [[pos[u] for u in cand]
                   for cand in gen_cogen_candidate_ids(ctx.algebra, full_universe=True)]
        for subset in subsets + [list(range(size))]:
            ctx.endo_algebra(subset)
        before = len(calls)
        for subset in subsets:
            ctx.endo_algebra(subset)
        assert len(calls) == before
    assert calls and len(set(calls)) == len(calls)
    for _, dom, mid, cod, g_idx, f_idx in calls:
        assert not (dom == mid and g_idx == 0) and not (mid == cod and f_idx == 0)


def test_corner_products_match_the_multiply_table():
    """The sparse rows of every corner algebra fAf of the (3,2,2) corpus,
    over every nonempty vertex set, against ``multiply`` on every pair of
    basis paths."""
    for algebra in enumerate_monomial_algebras(CorpusBounds(3, 2, 2)):
        n = algebra.quiver.vertex_count
        for k in range(1, n + 1):
            for verts in itertools.combinations(range(n), k):
                c = flat_table(monomial_basic_algebra(algebra, verts))
                index = {p: x for x, p in enumerate(c.payloads)}
                assert all(prod for row in c.products for prod in row.values())
                for x, p in enumerate(c.payloads):
                    for y, q in enumerate(c.payloads):
                        r = algebra.multiply(p, q)
                        want = ((index[r], Fraction(1)),) if r is not None else ()
                        assert c.products[x].get(y, ()) == want


def dense_block_oracle(c):
    """(arrows per block, QF-2 verdict) from dense ranks over the flat
    table: dim e_i (rad / rad^2) e_j arrows i -> j, and QF-2 when every
    e_i C and every C e_i has a one-dimensional annihilator of the whole
    radical; also the number of rad^2 products with more than one term."""
    t = flat_table(c)
    rad = set(t.radical)
    members, squares = {}, {}
    right = [{} for _ in t.tags]  # x -> {r: x r} and {r: r x} over the radical r
    left = [{} for _ in t.tags]
    for x, tag in enumerate(t.tags):
        members.setdefault(tag, []).append(x)
    for x in t.radical:
        for y, prod in t.products[x].items():
            left[y][x] = prod
            if y in rad:
                right[x][y] = prod
                squares.setdefault((t.tags[x][0], t.tags[y][1]), []).append(dict(prod))
    for x in t.idempotents:
        right[x] = {y: prod for y, prod in t.products[x].items() if y in rad}
    arrows = {}
    for key, xs in members.items():
        rad_xs = [x for x in xs if x in rad]
        rows = [[vec.get(x, 0) for x in rad_xs] for vec in squares.get(key, [])]
        count = len(rad_xs) - dense.rank(rows, len(rad_xs))
        if count:
            arrows[key] = count

    def socle_dim(xs, products):
        rows = [{(r, z): v for r, prod in products[x].items() for z, v in prod} for x in xs]
        columns = sorted(set().union(*rows))
        return len(xs) - dense.rank([[row.get(col, 0) for col in columns] for row in rows],
                                    len(columns))

    qf2 = all(socle_dim([x for x, tag in enumerate(t.tags) if tag[0] == i], right) == 1
              and socle_dim([x for x, tag in enumerate(t.tags) if tag[1] == i], left) == 1
              for i in range(c.num_summands))
    multi_term = sum(len(vec) > 1 for vecs in squares.values() for vec in vecs)
    return arrows, qf2, multi_term


def assert_matches_dense_block_oracle(c):
    arrows, qf2, multi_term = dense_block_oracle(c)
    got = {}
    for a in gabriel_quiver(c).arrows:
        got[(a.source, a.target)] = got.get((a.source, a.target), 0) + 1
    assert got == arrows
    assert is_qf2_algebra(c) == qf2
    return qf2, multi_term


@pytest.mark.parametrize("change_basis", [lambda rep: rep, lower_triangular_basis],
                         ids=["path_basis", "lower_triangular_basis"])
def test_block_gabriel_and_qf2_match_dense_ranks(change_basis):
    """The Gabriel arrows per block and the QF-2 verdict, read off the
    blocks, against dense ranks of the flat table, over every
    generator-cogenerator of the full uniserial universes of
    enumerate_kupisch(3, 4).  In the lower triangular basis some rad^2
    products have several terms."""
    candidates = verdicts = multi_terms = 0
    for ctx, _ in full_universe_contexts(3, 4, change_basis):
        pos = {u: i for i, u in enumerate(all_uniserial_ids(ctx.algebra))}
        for cand in gen_cogen_candidate_ids(ctx.algebra, full_universe=True):
            qf2, multi_term = assert_matches_dense_block_oracle(
                ctx.endo_algebra([pos[u] for u in cand]))
            candidates += 1
            verdicts += qf2
            multi_terms += multi_term
    assert candidates == verdicts == 940
    assert bool(multi_terms) == (change_basis is lower_triangular_basis)


def test_corner_gabriel_and_qf2_match_dense_ranks():
    """The same over every corner algebra fAf of the (3,3,2) corpus."""
    verdicts = []
    for algebra in enumerate_monomial_algebras(CorpusBounds(3, 3, 2)):
        n = algebra.quiver.vertex_count
        for k in range(1, n + 1):
            for verts in itertools.combinations(range(n), k):
                c = monomial_basic_algebra(algebra, verts)
                verdicts.append(assert_matches_dense_block_oracle(c)[0])
    assert any(verdicts) and not all(verdicts)
