"""Module constructions and tests that the package itself does not need.

``simple_module``, ``injective_module`` and ``regular_module`` build the
simple, indecomposable injective and regular modules, ``radical`` the
radical with its inclusion, ``mod_socle`` the quotient M / soc M, and
``socle_dims`` the socle dimension vector by rank.  ``is_surjective``
tests a morphism by the ranks of its vertex maps, and ``commutes`` tests
that its vertex maps commute with every arrow map.
``annihilator_dimension`` computes the right annihilator of a module by
exact elimination over the path basis, and ``is_faithful`` reads it; the
tests compare the package's path-suffix faithfulness test with it.
``coresolution_oracle`` builds the minimal injective coresolution of the
regular module from exact envelopes and cokernels; the tests compare the
package's syzygy loop with it.  ``flat_table`` lays the blocks of a
BasicAlgebra out as one indexed multiplication table.
"""

from collections import namedtuple

from quivalg import linalg
from quivalg.representations import (
    Morphism,
    Representation,
    direct_sum,
    dual_representation,
    homological_status,
    injective_envelope,
    projective_module,
    quotient_by,
    radical_rows,
    socle,
)


def simple_module(algebra, v):
    dims = [int(w == v) for w in range(algebra.quiver.vertex_count)]
    return Representation(algebra, dims, [linalg.zeros(dims[a.source])
                                          for a in algebra.quiver.arrows])


def injective_module(algebra, v):
    """The indecomposable injective D(A e_v): dual of the opposite
    projective at v."""
    key = ("inj", v)
    if key not in algebra._cache:
        algebra._cache[key] = dual_representation(projective_module(algebra.opposite(), v))
    return algebra._cache[key]


def regular_module(algebra):
    key = ("regular",)
    if key not in algebra._cache:
        algebra._cache[key] = direct_sum(
            [projective_module(algebra, v) for v in range(algebra.quiver.vertex_count)])
    return algebra._cache[key]


def radical(rep):
    """The submodule generated by all arrow images; returns (sub, inclusion)."""
    algebra = rep.algebra
    q = algebra.quiver
    reds = [linalg.rref(radical_rows(rep, v), rep.dims[v]) for v in range(q.vertex_count)]
    basis_rows = [list(red.values()) for red in reds]
    dims = [len(red) for red in reds]
    maps = []
    for ai, a in enumerate(q.arrows):
        images = linalg.mat_mul(basis_rows[a.source], rep.maps[ai])
        # coordinates over an RREF basis are the values at its pivots
        maps.append([{k: img[p] for k, p in enumerate(reds[a.target]) if p in img}
                     for img in images])
    sub = Representation(algebra, dims, maps)
    return sub, Morphism(sub, rep, basis_rows)


def socle_dims(rep):
    """Socle dimension vector of M by rank: dim M_w minus the rank of the
    arrow maps out of w placed side by side."""
    q = rep.algebra.quiver
    dims = []
    for w, d in enumerate(rep.dims):
        rows, width = [{} for _ in range(d)], 0
        for a in q.out_arrows[w]:
            for row, mrow in zip(rows, rep.maps[a]):
                row.update({width + c: x for c, x in mrow.items()})
            width += rep.dims[q.arrows[a].target]
        dims.append(len(rows) - (linalg.rank(rows, width) if any(rows) else 0))
    return tuple(dims)


def mod_socle(rep):
    """M / soc M (possibly the zero module)."""
    _, incl = socle(rep)
    return quotient_by(rep, incl.vertex_maps)[0]


def is_surjective(morphism):
    return all(linalg.rank(m, morphism.target.dims[v]) == morphism.target.dims[v]
               for v, m in enumerate(morphism.vertex_maps))


def commutes(morphism):
    f, m, n = morphism.vertex_maps, morphism.source, morphism.target
    return all(linalg.mat_mul(m.maps[i], f[a.target]) == linalg.mat_mul(f[a.source], n.maps[i])
               for i, a in enumerate(m.algebra.quiver.arrows))


def annihilator_dimension(rep):
    """Dimension of {a in A : M a = 0}, by exact elimination over the
    path basis."""
    algebra = rep.algebra
    actions = {}  # (source, arrows) -> matrix of the path's action
    for p in algebra.basis:  # sorted by length, so prefixes come first
        actions[p.source, p.arrows] = (
            linalg.mat_mul(actions[p.source, p.arrows[:-1]], rep.maps[p.arrows[-1]])
            if p.arrows else linalg.identity(rep.dims[p.source]))
    block_offsets = {}
    width = 0
    for p in algebra.basis:
        key = (p.source, p.target)
        if key not in block_offsets:
            block_offsets[key] = width
            width += rep.dims[p.source] * rep.dims[p.target]
    rows = []
    for p in algebra.basis:
        off = block_offsets[(p.source, p.target)]
        cols = rep.dims[p.target]
        rows.append({off + i * cols + j: x for i, arow in enumerate(actions[p.source, p.arrows])
                     for j, x in arow.items()})
    return algebra.dimension - linalg.rank(rows, width)


def is_faithful(rep):
    """True when the right annihilator of M in A is zero."""
    return annihilator_dimension(rep) == 0


# ``envelope`` is (I_k, embedding N_k -> I_k, vertices) and ``cokernel`` is N_{k+1}
OracleTerm = namedtuple("OracleTerm", ["vertices", "projective", "envelope", "cokernel"])


def coresolution_oracle(algebra):
    """Lazily yield the terms of the minimal injective coresolution of the
    regular module N_0 = A, by exact elimination: the envelope of N_k is
    the dual of the projective cover of its dual, N_{k+1} is the cokernel
    of N_k -> I_k, and I_k is projective when each of its summands I_s has
    the dimension of the cover forced by its top.  Stops after the term
    with a zero cokernel."""
    module = regular_module(algebra)
    while True:
        env, emb, vertices = injective_envelope(module)
        module = quotient_by(env, emb.vertex_maps)[0]
        projective = all(homological_status(injective_module(algebra, s)).is_projective
                         for s in set(vertices))
        yield OracleTerm(vertices, projective, (env, emb, vertices), module)
        if module.is_zero:
            return


FlatTable = namedtuple("FlatTable", ["tags", "products", "radical", "idempotents", "payloads"])


def flat_table(c):
    """The blocks of a BasicAlgebra as one table over a global basis, the
    blocks e_i C e_j one after another in sorted order: ``tags[x] = (i, j)``
    for x in e_i C e_j, ``products[x] = {y: ((z, c), ...)}`` for every y
    with x*y != 0, the indices of the radical basis and of the e_i, and
    each element's payload."""
    start, tags, payloads = {}, [], []
    for key, dim in sorted(c.dims.items()):
        start[key] = len(tags)
        tags += [key] * dim
        payloads += c.payloads[key]
    products = [{} for _ in tags]
    for (i, m, j), block in c.blocks.items():
        x0, y0, z0 = start[(i, m)], start[(m, j)], start[(i, j)]
        for kx, ky, coords in block:
            products[x0 + kx][y0 + ky] = tuple((z0 + z, x) for z, x in coords)
    idempotents = tuple(start[(i, i)] for i in range(c.num_summands))
    radical = tuple(x for x in range(len(tags)) if x not in idempotents)
    return FlatTable(tuple(tags), products, radical, idempotents, tuple(payloads))
