"""Module constructions and tests that the package itself does not need.

``simple_module`` builds the simple module at a vertex, ``mod_socle``
the quotient M / soc M, ``is_surjective`` tests a morphism by the ranks
of its vertex maps, and ``commutes`` tests that its vertex maps commute
with every arrow map.  ``annihilator_dimension`` computes the right
annihilator of a module by exact elimination over the path basis, and
``is_faithful`` reads it; the tests compare the package's path-suffix
faithfulness test with it.
"""

from quivalg import linalg
from quivalg.representations import Representation, quotient_by, socle


def simple_module(algebra, v):
    dims = [int(w == v) for w in range(algebra.quiver.vertex_count)]
    return Representation(algebra, dims, [linalg.zeros(dims[a.source])
                                          for a in algebra.quiver.arrows])


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
