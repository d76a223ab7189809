"""Right modules over a monomial algebra, as quiver representations.

A representation assigns to every vertex a rational vector space (recorded
by its dimension) and to every arrow an exact matrix of sparse rows (see
:mod:`quivalg.linalg`).  Vectors are rows and an arrow u -> w acts by right
multiplication, so the matrix of a path is the product of its arrow
matrices read left to right.

A morphism is a family of per-vertex matrices commuting with every arrow
map.  Both keep the matrices they are given, without copying, after a
shape check.  Socles, tops, covers, envelopes and hom spaces are all
computed by exact Gaussian elimination; no floating point is involved
anywhere; the endomorphisms with image in rad M are one such kernel too.
The package itself builds modules only for the uniserials of Nakayama
algebras, their hom spaces and endomorphism algebras; the
projectives, socles, covers, envelopes, quotients and the projective and
injective status are kept as the tests' elimination oracles.  The socle
dimension vectors of the P_v, the oracle of the socles read off the path
basis, are ranks of arrow-action matrices read off the path index.
"""

from collections import namedtuple

from . import linalg
from .errors import ZeroModuleError


def _check_shape(mat, nrows, ncols, what):
    if len(mat) != nrows or any(c >= ncols for row in mat for c in row):
        raise ValueError(f"{what} has the wrong shape")


class Representation:
    def __init__(self, algebra, dims, maps):
        self.algebra = algebra
        self.dims = tuple(dims)
        self.maps = maps
        q = algebra.quiver
        if len(self.dims) != q.vertex_count or len(maps) != len(q.arrows):
            raise ValueError("dimension vector or map list has the wrong length")
        for a, m in zip(q.arrows, maps):
            _check_shape(m, self.dims[a.source], self.dims[a.target], f"map for arrow {a.name!r}")

    def _check_relations(self):
        for rel in self.algebra.relations:
            if any(self.path_action(rel)):
                raise ValueError(f"relation {rel} does not act by zero")

    @property
    def total_dim(self):
        return sum(self.dims)

    @property
    def is_zero(self):
        return self.total_dim == 0

    def path_action(self, path):
        """Matrix of the right action of a path, from its source space to
        its target space."""
        m = linalg.identity(self.dims[path.source])
        for a in path.arrows:
            m = linalg.mat_mul(m, self.maps[a])
        return m

    def __eq__(self, other):
        return (isinstance(other, Representation)
                and self.algebra == other.algebra
                and self.dims == other.dims
                and all(ma == mb for ma, mb in zip(self.maps, other.maps)))

    def __repr__(self):
        return f"Representation(dims={self.dims})"


class Morphism:
    def __init__(self, source, target, vertex_maps):
        self.source = source
        self.target = target
        self.vertex_maps = vertex_maps
        for v, m in enumerate(vertex_maps):
            _check_shape(m, source.dims[v], target.dims[v], f"vertex map at {v}")

    def then(self, other):
        """Composite morphism: self first, then other."""
        if other.source is not self.target and other.source != self.target:
            raise ValueError("morphisms are not composable")
        maps = [linalg.mat_mul(f, g) for f, g in zip(self.vertex_maps, other.vertex_maps)]
        return Morphism(self.source, other.target, maps)

    def is_injective(self):
        return all(linalg.rank(m, self.target.dims[v]) == self.source.dims[v]
                   for v, m in enumerate(self.vertex_maps))

    def is_isomorphism(self):
        return self.source.dims == self.target.dims and self.is_injective()

    def __repr__(self):
        return f"Morphism({self.source.dims} -> {self.target.dims})"


# -- standard modules --------------------------------------------------------


def projective_module(algebra, v):
    """The indecomposable projective e_v A: paths out of v, arrows acting by
    right concatenation."""
    key = ("proj", v)
    if key not in algebra._cache:
        index = algebra._path_index
        dims = [len(block) for block in index.blocks[v]]
        maps = [linalg.zeros(dims[a.source]) for a in algebra.quiver.arrows]
        for block in index.blocks[v]:
            for r, i in enumerate(block):
                for a, j in index.extensions[i].items():
                    maps[a][r][index.position[j]] = 1
        algebra._cache[key] = Representation(algebra, dims, maps)
    return algebra._cache[key]


def dual_representation(rep):
    """The dual module over the opposite algebra: transposed arrow maps."""
    opp = rep.algebra.opposite()
    maps = [linalg.transpose(m, rep.dims[a.target])
            for a, m in zip(rep.algebra.quiver.arrows, rep.maps)]
    return Representation(opp, rep.dims, maps)


def direct_sum(reps):
    if not reps:
        raise ValueError("direct_sum needs at least one summand")
    algebra = reps[0].algebra
    n = algebra.quiver.vertex_count
    dims = [sum(r.dims[v] for r in reps) for v in range(n)]
    maps = []
    for ai, a in enumerate(algebra.quiver.arrows):
        m, coff = [], 0  # the blocks r.maps[ai] down the diagonal
        for r in reps:
            m += [{coff + c: x for c, x in row.items()} for row in r.maps[ai]]
            coff += r.dims[a.target]
        maps.append(m)
    return Representation(algebra, dims, maps)


# -- socle, top, quotients ---------------------------------------------------


def radical_rows(rep, v):
    """Rows spanning rad M at v: the images of the arrows into v."""
    return [row for a in rep.algebra.quiver.in_arrows[v] for row in rep.maps[a]]


def socle(rep):
    """Largest semisimple submodule; returns (sub, inclusion).  soc M at v
    is the joint kernel of the outgoing arrow maps (loops included); the
    sub-representation has zero arrow maps."""
    q = rep.algebra.quiver
    # x M_a = 0 is one equation per column of M_a; a zero space needs no elimination
    bases = [linalg.nullspace([eq for a in q.out_arrows[v] for eq in linalg.transpose(
        rep.maps[a], rep.dims[q.arrows[a].target])], d) if d else []
        for v, d in enumerate(rep.dims)]
    sub = Representation(rep.algebra, [len(basis) for basis in bases],
                         [linalg.zeros(len(bases[a.source])) for a in q.arrows])
    return sub, Morphism(sub, rep, bases)


def projective_socle_dims(algebra, v):
    """Socle dimension vector of P_v by elimination, uncached: the oracle of
    ``MonomialAlgebra.socle_dims``.  At w, the rows are the paths v -> w and
    each arrow a out of w adds a block of columns, the paths v -> t(a), with
    a 1 at each row's extension by a.  The elimination does not assume that
    distinct paths have distinct extensions, which makes the rank the
    number of paths that extend."""
    index, q = algebra._path_index, algebra.quiver
    dims = []
    for w, block in enumerate(index.blocks[v]):
        offset, width = {}, 0
        for a in q.out_arrows[w]:
            offset[a], width = width, width + len(index.blocks[v][q.arrows[a].target])
        rows = [{offset[a] + index.position[j]: 1 for a, j in index.extensions[i].items()}
                for i in block]
        # a zero matrix needs no elimination
        dims.append(len(rows) - (linalg.rank(rows, width) if any(rows) else 0))
    return tuple(dims)


def quotient_by(rep, rows_per_vertex):
    """Quotient by the subrepresentation spanned by the given rows;
    returns (quotient, projection)."""
    q = rep.algebra.quiver
    # a zero space needs no elimination: its quotient is zero
    dims, projs, sects = zip(*(
        linalg.quotient_maps(rows_per_vertex[v], rep.dims[v])
        if rep.dims[v] else (0, [], []) for v in range(q.vertex_count)))
    maps = [linalg.mat_mul(linalg.mat_mul(sects[a.source], rep.maps[ai]), projs[a.target])
            for ai, a in enumerate(q.arrows)]
    quot = Representation(rep.algebra, dims, maps)
    return quot, Morphism(rep, quot, projs)


def top(rep):
    """Largest semisimple quotient M / rad M; returns (quotient, projection)."""
    return quotient_by(rep, [radical_rows(rep, v)
                             for v in range(rep.algebra.quiver.vertex_count)])


# -- covers and envelopes ------------------------------------------------------


def projective_cover(rep):
    """Minimal projective cover; returns (P, surjection P -> M, vertices),
    where P is the direct sum of the P_v over ``vertices``, one per basis
    vector of top(M)."""
    if rep.is_zero:
        raise ZeroModuleError("the zero module has no projective cover here")
    algebra = rep.algebra
    q = algebra.quiver
    generators = []  # (vertex, row vector in M_v lifting a top basis vector)
    for v in range(q.vertex_count):
        if rep.dims[v]:
            _, _, sect = linalg.quotient_maps(radical_rows(rep, v), rep.dims[v])
            generators += [(v, row) for row in sect]
    if not generators:
        raise ValueError("nonzero module with zero top; the input is corrupt")
    cover = direct_sum([projective_module(algebra, v) for v, _ in generators])
    index = algebra._path_index
    blocks = []  # per generator, the images of the paths out of its vertex by target
    for v, gen in generators:
        vec = {v: gen}  # e_v is basis path v
        for i in index.sources[v]:  # in basis order, so prefixes come first
            for a, j in index.extensions[i].items():
                vec[j] = linalg.mat_mul([vec[i]], rep.maps[a])[0]
        blocks.append([[vec[i] for i in block] for block in index.blocks[v]])
    vertex_maps = [[row for block in blocks for row in block[w]] for w in range(q.vertex_count)]
    proj_morphism = Morphism(cover, rep, vertex_maps)
    return cover, proj_morphism, tuple(v for v, _ in generators)


def injective_envelope(rep):
    """Minimal injective envelope; returns (E, embedding M -> E, vertices),
    where E is the direct sum of the I_v over ``vertices``, one per basis
    vector of soc(M).

    Computed as the dual of the projective cover of the dual module over
    the opposite algebra.
    """
    if rep.is_zero:
        raise ZeroModuleError("the zero module has no injective envelope here")
    dual = dual_representation(rep)
    cover, pr, vertices = projective_cover(dual)
    env = dual_representation(cover)
    emb_maps = [linalg.transpose(pr.vertex_maps[v], rep.dims[v])
                for v in range(rep.algebra.quiver.vertex_count)]
    emb = Morphism(rep, env, emb_maps)
    return env, emb, vertices


def envelope_dim(algebra, socle_dims):
    """Dimension of the injective envelope of a module with the given socle
    dimension vector: one I_w per socle basis vector at w, where dim I_w is
    that of the opposite projective it dualises, the number of basis paths
    ending at w."""
    targets = algebra._path_index.targets
    return sum(d * len(targets[w]) for w, d in enumerate(socle_dims))


HomologicalStatus = namedtuple("HomologicalStatus", ["is_projective", "is_injective"])


def homological_status(rep):
    """Whether M is projective and whether it is injective, by comparing its
    dimension against the cover / envelope forced by top(M) and soc(M).

    Nothing in the package calls this any more; it is kept as the tests'
    elimination oracle for the projective-injective table and the
    projective flags of coresolution terms.
    """
    if rep.is_zero:
        raise ZeroModuleError("homological status of the zero module is undefined")
    algebra = rep.algebra
    t, _ = top(rep)
    s, _ = socle(rep)
    proj_dim = sum(t.dims[v] * projective_module(algebra, v).total_dim
                   for v in range(algebra.quiver.vertex_count) if t.dims[v])
    return HomologicalStatus(proj_dim == rep.total_dim,
                             envelope_dim(algebra, s.dims) == rep.total_dim)


# -- hom spaces ----------------------------------------------------------------


def commutation_equations(spaces, arrows):
    """Sparse linear equations X_u N_a = M_a X_w in unknown blocks X_v.

    ``spaces`` lists (v, dim M_v, dim N_v) and fixes the layout: the X_v
    are stored row-major one after another, in this order.  ``arrows``
    lists (u, w, M_a, N_a) with M_a of shape dim M_u x dim M_w and N_a of
    shape dim N_u x dim N_w.  Returns (rows, width) without zero rows.
    """
    offsets = {}
    ncols = {}
    width = 0
    for v, dm, dn in spaces:
        offsets[v] = width
        ncols[v] = dn
        width += dm * dn
    rows = []
    for u, w, ma, na in arrows:
        ou, ow, nu, nw = offsets[u], offsets[w], ncols[u], ncols[w]
        na_columns = linalg.transpose(na, nw)
        for r, mrow in enumerate(ma):
            for c, ncol in enumerate(na_columns):
                eq = {ow + k * nw + c: x for k, x in mrow.items()}
                for k, y in ncol.items():
                    col = ou + r * nu + k
                    x = eq.get(col, 0) - y
                    if x:
                        eq[col] = x
                    else:
                        del eq[col]
                if eq:
                    rows.append(eq)
    return rows, width


def _hom_equations(m, n):
    """(spaces, rows, width) of the commutation equations of Hom(M, N)."""
    if m.algebra != n.algebra:
        raise ValueError("hom_space needs modules over the same algebra")
    q = m.algebra.quiver
    spaces = [(v, m.dims[v], n.dims[v]) for v in range(q.vertex_count)]
    rows, width = commutation_equations(
        spaces, [(a.source, a.target, m.maps[i], n.maps[i]) for i, a in enumerate(q.arrows)])
    return spaces, rows, width


def _solve_hom(m, n, extra):
    """Morphisms M -> N spanning the solutions of the commutation equations
    and the ``extra`` equations, which use the same unknowns."""
    spaces, rows, width = _hom_equations(m, n)
    cells = [(v, r, c) for v, dm, dn in spaces for r in range(dm) for c in range(dn)]
    morphisms = []
    for vec in linalg.nullspace(rows + extra, width):
        maps = [linalg.zeros(dm) for _, dm, _ in spaces]
        for col, x in vec.items():
            v, r, c = cells[col]
            maps[v][r][c] = x
        morphisms.append(Morphism(m, n, maps))
    return morphisms


def hom_space(m, n):
    """A basis of Hom(M, N), found by solving the commutation equations."""
    return _solve_hom(m, n, [])


def hom_dim(m, n):
    """dim Hom(M, N): the unknowns less the rank of the commutation
    equations, without a basis."""
    _, rows, width = _hom_equations(m, n)
    return width - linalg.rank(rows, width)


def radical_endomorphisms(rep):
    """A basis of the endomorphisms of M with image in rad M: the solutions
    of f_v x = 0 at every vertex v and for every x in the right kernel of
    the rows spanning rad M_v, among the endomorphisms."""
    extra, offset = [], 0
    for v, d in enumerate(rep.dims):
        for col in linalg.nullspace(radical_rows(rep, v), d):  # the entries r of f_v x
            extra += [{offset + r * d + k: x for k, x in col.items()} for r in range(d)]
        offset += d * d
    return _solve_hom(rep, rep, extra)
