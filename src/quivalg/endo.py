"""Structure-constant algebras: endomorphism rings and corner algebras fAf.

A BasicAlgebra is an exact multiplication table held block by block: a
basis of each e_i C e_j for a complete set of orthogonal primitive
idempotents, whose first element in e_i C e_i is e_i and whose other
elements span the radical, and the products of one block pair per
summand triple.  Two constructors produce them: the span of all paths of
a monomial algebra between a chosen set of vertices, and End_B(M) for a
basic module M with indecomposable summands whose endomorphism rings are
local (each hom-space basis is a reduced kernel basis, so a morphism
product's coordinates are its entries at the basis's free cells; End(U)
has the identity, then the endomorphisms with image in rad U).
Blocks hold nonzero products only.  The product blocks of End_B(M) are
the context's cached blocks of composites, one per summand triple, and a
composite with an identity factor is read off the hom-space basis
instead of computed.  The Gabriel quiver, the socles and the Kupisch
series are read off the blocks.

The product is written in function-composition order: for endomorphism
algebras x * y applies y first, which makes End_B(B) literally carry the
multiplication of B.
"""

import itertools
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import NotBasicError, NotLocalError
from .quiver import Arrow, Quiver, degrees_at_most_one, kupisch_walk
from .representations import Morphism, hom_dim, hom_space, radical_endomorphisms
from .nakayama import KupischSeries


class BasicAlgebra:
    """Finite dimensional basic algebra given by exact structure constants,
    held block by block.

    ``dims[(i, j)]`` is dim e_i C e_j, stored when nonzero; element 0 of
    e_i C e_i is e_i and every other element of a block is radical.
    ``blocks[(i, m, j)]`` lists the nonzero products x*y of x in e_i C e_m
    and y in e_m C e_j as (x index, y index, coordinates) triples, each
    index local to its block and the coordinates ((z, c), ...) over
    e_i C e_j; a triple without one may be left out.  ``payloads[(i, j)]``
    keeps the path or morphism each basis element of a block came from.
    """

    def __init__(self, num_summands, dims, blocks, payloads):
        self.num_summands = num_summands
        self.dims = dims
        self.blocks = blocks
        self.payloads = payloads

    @property
    def dimension(self):
        return sum(self.dims.values())

    @cached_property
    def _gabriel(self):
        """Gabriel quiver plus radical generators (a basis of rad mod rad^2),
        the generators as (i, j, local index)."""
        squares = {}  # block -> coordinates of the products spanning its part of rad^2
        for (i, m, j), block in self.blocks.items():
            for kx, ky, coords in block:
                if (kx or i != m) and (ky or m != j):
                    if i == j and any(not z for z, _ in coords):
                        raise ValueError("rad * rad escaped the radical span")
                    squares.setdefault((i, j), []).append(coords)
        arrows, generators = [], []
        for (i, j), dim in sorted(self.dims.items()):
            # a radical element is a generator when it is independent of
            # rad^2 and of the radical elements before it: when no echelon
            # row of rad^2 ends at it; element z is column -z, so a row's
            # pivot is its last element
            rows = [{-z: x for z, x in coords} for coords in squares.get((i, j), ())]
            pivots = {-p for p in linalg.echelon(rows, dim)}
            for k in range(i == j, dim):
                if k not in pivots:
                    generators.append((i, j, k))
                    arrows.append(Arrow(f"g{len(arrows)}", i, j))
        return Quiver(self.num_summands, tuple(arrows)), tuple(generators)

    def radical_generators(self):
        return self._gabriel[1]


def monomial_basic_algebra(algebra, vertices):
    """The corner algebra spanned by all basis paths with both endpoints in
    ``vertices``; used for fAf, and with all vertices for viewing a
    monomial algebra through the BasicAlgebra interface."""
    pos = {v: i for i, v in enumerate(sorted(vertices))}
    payloads = {}  # the basis is sorted by length, so e_v comes first in its block
    for p in algebra.basis:
        if p.source in pos and p.target in pos:
            payloads.setdefault((pos[p.source], pos[p.target]), []).append(p)
    index = {p: k for paths in payloads.values() for k, p in enumerate(paths)}
    blocks = {}
    for (i, m), left in payloads.items():
        for j in range(len(pos)):
            if (m, j) in payloads and (i, j) in payloads:
                prods = ((kx, ky, algebra.multiply(p, q)) for kx, p in enumerate(left)
                         for ky, q in enumerate(payloads[(m, j)]))
                blocks[(i, m, j)] = [(kx, ky, ((index[r], Fraction(1)),))
                                     for kx, ky, r in prods if r is not None]
    dims = {key: len(paths) for key, paths in payloads.items()}
    return BasicAlgebra(len(pos), dims, blocks, payloads)


class EndomorphismContext:
    """Shared hom-space and composition caches over a fixed universe of
    indecomposable modules, so that many endomorphism algebras with
    summands drawn from the universe can be assembled cheaply."""

    def __init__(self, universe):
        if not universe:
            raise ValueError("empty universe")
        self.universe = list(universe)
        self.algebra = self.universe[0].algebra
        for rep in self.universe:
            if rep.algebra != self.algebra:
                raise ValueError("universe modules live over different algebras")
            if rep.is_zero:
                raise ValueError("zero modules cannot be summands")
        self._hom = {}
        self._cells = {}
        self._blocks = {}
        self._isomorphic = {}

    def hom(self, a, b):
        """Basis of Hom(U_a, U_b); for a == b the first element is the
        identity and the rest is a basis of the radical of End(U_a)."""
        key = (a, b)
        if key not in self._hom:
            self._hom[key] = (self._normalized_end(a) if a == b
                              else hom_space(self.universe[a], self.universe[b]))
        return self._hom[key]

    def _normalized_end(self, a):
        """The identity, then a basis of the endomorphisms with zero top
        map; raises NotLocal unless those span a hyperplane of End(U_a)."""
        rep = self.universe[a]
        radicals = radical_endomorphisms(rep)
        if len(radicals) != hom_dim(rep, rep) - 1:
            raise NotLocalError("endomorphism ring is not local")
        return [Morphism(rep, rep, [linalg.identity(d) for d in rep.dims])] + radicals

    def _free_cells(self, a, b):
        """(k, cell) for each element k of the Hom(U_a, U_b) basis but the
        identity of End(U_a): the last cell (v, r, c) where it is nonzero."""
        key = (a, b)
        if key not in self._cells:
            self._cells[key] = [
                (k, max((v, r, c) for v, m in enumerate(f.vertex_maps)
                        for r, row in enumerate(m) for c in row))
                for k, f in enumerate(self.hom(a, b)) if k or a != b]
        return self._cells[key]

    def compose_coords(self, dom, mid, cod, g_idx, f_idx):
        """Coordinates of f o g (g: U_dom -> U_mid first, then
        f: U_mid -> U_cod) over the basis of Hom(U_dom, U_cod): its entries
        at the basis's free cells.  Each basis is a :func:`linalg.nullspace`
        basis over the cells (v, r, c) in column order, after the identity
        for End(U); a radical basis found otherwise (by a trace form, say)
        must be reduced to that form.  A composite into End(U) has identity
        coordinate 0, being radical or factoring through a summand not
        isomorphic to U, as NotLocal and NotBasic guarantee.  Only those
        entries are computed: row r of g's map at v times column c of f's."""
        g = self.hom(dom, mid)[g_idx].vertex_maps
        f = self.hom(mid, cod)[f_idx].vertex_maps
        coords = ((k, sum(x * f[v][t].get(c, 0) for t, x in g[v][r].items()))
                  for k, (v, r, c) in self._free_cells(dom, cod))
        return tuple((k, x) for k, x in coords if x)

    def composites(self, dom, mid, cod):
        """The nonzero composites f o g of basis elements g of
        Hom(U_dom, U_mid) and f of Hom(U_mid, U_cod), as (f index,
        g index, coordinates) triples; an identity factor (index 0 of an
        End(U_a) basis) gives the other factor's unit vector."""
        key = (dom, mid, cod)
        if key not in self._blocks:
            self._blocks[key] = block = []
            for f_idx, g_idx in itertools.product(range(len(self.hom(mid, cod))),
                                                  range(len(self.hom(dom, mid)))):
                if dom == mid and g_idx == 0:
                    block.append((f_idx, g_idx, ((f_idx, 1),)))
                elif mid == cod and f_idx == 0:
                    block.append((f_idx, g_idx, ((g_idx, 1),)))
                elif self.hom(dom, cod):  # else every composite is zero
                    coords = self.compose_coords(dom, mid, cod, g_idx, f_idx)
                    if coords:
                        block.append((f_idx, g_idx, coords))
        return self._blocks[key]

    def is_isomorphic(self, a, b):
        """Complete for indecomposable U_a, U_b: the non-isomorphisms form a
        proper subspace of Hom(U_a, U_b), so a basis element is an
        isomorphism whenever one exists."""
        if self.universe[a].dims != self.universe[b].dims:
            return False
        if a == b:
            return True
        if (a, b) not in self._isomorphic:
            self._isomorphic[(a, b)] = any(f.is_isomorphism() for f in self.hom(a, b))
        return self._isomorphic[(a, b)]

    def endo_algebra(self, subset):
        """End of the direct sum of the universe modules listed in
        ``subset``, as a BasicAlgebra."""
        subset = list(subset)
        for i in range(len(subset)):
            for j in range(i + 1, len(subset)):
                if self.is_isomorphic(subset[i], subset[j]):
                    raise NotBasicError(
                        f"summands {subset[i]} and {subset[j]} are isomorphic")
        n = len(subset)
        payloads = {(bi, bj): homs for bi in range(n) for bj in range(n)
                    if (homs := self.hom(subset[bj], subset[bi]))}
        dims = {key: len(homs) for key, homs in payloads.items()}
        after = {}  # bm -> the bj with e_bm C e_bj nonzero
        for bm, bj in dims:
            after.setdefault(bm, []).append(bj)
        # a product block is the cached composites block of its summands
        blocks = {}
        for bi, bm in dims:
            for bj in after[bm]:
                if (bi, bj) in dims:
                    block = self.composites(subset[bj], subset[bm], subset[bi])
                    if block:
                        blocks[(bi, bm, bj)] = block
        return BasicAlgebra(n, dims, blocks, payloads)


def endomorphism_algebra(summands):
    """End_B(M) for a basic list of indecomposable modules with local
    endomorphism rings; raises NotBasic / NotLocal otherwise.  End(U) passes
    as local when the endomorphisms with image in rad U, all nilpotent, form
    a hyperplane: when End(U) acts on top U by scalars.  A local End whose
    radical moves the top, as no uniserial's does, fails too."""
    ctx = EndomorphismContext(summands)
    return ctx.endo_algebra(range(len(summands)))


def gabriel_quiver(c):
    """One vertex per summand and dim e_i (rad / rad^2) e_j arrows i -> j."""
    return c._gabriel[0]


def is_nakayama_algebra(c):
    """True when every vertex of the Gabriel quiver has at most one arrow in
    and at most one arrow out, i.e. each component is an oriented line or
    cycle."""
    return degrees_at_most_one(gabriel_quiver(c))


def is_qf2_algebra(c):
    """Simple right socle for every e_i C and simple left socle for every
    C e_i, computed against generators of the radical."""
    generators, d, n = c.radical_generators(), c.dimension, c.num_summands
    column = {g: gn * d for gn, g in enumerate(generators)}  # generator -> first column
    # side 0 holds e_i C for each i, side 1 holds C e_j for each j
    sizes, rows = [[0] * n, [0] * n], [[{} for _ in range(n)] for _ in range(2)]
    for (i, j), dim in c.dims.items():
        sizes[0][i] += dim
        sizes[1][j] += dim
    # x is in the socle when x g = 0 (g x = 0 on the left) for every
    # generator g; the products by one generator fill one column range.
    # A product x y of block (i, m, j) with y a generator fills row x, keyed
    # (m, kx), of e_i C; with x a generator, it fills row y, (m, ky), of C e_j
    for (i, m, j), block in c.blocks.items():
        for kx, ky, coords in block:
            if (g := column.get((m, j, ky))) is not None:
                row = rows[0][i].setdefault((m, kx), {})
                for z, x in coords:
                    row[g + z] = x
            if (g := column.get((i, m, kx))) is not None:
                row = rows[1][j].setdefault((m, ky), {})
                for z, x in coords:
                    row[g + z] = x
    return all(size - linalg.rank(list(module.values()), len(generators) * d) == 1
               for side in (0, 1) for size, module in zip(sizes[side], rows[side]))


def kupisch_reading(c):
    """The Kupisch series of a connected Nakayama BasicAlgebra read along
    its Gabriel quiver, and the summands in that walk order; None when not
    applicable."""
    walk = kupisch_walk(gabriel_quiver(c))
    if walk is None:
        return None
    shape, order = walk
    lengths = [sum(dim for (i, _), dim in c.dims.items() if i == v) for v in order]
    return KupischSeries(shape, tuple(lengths)), order


def kupisch_of_endo(c):
    """The series of :func:`kupisch_reading`, rotation-canonical, or None."""
    reading = kupisch_reading(c)
    return reading[0].canonical() if reading else None
