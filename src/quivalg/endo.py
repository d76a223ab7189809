"""Structure-constant algebras: endomorphism rings and corner algebras fAf.

A BasicAlgebra is an exact multiplication table together with a marked
complete set of orthogonal primitive idempotents and a structural radical
basis.  Elements are tagged by the idempotent pair (i, j) with
x = e_i x e_j.  Two constructors produce them: the span of all paths of a
monomial algebra between a chosen set of vertices, and End_B(M) for a
basic module M with indecomposable summands whose endomorphism rings are
local (each hom-space basis is a reduced kernel basis, so a morphism
product's coordinates are its entries at the basis's free cells; End(U)
has the identity, then the endomorphisms with image in rad U).
Tables hold nonzero products only.  End_B(M) is assembled from cached
blocks of composites, one per summand triple, and a composite with an
identity factor is read off the hom-space basis instead of computed.

The product is written in function-composition order: for endomorphism
algebras x * y applies y first, which makes End_B(B) literally carry the
multiplication of B.
"""

import itertools
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import NotBasicError, NotLocalError
from .quiver import (
    Arrow,
    Quiver,
    QuiverShape,
    connected_components,
    induced_subquiver,
    is_connected,
    kupisch_walk,
    shape_classify,
)
from .representations import Morphism, hom_space, radical_endomorphisms
from .nakayama import KupischSeries


class BasicAlgebra:
    """Finite dimensional basic algebra given by exact structure constants.

    ``tags[x] = (i, j)`` records x in e_i C e_j.  ``products[x]`` is a
    sparse row ``{y: ((z, c), ...)}`` holding the coefficient vector of
    x*y for every y with x*y != 0, and no other y.  ``radical`` lists the
    indices of a basis of rad C, and ``payloads`` keeps the path or
    morphism each basis element came from.
    """

    def __init__(self, num_summands, idempotents, tags, products, radical, payloads):
        self.num_summands = num_summands
        self.idempotents = tuple(idempotents)
        self.tags = tuple(tags)
        self.products = products
        self.radical = tuple(radical)
        self.payloads = tuple(payloads)

    @property
    def dimension(self):
        return len(self.tags)

    def right_block(self, i):
        """Basis indices of the right projective e_i C."""
        return [x for x in range(self.dimension) if self.tags[x][0] == i]

    def left_block(self, i):
        """Basis indices of the left projective C e_i."""
        return [x for x in range(self.dimension) if self.tags[x][1] == i]

    @cached_property
    def _gabriel(self):
        """Gabriel quiver plus radical generators (a basis of rad mod rad^2)."""
        n = self.num_summands
        rad_set = set(self.radical)
        rad_blocks = {}
        for x in self.radical:
            rad_blocks.setdefault(self.tags[x], []).append(x)
        # columns run backwards in a block: an echelon row's pivot is its last element
        pos_in_block = {x: len(xs) - 1 - k for xs in rad_blocks.values() for k, x in enumerate(xs)}
        squares = {}  # block -> sparse vectors spanning that block of rad^2
        for x in self.radical:
            for y, prod in self.products[x].items():
                if y not in rad_set:
                    continue
                if any(z not in rad_set for z, _ in prod):
                    raise ValueError("rad * rad escaped the radical span")
                key = (self.tags[x][0], self.tags[y][1])
                squares.setdefault(key, []).append({pos_in_block[z]: c for z, c in prod})
        arrows, generators = [], []
        for key in sorted(rad_blocks):
            # a radical element is a generator when it is independent of
            # rad^2 and of the radical elements before it: when no echelon
            # row of rad^2 ends at it
            red = linalg.rref(squares.get(key, []), len(rad_blocks[key]))
            for x in rad_blocks[key]:
                if pos_in_block[x] not in red:
                    generators.append(x)
                    arrows.append(Arrow(f"g{len(arrows)}", key[0], key[1]))
        return Quiver(n, tuple(arrows)), tuple(generators)

    def radical_generators(self):
        return self._gabriel[1]


def monomial_basic_algebra(algebra, vertices):
    """The corner algebra spanned by all basis paths with both endpoints in
    ``vertices``; used for fAf, and with all vertices for viewing a
    monomial algebra through the BasicAlgebra interface."""
    verts = sorted(vertices)
    vset = set(verts)
    pos = {v: i for i, v in enumerate(verts)}
    paths = [p for p in algebra.basis if p.source in vset and p.target in vset]
    index = {p: x for x, p in enumerate(paths)}
    tags = [(pos[p.source], pos[p.target]) for p in paths]
    idempotents = [index[algebra.quiver.trivial_path(v)] for v in verts]
    leaving = {v: [(y, q) for y, q in enumerate(paths) if q.source == v] for v in verts}
    products = []
    for p in paths:
        prods = ((y, algebra.multiply(p, q)) for y, q in leaving[p.target])
        products.append({y: ((index[r], Fraction(1)),) for y, r in prods if r is not None})
    radical = [x for x, p in enumerate(paths) if p.length >= 1]
    return BasicAlgebra(len(verts), idempotents, tags, products, radical, payloads=paths)


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
        if len(radicals) != len(hom_space(rep, rep)) - 1:
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
        isomorphic to U, as NotLocal and NotBasic guarantee."""
        comp = self.hom(dom, mid)[g_idx].then(self.hom(mid, cod)[f_idx])
        coords = ((k, comp.vertex_maps[v][r].get(c))
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
        start = {}  # tag (i, j) -> index of the first basis element of e_i C e_j
        tags, payloads = [], []
        for bi in range(n):
            for bj in range(n):
                homs = self.hom(subset[bj], subset[bi])
                if homs:
                    start[(bi, bj)] = len(tags)
                    tags += [(bi, bj)] * len(homs)
                    payloads += homs
        products = [{} for _ in tags]
        for (bi, bm), x0 in start.items():
            for bj in range(n):
                if (bm, bj) in start:
                    y0, z0 = start[(bm, bj)], start.get((bi, bj))
                    for kx, ky, coords in self.composites(subset[bj], subset[bm], subset[bi]):
                        products[x0 + kx][y0 + ky] = tuple((z0 + z, c) for z, c in coords)
        idempotents = [start[(i, i)] for i in range(n)]
        radical = [x for x, tag in enumerate(tags) if x != start[tag] or tag[0] != tag[1]]
        return BasicAlgebra(n, idempotents, tags=tags, products=products,
                            radical=radical, payloads=payloads)


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
    """True when every connected component of the Gabriel quiver is an
    oriented line or cycle."""
    quiver = gabriel_quiver(c)
    for comp in connected_components(quiver):
        sub = induced_subquiver(quiver, comp)
        if shape_classify(sub) is QuiverShape.NOT_NAKAYAMA:
            return False
    return True


def is_qf2_algebra(c):
    """Simple right socle for every e_i C and simple left socle for every
    C e_i, computed against generators of the radical."""
    gens = {g: gi for gi, g in enumerate(c.radical_generators())}
    d = c.dimension
    # x is in the socle when x g = 0 (g x = 0 on the left) for every
    # generator g; the products fill disjoint column ranges
    right = [{gens[g] * d + z: coeff for g, prod in row.items() if g in gens
              for z, coeff in prod} for row in c.products]
    left = [{} for _ in range(d)]
    for g, gi in gens.items():
        for x, prod in c.products[g].items():
            left[x].update((gi * d + z, coeff) for z, coeff in prod)
    for i in range(c.num_summands):
        for rows in ([right[x] for x in c.right_block(i)], [left[x] for x in c.left_block(i)]):
            if len(rows) - linalg.rank(rows, len(gens) * d) != 1:
                return False
    return True


def kupisch_reading(c):
    """The Kupisch series of a connected Nakayama BasicAlgebra read along
    its Gabriel quiver, and the summands in that walk order; None when not
    applicable."""
    quiver = gabriel_quiver(c)
    walk = kupisch_walk(quiver) if is_connected(quiver) else None
    if walk is None:
        return None
    shape, order = walk
    return KupischSeries(shape, tuple(len(c.right_block(v)) for v in order)), order


def kupisch_of_endo(c):
    """The series of :func:`kupisch_reading`, rotation-canonical, or None."""
    reading = kupisch_reading(c)
    return reading[0].canonical() if reading else None
