"""Dominant dimension and the double centraliser test.

Which indecomposable projectives are injective is decided once per algebra,
from their socle dimension vectors read off the path basis, and kept as a
per-vertex table; selfinjectivity, the minimal faithful projective-injective
module and the projectivity of coresolution terms are all read from it.
The minimal injective coresolution of the regular module is generated
lazily as the dual of the minimal projective resolution of D(A) over the
opposite algebra: the first term is read off the projective socles, and
each later one off the top of a syzygy, held as sparse rows over the path
coordinates of the previous projective; the dominant dimension counts its
leading projective terms.  The corner algebra fAf of the
minimal faithful projective-injective left module and the commutant of its
right action on Af give the double centraliser check.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import islice

from . import linalg
from .endo import monomial_basic_algebra
from .errors import DomDimZeroError
from .representations import commutation_equations, envelope_dim


@dataclass(frozen=True)
class DomDim:
    """Dominant dimension value: an exact natural number, a lower bound
    established by a truncated coresolution, or infinity."""

    kind: str  # "finite" | "at_least" | "infinite"
    value: int = 0

    @classmethod
    def finite(cls, n):
        return cls("finite", n)

    @classmethod
    def at_least(cls, n):
        return cls("at_least", n)

    @classmethod
    def infinite(cls):
        return cls("infinite")

    def ge(self, k):
        """True when the dominant dimension is certainly >= k."""
        if self.kind == "infinite":
            return True
        return self.value >= k

    def __str__(self):
        if self.kind == "infinite":
            return "infinity"
        if self.kind == "at_least":
            return f">={self.value}"
        return str(self.value)


def projective_injective_vertices(algebra):
    """The vertices v whose indecomposable projective P_v is injective: those
    where the envelope forced by the socle of P_v, read off the path basis,
    has dim P_v.  Computed once per algebra and cached; every other
    projective-injectivity question reads this table."""
    key = ("proj_inj",)
    if key not in algebra._cache:
        algebra._cache[key] = tuple(
            v for v in range(algebra.quiver.vertex_count)
            if envelope_dim(algebra, algebra.socle_dims(v)) == len(algebra._path_index.sources[v]))
    return algebra._cache[key]


# the I_s that I_k sums, sorted by s, and whether I_k is projective
CoresolutionTerm = namedtuple("CoresolutionTerm", ["vertices", "projective"])


def _path_action(extensions):
    """The action of an arrow of B on rows over the path coordinates (g, x)
    of a sum of projectives e_v B: x goes to its extension or to zero."""
    return lambda row, a: {(g, extensions[x][a]): c for (g, x), c in row.items()
                           if a in extensions[x]}


def _syzygy(opposite, generators, act):
    """Generators, as (vertex, row) pairs sorted by vertex, of the syzygy of
    the module M over B = ``opposite`` generated by ``generators``, (v, row
    of M_v) pairs, where ``act(row, a)`` is the action of the arrow a.

    The cover sends the path x of the g-th summand e_v B to its generator's
    row times x; at z its kernel is the left kernel of those rows, kept as
    rows over the path coordinates (g, x).  The kernel rows lead (least
    coordinate) with distinct coordinates, so those leading outside the
    pivots of the radical, the rows y's in-arrows bring in, are independent
    modulo it and complete it."""
    index, quiver = opposite._path_index, opposite.quiver
    n = quiver.vertex_count
    kernel = [[] for _ in range(n)]  # a path sent to zero is a kernel row of its own
    images = [[] for _ in range(n)]  # per vertex z: (path coordinate, nonzero row of M_z)
    for g, (v, row) in enumerate(generators):
        vec = {v: row}  # e_v is basis path v
        for i in index.sources[v]:  # in basis order, so prefixes come first
            for a, j in index.extensions[i].items():
                vec[j] = act(vec[i], a)
        for z, block in enumerate(index.blocks[v]):
            for x in block:
                if vec[x]:
                    images[z].append(((g, x), vec[x]))
                else:
                    kernel[z].append({(g, x): 1})
    width = [len(rows) + len(pairs) for rows, pairs in zip(kernel, images)]
    for z, pairs in enumerate(images):
        # decreasing coordinates: a kernel vector is 1 at its free column and
        # nonzero elsewhere only at earlier columns, so it leads there
        pairs.reverse()
        columns = {}  # c M = 0 is one equation per coordinate of M
        for local, (_, row) in enumerate(pairs):
            for c, x in row.items():
                columns.setdefault(c, {})[local] = x
        kernel[z] += [{pairs[local][0]: x for local, x in vec.items()}
                      for vec in linalg.nullspace(list(columns.values()), len(pairs))]
    along = _path_action(index.extensions)
    syzygy_generators = []
    for y, rows in enumerate(kernel):
        if rows:
            radical = [along(row, a) for a in quiver.in_arrows[y]
                       for row in kernel[quiver.arrows[a].source]]
            pivots = linalg.echelon(radical, width[y])
            syzygy_generators += [(y, row) for row in rows if min(row) not in pivots]
    return syzygy_generators


def injective_coresolution(algebra):
    """Lazily yield the terms of the minimal injective coresolution of the
    regular module, where N_0 = A and N_{k+1} is the cokernel of
    N_k -> I_k; stops at a zero cokernel.

    A term's vertices are those of soc(N_k), with multiplicity, and
    I_s = D(e_s B) for B the opposite algebra.  soc(A) is read off the
    path basis.  Dually, D(N_k) is the k-th syzygy of D(A) over B and
    soc(N_k) = D(top D(N_k)), so each later term is the top of a syzygy,
    computed only when that term is requested; no module is built.  D
    takes injective B-modules to projective A-modules, so I_k is projective
    exactly when every s lies in B's projective-injective table.
    """
    opposite = algebra.opposite()
    opposite_table = projective_injective_vertices(opposite)
    n = algebra.quiver.vertex_count
    socle = [sum(d) for d in zip(*(algebra.socle_dims(v) for v in range(n)))]
    vertices = tuple(s for s, d in enumerate(socle) for _ in range(d))
    yield CoresolutionTerm(vertices, all(s in opposite_table for s in vertices))
    # D(A) has the dual basis p* of the paths p of A, generated by the m*
    # for the paths m with no nonzero extension; p* times an arrow a is q*
    # when p = qa, and 0 otherwise
    index = algebra._path_index
    parent = {(j, a): i for i, ext in enumerate(index.extensions) for a, j in ext.items()}
    generators = [(s, {m: 1}) for s in range(n) for m in index.targets[s]
                  if not index.extensions[m]]
    act = lambda row, a: {parent[p, a]: c for p, c in row.items() if (p, a) in parent}
    while generators := _syzygy(opposite, generators, act):
        act = _path_action(opposite._path_index.extensions)
        vertices = tuple(v for v, _ in generators)
        yield CoresolutionTerm(vertices, all(s in opposite_table for s in vertices))


def is_selfinjective(algebra):
    """True when the regular right module is injective."""
    return len(projective_injective_vertices(algebra)) == algebra.quiver.vertex_count


DOMDIM_CUTOFF = 12  # coresolution terms read before domdim is only a lower bound


def dominant_dimension(algebra, cutoff=DOMDIM_CUTOFF):
    """Number of leading projective terms of the minimal injective
    coresolution; 0 when the first term is not projective, infinite for
    selfinjective algebras and when the coresolution ends within the cutoff
    with all terms projective, a lower bound when ``cutoff`` terms are all
    projective.  No syzygy is computed past a non-projective term or past
    the cutoff-th term: the first term is read off the projective socles,
    and each syzygy only to reach the next term."""
    # A is selfinjective exactly when its opposite is, and the opposite's
    # table is the one the coresolution reads
    if is_selfinjective(algebra.opposite()):
        return DomDim.infinite()
    produced = 0
    for term in islice(injective_coresolution(algebra), cutoff):
        if not term.projective:
            return DomDim.finite(produced)
        produced += 1
    if produced < cutoff:
        return DomDim.infinite()
    return DomDim.at_least(cutoff)


def _suffix_faithful(algebra, vertices):
    """Faithfulness of the sum of the projectives at ``vertices``.

    Over a monomial algebra, the annihilator of a sum of path-spanned
    projectives is spanned by paths, and a basis path acts nonzero exactly
    when it is a suffix of some basis path starting in the vertex set.
    """
    vset = set(vertices)
    # (target, arrows) of every suffix, the trivial one at the end included
    suffixes = {(p.target, p.arrows[k:]) for p in algebra.basis if p.source in vset
                for k in range(len(p.arrows) + 1)}
    return all((q.target, q.arrows) in suffixes for q in algebra.basis)


def minimal_faithful_proj_inj(algebra):
    """Vertices whose indecomposable right projectives are also injective,
    when their direct sum is faithful; None otherwise (dominant dimension
    zero).  The left answer is that of the opposite algebra.  Cached next
    to the projective-injective table."""
    key = ("faithful_proj_inj",)
    if key not in algebra._cache:
        verts = projective_injective_vertices(algebra)
        algebra._cache[key] = verts if verts and _suffix_faithful(algebra, verts) else None
    return algebra._cache[key]


def base_algebra(algebra):
    """The corner algebra fAf for the minimal faithful projective-injective
    left module Af; raises DomDimZero when there is none."""
    verts = minimal_faithful_proj_inj(algebra.opposite())
    if verts is None:
        raise DomDimZeroError("the algebra has dominant dimension zero")
    return monomial_basic_algebra(algebra, verts)


@dataclass(frozen=True)
class DoubleCentralizerResult:
    holds: bool
    dim_algebra: int
    dim_commutant: object  # int, or None when dominant dimension is 0


def double_centralizer_check(algebra):
    """Compare dim A against the commutant of the right fAf-action on Af.

    Af has basis the nonzero paths ending in supp(f); left multiplication
    embeds A into the commutant because Af is faithful, so equality of
    dimensions is the double centraliser property.
    """
    verts = minimal_faithful_proj_inj(algebra.opposite())
    if verts is None:
        return DoubleCentralizerResult(False, algebra.dimension, None)
    vset = set(verts)
    blocks = {v: algebra.paths_into(v) for v in verts}
    pos = {v: {p: i for i, p in enumerate(blocks[v])} for v in verts}
    # the commutant blocks Phi_v satisfy Phi_u R_p = R_p Phi_w for every
    # corner path p: u -> w acting on Af by right multiplication R_p
    arrows = []
    for p in algebra.basis:
        if p.source in vset and p.target in vset and not p.is_trivial:
            rmat = linalg.zeros(len(blocks[p.source]))
            for i, q in enumerate(blocks[p.source]):
                prod = algebra.multiply(q, p)
                if prod is not None:
                    rmat[i][pos[p.target][prod]] = 1
            arrows.append((p.source, p.target, rmat, rmat))
    rows, width = commutation_equations(
        [(v, len(blocks[v]), len(blocks[v])) for v in verts], arrows)
    dim_comm = width - linalg.rank(rows, width)
    return DoubleCentralizerResult(dim_comm == algebra.dimension,
                                   algebra.dimension, dim_comm)
