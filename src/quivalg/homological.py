"""Dominant dimension and the double centraliser test.

Which indecomposable projectives are injective is decided once per algebra,
from their socle dimension vectors read off the path basis, and kept as a
per-vertex table; selfinjectivity, the minimal faithful projective-injective
module and the projectivity of coresolution terms are all read from it.
The minimal injective coresolution of the regular module is generated
lazily: each term is decided from a socle, and exact envelopes and
cokernels are built only to reach the next term; the dominant dimension
counts its leading projective terms.  The corner algebra fAf of the
minimal faithful projective-injective left module and the commutant of its
right action on Af give the double centraliser check.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice

from . import linalg
from .endo import monomial_basic_algebra
from .errors import DomDimZeroError
from .monomial import Side
from .representations import (
    commutation_equations,
    envelope_dim,
    injective_envelope,
    quotient_by,
    regular_module,
    socle_dims,
)


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


# I_k is the sum of the I_s over ``vertices``; ``envelope()`` returns
# (I_k, embedding N_k -> I_k, vertices), built on the first call only
CoresolutionTerm = namedtuple("CoresolutionTerm", ["vertices", "projective", "envelope"])


def injective_coresolution(algebra):
    """Lazily yield the terms of the minimal injective coresolution of the
    regular module, where N_0 = A and N_{k+1} is the cokernel of
    N_k -> I_k; stops at a zero cokernel.

    A term is read off soc(N_k): its vertices are the socle vertices s
    with multiplicity.  soc(A) is the sum of the socles of the P_v, read
    off the path basis, and a later socle is read off ranks.  I_s = D(P_s)
    for P_s projective over the opposite algebra, and D takes injective
    modules over the opposite algebra to projective ones, so I_k is
    projective exactly when every s lies in the opposite algebra's
    projective-injective table.  The
    envelope of N_k and N_{k+1} are built only when the next term is
    requested.
    """
    opposite_table = projective_injective_vertices(algebra.opposite())
    n = algebra.quiver.vertex_count
    socle = [sum(d) for d in zip(*(algebra.socle_dims(v) for v in range(n)))]
    build = lambda: injective_envelope(regular_module(algebra))  # N_0 = A only if needed
    while True:
        vertices = tuple(s for s, d in enumerate(socle) for _ in range(d))
        envelope = cache(build)
        yield CoresolutionTerm(vertices, all(s in opposite_table for s in vertices), envelope)
        env, emb, _ = envelope()
        module = quotient_by(env, emb.vertex_maps)[0]
        if module.is_zero:
            return
        socle = socle_dims(module)
        build = partial(injective_envelope, module)


def is_selfinjective(algebra):
    """True when the regular right module is injective."""
    return len(projective_injective_vertices(algebra)) == algebra.quiver.vertex_count


def dominant_dimension(algebra, cutoff=12):
    """Number of leading projective terms of the minimal injective
    coresolution; 0 when the first term is not projective, infinite for
    selfinjective algebras and when the coresolution ends within the cutoff
    with all terms projective, a lower bound when ``cutoff`` terms are all
    projective.  No envelope is built for a non-projective term or for the
    cutoff-th term: a term is decided from its socle, and its envelope is
    built only to reach the next one."""
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


def minimal_faithful_proj_inj(algebra, side=Side.RIGHT):
    """Vertices whose indecomposable projectives on the given side are also
    injective, when their direct sum is faithful; None otherwise (dominant
    dimension zero).  Cached next to the projective-injective table of the
    algebra whose right projectives these are: A, or its opposite for LEFT."""
    work = algebra if side is Side.RIGHT else algebra.opposite()
    key = ("faithful_proj_inj",)
    if key not in work._cache:
        verts = projective_injective_vertices(work)
        work._cache[key] = verts if verts and _suffix_faithful(work, verts) else None
    return work._cache[key]


def base_algebra(algebra):
    """The corner algebra fAf for the minimal faithful projective-injective
    left module Af; raises DomDimZero when there is none."""
    verts = minimal_faithful_proj_inj(algebra, Side.LEFT)
    if verts is None:
        raise DomDimZeroError("the algebra has dominant dimension zero")
    return monomial_basic_algebra(algebra, verts)


@dataclass(frozen=True)
class DoubleCentralizerResult:
    holds: bool
    dim_algebra: int
    dim_commutant: object = None  # int, or None when dominant dimension is 0


def double_centralizer_check(algebra):
    """Compare dim A against the commutant of the right fAf-action on Af.

    Af has basis the nonzero paths ending in supp(f); left multiplication
    embeds A into the commutant because Af is faithful, so equality of
    dimensions is the double centraliser property.
    """
    verts = minimal_faithful_proj_inj(algebra, Side.LEFT)
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
