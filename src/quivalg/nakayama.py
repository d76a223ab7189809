"""Kupisch-series combinatorics for Nakayama algebras.

A Nakayama algebra is determined, up to rotation of a cyclic quiver, by the
sequence of dimensions of its indecomposable projectives read along the
arrows.  This module converts between length sequences and monomial
presentations, enumerates all admissible sequences below given bounds, and
produces the uniserial modules entering the classification of
endomorphism algebras of generator-cogenerators.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .errors import InvalidKupischError, NotNakayamaError, UniserialLengthError
from .monomial import MonomialAlgebra
from .quiver import Arrow, Quiver, QuiverShape, kupisch_walk
from . import linalg
from .representations import Representation


@dataclass(frozen=True)
class KupischSeries:
    shape: QuiverShape
    lengths: tuple

    def __post_init__(self):
        c = self.lengths
        n = len(c)
        if n == 0 or any(x < 1 for x in c):
            raise InvalidKupischError("lengths must be a nonempty sequence of positive integers")
        if self.shape is QuiverShape.LINEAR:
            if c[-1] != 1:
                raise InvalidKupischError("a linear series ends with 1")
            for i in range(n - 1):
                if not 2 <= c[i] <= c[i + 1] + 1:
                    raise InvalidKupischError(
                        f"linear series needs 2 <= c[{i}] <= c[{i + 1}] + 1")
        elif self.shape is QuiverShape.CYCLIC:
            if any(x < 2 for x in c):
                raise InvalidKupischError("a cyclic series needs every length >= 2")
            for i in range(n):
                if c[(i + 1) % n] < c[i] - 1:
                    raise InvalidKupischError(
                        f"cyclic series needs c[{(i + 1) % n}] >= c[{i}] - 1")
        else:
            raise InvalidKupischError("shape must be LINEAR or CYCLIC")

    @property
    def vertex_count(self):
        return len(self.lengths)

    def canonical(self):
        """Rotation-canonical form: cyclic series use the lexicographically
        greatest rotation, linear series are already canonical."""
        if self.shape is QuiverShape.LINEAR:
            return self
        n = len(self.lengths)
        best = max(tuple(self.lengths[(i + k) % n] for k in range(n)) for i in range(n))
        return KupischSeries(QuiverShape.CYCLIC, best)

    def __str__(self):
        return f"{self.shape.value}:" + ",".join(str(c) for c in self.lengths)


def parse_kupisch(text):
    """Parse ``linear:c1,...,1`` or ``cyclic:c0,...`` into a series."""
    head, sep, tail = text.strip().partition(":")
    if not sep:
        raise InvalidKupischError(f"missing 'linear:' or 'cyclic:' prefix in {text!r}")
    shapes = {"linear": QuiverShape.LINEAR, "cyclic": QuiverShape.CYCLIC}
    if head.strip() not in shapes:
        raise InvalidKupischError(f"unknown shape {head.strip()!r}")
    try:
        lengths = tuple(int(x.strip()) for x in tail.split(","))
    except ValueError as exc:
        raise InvalidKupischError(f"bad length list in {text!r}") from exc
    return KupischSeries(shapes[head.strip()], lengths)


def kupisch_to_algebra(ks):
    """The monomial algebra of a Kupisch series: an oriented line or cycle
    with the minimal relations cutting each projective down to length c_i."""
    n = ks.vertex_count
    cyclic = ks.shape is QuiverShape.CYCLIC
    quiver = Quiver(n, tuple(Arrow(f"a{i}", i, (i + 1) % n) for i in range(n if cyclic else n - 1)))
    relations = [quiver.path_from_indices(tuple((i + k) % n for k in range(c)))
                 for i, c in enumerate(ks.lengths) if cyclic or (c >= 2 and i + c <= n - 1)]
    return MonomialAlgebra(quiver, tuple(relations))


def algebra_to_kupisch(algebra):
    """Kupisch series of a Nakayama-shaped monomial algebra, or None.

    Cyclic series are returned in rotation-canonical form; linear series
    follow the orientation of the chain.
    """
    walk = kupisch_walk(algebra.quiver)
    if walk is None:
        return None
    shape, order = walk
    ks = KupischSeries(shape, tuple(len(algebra.paths_from(v)) for v in order))
    return ks.canonical()


def uniserial_module(algebra, top_vertex, length):
    """The uniserial right module with the given top and composition length
    over a Nakayama-shaped algebra (a quotient of the projective at the
    top vertex by a radical power)."""
    quiver = algebra.quiver
    if not 1 <= length <= len(algebra.paths_from(top_vertex)):
        raise UniserialLengthError(
            f"no uniserial of length {length} with top at vertex index {top_vertex}")
    verts = [top_vertex]
    steps = []
    p = quiver.trivial_path(top_vertex)
    for _ in range(length - 1):
        outs = quiver.out_arrows[p.target]
        if len(outs) != 1:
            raise NotNakayamaError("uniserial construction needs a line or cycle quiver")
        p = algebra.extend_by_arrow(p, outs[0])
        steps.append(outs[0])
        verts.append(p.target)
    dims = [0] * quiver.vertex_count
    pos = []  # the coordinate of the k-th composition factor within its vertex space
    for v in verts:
        pos.append(dims[v])
        dims[v] += 1
    maps = [linalg.zeros(dims[a.source]) for a in quiver.arrows]
    for k, a in enumerate(steps):
        maps[a][pos[k]][pos[k + 1]] = 1
    rep = Representation(algebra, dims, maps)
    rep._check_relations()
    return rep


def injective_uniserial_id(algebra, v):
    """(top, length) of the indecomposable injective at v, combinatorially:
    its length counts the paths into v and its top sits at the source of
    the longest one."""
    into = algebra.paths_into(v)
    longest = max(into, key=lambda p: p.length)
    return (longest.source, len(into))


def allowed_summand_ids(algebra):
    """(top, length) ids of the distinct indecomposables among projectives,
    injectives and injectives-mod-socle."""
    if kupisch_walk(algebra.quiver) is None:
        raise NotNakayamaError("allowed summands are defined over Nakayama algebras")
    ids = set(mandatory_summand_ids(algebra))
    for v in range(algebra.quiver.vertex_count):
        t, l = injective_uniserial_id(algebra, v)
        if l >= 2:
            ids.add((t, l - 1))
    return tuple(sorted(ids))


def mandatory_summand_ids(algebra):
    """Ids of all indecomposable projectives and injectives (deduplicated)."""
    n = algebra.quiver.vertex_count
    ids = set()
    for v in range(n):
        ids.add((v, len(algebra.paths_from(v))))
        ids.add(injective_uniserial_id(algebra, v))
    return tuple(sorted(ids))


def all_uniserial_ids(algebra):
    n = algebra.quiver.vertex_count
    return tuple(sorted((v, l) for v in range(n)
                        for l in range(1, len(algebra.paths_from(v)) + 1)))


def gen_cogen_candidate_ids(algebra, full_universe=False):
    """All basic generator-cogenerators, as sorted tuples of (top, length).

    The universe is the allowed-summand set by default; with
    ``full_universe`` every uniserial indecomposable may appear, which is
    the universe needed to test the only-if direction of the endomorphism
    classification.
    """
    mandatory = mandatory_summand_ids(algebra)
    universe = all_uniserial_ids(algebra) if full_universe else allowed_summand_ids(algebra)
    optional = sorted(set(universe) - set(mandatory))
    return sorted(tuple(sorted(mandatory + chosen))
                  for r in range(len(optional) + 1) for chosen in combinations(optional, r))


def enumerate_kupisch(max_n, max_c):
    """All Kupisch series with at most max_n vertices and lengths at most
    max_c; cyclic series are rotation-canonical.  Deterministic order:
    linear first, then cyclic, each sorted by (n, lengths)."""
    if max_n < 1 or max_c < 1:
        raise ValueError("bounds must be at least 1")
    linear = []

    def extend_linear(suffix):
        if len(suffix) <= max_n:
            linear.append(tuple(suffix))
        if len(suffix) == max_n:
            return
        lo, hi = 2, min(max_c, suffix[0] + 1)
        for c in range(lo, hi + 1):
            extend_linear([c] + suffix)

    extend_linear([1])
    cyclic = set()
    if max_c >= 2:
        for n in range(1, max_n + 1):
            for tup in product(range(2, max_c + 1), repeat=n):
                if all(tup[(i + 1) % n] >= tup[i] - 1 for i in range(n)):
                    cyclic.add(KupischSeries(QuiverShape.CYCLIC, tup).canonical().lengths)
    out = [KupischSeries(QuiverShape.LINEAR, t) for t in sorted(linear, key=lambda t: (len(t), t))]
    out += [KupischSeries(QuiverShape.CYCLIC, t) for t in sorted(cyclic, key=lambda t: (len(t), t))]
    return out


def is_selfinjective_kupisch(ks):
    """Selfinjective Nakayama algebras are the constant cyclic series and
    the simple algebra."""
    if ks.shape is QuiverShape.CYCLIC:
        return len(set(ks.lengths)) == 1
    return ks.vertex_count == 1
