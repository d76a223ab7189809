"""Finite quivers and paths.

Vertices are the integers 0..n-1.  Arrows carry user-chosen string names
but are canonicalized to their declaration index internally.  A path is a
named tuple of its endpoints and its arrow indices, so the trivial path at
a vertex is representable, and paths hash and compare as plain tuples.
Composition is written left to right: ``compose(p, q)`` traverses p first,
matching the right-module conventions used throughout.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import permutations, product
from typing import NamedTuple

from .errors import DisconnectedQuiverError


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


class Path(NamedTuple):
    """A directed path; ``arrows`` lists arrow indices, empty for e_i."""

    source: int
    target: int
    arrows: tuple = ()

    @property
    def length(self):
        return len(self.arrows)

    @property
    def is_trivial(self):
        return not self.arrows

    def reversed_key(self):
        return tuple(reversed(self.arrows))


@dataclass(frozen=True)
class Quiver:
    vertex_count: int
    arrows: tuple

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("a quiver needs at least one vertex")
        names = set()
        for a in self.arrows:
            if a.name in names:
                raise ValueError(f"duplicate arrow name {a.name!r}")
            names.add(a.name)
            if not (0 <= a.source < self.vertex_count and 0 <= a.target < self.vertex_count):
                raise ValueError(f"arrow {a.name!r} has endpoints outside the vertex range")

    @classmethod
    def from_arrows(cls, vertex_count, arrows):
        """Build from (name, source, target) triples."""
        return cls(vertex_count, tuple(Arrow(*a) for a in arrows))

    @cached_property
    def _name_index(self):
        return {a.name: i for i, a in enumerate(self.arrows)}

    @cached_property
    def reversed(self):
        """The opposite quiver: every arrow turned around, names and order kept."""
        return Quiver(self.vertex_count,
                      tuple(Arrow(a.name, a.target, a.source) for a in self.arrows))

    @cached_property
    def out_arrows(self):
        out = [[] for _ in range(self.vertex_count)]
        for i, a in enumerate(self.arrows):
            out[a.source].append(i)
        return tuple(tuple(v) for v in out)

    @cached_property
    def in_arrows(self):
        inc = [[] for _ in range(self.vertex_count)]
        for i, a in enumerate(self.arrows):
            inc[a.target].append(i)
        return tuple(tuple(v) for v in inc)

    def arrow_index(self, name):
        return self._name_index[name]

    def trivial_path(self, v):
        return Path(v, v, ())

    def path(self, names):
        """Path from a nonempty sequence of arrow names; validates composability."""
        idxs = tuple(self.arrow_index(n) for n in names)
        return self.path_from_indices(idxs)

    def path_from_indices(self, idxs):
        if not idxs:
            raise ValueError("use trivial_path for length-zero paths")
        if not 0 <= min(idxs) <= max(idxs) < len(self.arrows):
            raise ValueError("arrow index outside the quiver")
        for k in range(len(idxs) - 1):
            if self.arrows[idxs[k]].target != self.arrows[idxs[k + 1]].source:
                raise ValueError("arrows are not composable")
        return Path(self.arrows[idxs[0]].source, self.arrows[idxs[-1]].target, tuple(idxs))

    def is_valid_path(self, p):
        if p.is_trivial:
            return 0 <= p.source < self.vertex_count and p.source == p.target
        try:
            q = self.path_from_indices(p.arrows)
        except ValueError:
            return False
        return q == p

    @cached_property
    def canonical_labelings(self):
        """``(pairs, relabelings)``: the least sorted tuple of arrow endpoint
        pairs over all vertex permutations, and every arrow relabeling
        (``relabeling[old index] = new index``) that reaches it, i.e. a
        vertex permutation composed with permutations of parallel arrows."""
        pairs = [(a.source, a.target) for a in self.arrows]
        best, relabelings = None, []
        for perm in permutations(range(self.vertex_count)):
            mapped = [(perm[s], perm[t]) for s, t in pairs]
            key = tuple(sorted(mapped))
            if best is not None and key > best:
                continue
            if key != best:
                best, relabelings = key, []
            classes = {}
            for i, p in enumerate(mapped):
                classes.setdefault(p, []).append(i)
            # class p takes the consecutive new indices of its pairs in key
            for assignment in product(*(permutations(classes[p]) for p in sorted(classes))):
                relabeling = [0] * len(pairs)
                for new, old in enumerate(i for members in assignment for i in members):
                    relabeling[old] = new
                relabelings.append(tuple(relabeling))
        return best, tuple(relabelings)

    @cached_property
    def relabeled_words(self):
        """Arrow word -> its images under the :attr:`canonical_labelings`
        relabelings, filled by ``enumeration.canonical_form``."""
        return {}

    @cached_property
    def _connected(self):
        # n vertices need n - 1 arrows; a huge count fails before any per-vertex table
        if len(self.arrows) < self.vertex_count - 1:
            return False
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            near = ({self.arrows[i].target for i in self.out_arrows[v]}
                    | {self.arrows[i].source for i in self.in_arrows[v]}) - seen
            seen |= near
            stack += near
        return len(seen) == self.vertex_count


def compose(p, q):
    """Concatenation ``first p, then q``; None when the endpoints mismatch."""
    if p.target != q.source:
        return None
    return Path(p.source, q.target, p.arrows + q.arrows)


class QuiverShape(Enum):
    LINEAR = "linear"
    CYCLIC = "cyclic"
    NOT_NAKAYAMA = "not_nakayama"


def is_connected(quiver):
    return quiver._connected


def degrees_at_most_one(quiver):
    """True when every vertex has at most one arrow in and at most one arrow
    out: exactly the quivers whose connected components are oriented lines
    or cycles."""
    return all(len(arrows) <= 1 for arrows in quiver.in_arrows + quiver.out_arrows)


def shape_classify(quiver):
    """Classify a connected quiver as an oriented line, an oriented cycle,
    or neither.  Invariant under vertex relabeling."""
    if not is_connected(quiver):
        raise DisconnectedQuiverError("shape classification requires a connected quiver")
    walk = kupisch_walk(quiver)
    return walk[0] if walk else QuiverShape.NOT_NAKAYAMA


def kupisch_walk(quiver):
    """``(shape, order)`` for an oriented line or cycle, where order lists
    the vertices along the arrows from the source of the line, or from
    vertex 0 of the cycle; None for every other quiver, disconnected ones
    included."""
    if not degrees_at_most_one(quiver):
        return None
    sources = [v for v in range(quiver.vertex_count) if not quiver.in_arrows[v]]
    shape = QuiverShape.LINEAR if sources else QuiverShape.CYCLIC
    order = [sources[0] if sources else 0]
    # the walk ends at the sink of a line or back at the start of a cycle
    while quiver.out_arrows[order[-1]]:
        v = quiver.arrows[quiver.out_arrows[order[-1]][0]].target
        if v == order[0]:
            break
        order.append(v)
    return (shape, order) if len(order) == quiver.vertex_count else None
