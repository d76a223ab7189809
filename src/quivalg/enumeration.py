"""Exhaustive generation of small connected monomial algebras.

Quivers are enumerated as multisets of arrows over ordered vertex pairs
(loops and parallel arrows included) and kept only in canonical form under
vertex permutation.  For each quiver, relation sets are enumerated through
their complements: a factor-closed set of allowed words is grown level by
level, and the relation set is read off as the minimal excluded words.
Admissibility is enforced during generation by keeping the top-level
window graph (nodes: allowed words one short of the maximal relation
length, edges: allowed words of maximal length) acyclic, so only
presentations with a finite path basis are ever produced.  Finally,
isomorphic presentations over the same quiver are rejected before an
algebra is built: each relation set gets a canonical byte encoding,
minimized over the arrow relabelings (vertex permutations composed with
permutations of parallel arrows) that the quiver computes once, and an
algebra is built only for a new encoding, without the constructor's checks.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

from .monomial import MonomialAlgebra
from .quiver import Arrow, Quiver, is_connected


@dataclass(frozen=True)
class CorpusBounds:
    max_vertices: int
    max_arrows: int
    max_relation_length: int

    def __post_init__(self):
        if self.max_vertices < 1 or self.max_arrows < 0:
            raise ValueError("bounds must be nonnegative with at least one vertex")
        if self.max_relation_length < 2:
            raise ValueError("relations have length at least two")

    def as_dict(self):
        return {"max_vertices": self.max_vertices,
                "max_arrows": self.max_arrows,
                "max_relation_length": self.max_relation_length}


def connected_quivers(max_vertices, max_arrows):
    """Connected quivers with at most the given vertices and arrows, one
    canonical representative per isomorphism class, in deterministic order:
    the least sorted tuple of pair indices s * n + t over its class."""
    out = []
    for n in range(1, max_vertices + 1):
        pairs = [(s, t) for s in range(n) for t in range(n)]
        # each pair index under each vertex permutation but the identity
        images = [[p[s] * n + p[t] for s, t in pairs] for p in permutations(range(n))][1:]
        for m in range(0, max_arrows + 1):
            if n > 1 and m < n - 1:
                continue
            for combo in combinations_with_replacement(range(n * n), m):
                key = list(combo)
                if any(sorted([image[k] for k in combo]) < key for image in images):
                    continue
                quiver = Quiver(n, tuple(Arrow(f"a{i}", *pairs[k]) for i, k in enumerate(combo)))
                if is_connected(quiver):
                    out.append(quiver)
    return out


def _paths_by_level(quiver, max_len):
    """levels[l] = all arrow tuples of walks of length l, for l = 1..max_len."""
    levels = {1: [(a,) for a in range(len(quiver.arrows))]}
    for l in range(2, max_len + 1):
        nxt = []
        for w in levels[l - 1]:
            tail = quiver.arrows[w[-1]].target
            for a in quiver.out_arrows[tail]:
                nxt.append(w + (a,))
        levels[l] = nxt
    return levels


def _reaches(adj, start, goal):
    stack = [start]
    seen = {start}
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def admissible_relation_sets(quiver, max_len):
    """All factor-antichains of paths with lengths in [2, max_len] that
    generate an admissible ideal, as tuples of arrow tuples.

    Generation is output sensitive: each leaf of the search tree is a
    valid relation set, because closure under factors is built into the
    branching and a cycle in the window graph prunes the branch that
    would make the path basis infinite.
    """
    levels = _paths_by_level(quiver, max_len)
    candidates = []
    for l in range(2, max_len + 1):
        candidates.extend(sorted(levels[l]))
    top = max_len
    results = []
    included = set()
    relations = []  # the excluded words whose factors are all included
    adj = {}

    def rec(k):
        if k == len(candidates):
            results.append(tuple(relations))
            return
        w = candidates[k]
        l = len(w)
        allowed = l == 2 or (w[:-1] in included and w[1:] in included)
        cyclic = False
        if allowed and l == top:
            u, v = w[:-1], w[1:]
            cyclic = u == v or _reaches(adj, v, u)
        if allowed and not cyclic:
            included.add(w)
            if l == top:
                adj.setdefault(w[:-1], []).append(w[1:])
            rec(k + 1)
            if l == top:
                adj[w[:-1]].pop()
            included.discard(w)
        if allowed:
            relations.append(w)
            rec(k + 1)
            relations.pop()
        else:
            rec(k + 1)

    rec(0)
    del rec  # rec reaches itself through its closure cell; drop that cycle now
    return results


def canonical_form(quiver, relations):
    """Canonical byte string of the presentation with the given relations
    (arrow-index tuples, a factor-antichain): the least sorted arrow pairs
    and, over every relabeling that reaches them, the least sorted
    relabeled relations.  Equal strings exactly when one presentation maps
    onto the other."""
    pairs, relabelings = quiver.canonical_labelings
    images = quiver.relabeled_words
    for r in relations:
        if r not in images:
            images[r] = [tuple([m[a] for a in r]) for m in relabelings]
    least = min(map(sorted, zip(*[images[r] for r in relations])), default=[])
    return repr((quiver.vertex_count, pairs, tuple(least))).encode("ascii")


def cached_canonical_form(algebra):
    """:func:`canonical_form` of an algebra, computed once per algebra object."""
    key = ("canonical_form",)
    if key not in algebra._cache:
        algebra._cache[key] = canonical_form(algebra.quiver, [r.arrows for r in algebra.relations])
    return algebra._cache[key]


def algebras_over(quiver, max_relation_length):
    """The monomial algebras over one quiver with relations up to the given
    length, one representative per isomorphism class of presentations.  A
    candidate's class is decided before it is built, and only the first
    candidate of each class is built, through ``_install``: its relations
    are already a reduced factor-antichain in basis order, and admissible."""
    seen = set()
    for rel_tuples in admissible_relation_sets(quiver, max_relation_length):
        form = canonical_form(quiver, rel_tuples)
        if form not in seen:
            seen.add(form)
            algebra = MonomialAlgebra.__new__(MonomialAlgebra)
            algebra._install(quiver, tuple(map(quiver.path_from_indices, rel_tuples)))
            algebra._cache[("canonical_form",)] = form
            yield algebra


def enumerate_monomial_algebras(bounds):
    """Stream every connected monomial algebra within the bounds, one
    representative per isomorphism class of presentations, in a
    deterministic canonical order."""
    for quiver in connected_quivers(bounds.max_vertices, bounds.max_arrows):
        yield from algebras_over(quiver, bounds.max_relation_length)
