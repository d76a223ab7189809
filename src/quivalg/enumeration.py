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
isomorphic presentations over the same quiver are rejected through a
canonical byte encoding minimized over vertex permutations composed with
permutations of parallel arrows.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

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
    canonical representative per isomorphism class, in deterministic order."""
    out = []
    for n in range(1, max_vertices + 1):
        pairs = [(s, t) for s in range(n) for t in range(n)]
        perms = list(permutations(range(n)))
        seen = set()
        for m in range(0, max_arrows + 1):
            if n > 1 and m < n - 1:
                continue
            for combo in combinations_with_replacement(pairs, m):
                canon = min(tuple(sorted((p[s], p[t]) for s, t in combo)) for p in perms)
                if combo != canon or canon in seen:
                    continue
                quiver = Quiver(n, tuple(Arrow(f"a{i}", s, t)
                                         for i, (s, t) in enumerate(combo)))
                if not is_connected(quiver):
                    continue
                seen.add(canon)
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
    adj = {}

    def assemble():
        rels = []
        for w in candidates:
            if w in included:
                continue
            l = len(w)
            if l == 2 or (w[:-1] in included and w[1:] in included):
                rels.append(w)
        results.append(tuple(rels))

    def rec(k):
        if k == len(candidates):
            assemble()
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
        rec(k + 1)

    rec(0)
    return results


def _relation_paths(quiver, rel_tuples):
    return tuple(quiver.path_from_indices(w) for w in rel_tuples)


def canonical_form(algebra):
    """Canonical byte string, minimal over all vertex permutations composed
    with permutations of parallel arrows; equal strings exactly when one
    presentation maps onto the other."""
    quiver = algebra.quiver
    n = quiver.vertex_count
    pairs = [(a.source, a.target) for a in quiver.arrows]
    rels = sorted(r.arrows for r in algebra.relations)
    best = None
    for perm in permutations(range(n)):
        mapped = [(perm[s], perm[t]) for s, t in pairs]
        sorted_pairs = tuple(sorted(mapped))
        if best is not None and sorted_pairs > best[1]:
            continue
        classes = {}
        for i, p in enumerate(mapped):
            classes.setdefault(p, []).append(i)
        class_order = sorted(classes)
        slot_base = {}
        acc = 0
        for p in class_order:
            slot_base[p] = acc
            acc += len(classes[p])
        best_rels = None
        for assignment in product(*(permutations(classes[p]) for p in class_order)):
            newidx = {}
            for p, members in zip(class_order, assignment):
                for off, old in enumerate(members):
                    newidx[old] = slot_base[p] + off
            enc = tuple(sorted(tuple(newidx[a] for a in r) for r in rels))
            if best_rels is None or enc < best_rels:
                best_rels = enc
        key = (n, sorted_pairs, best_rels)
        if best is None or key < best:
            best = key
    return repr(best).encode("ascii")


def cached_canonical_form(algebra):
    """:func:`canonical_form`, computed once per algebra object."""
    key = ("canonical_form",)
    if key not in algebra._cache:
        algebra._cache[key] = canonical_form(algebra)
    return algebra._cache[key]


def algebras_over(quiver, max_relation_length):
    """The monomial algebras over one quiver with relations up to the given
    length, one representative per isomorphism class of presentations."""
    seen = set()
    for rel_tuples in admissible_relation_sets(quiver, max_relation_length):
        algebra = MonomialAlgebra(quiver, _relation_paths(quiver, rel_tuples))
        form = cached_canonical_form(algebra)
        if form not in seen:
            seen.add(form)
            yield algebra


def enumerate_monomial_algebras(bounds):
    """Stream every connected monomial algebra within the bounds, one
    representative per isomorphism class of presentations, in a
    deterministic canonical order."""
    for quiver in connected_quivers(bounds.max_vertices, bounds.max_arrows):
        yield from algebras_over(quiver, bounds.max_relation_length)
