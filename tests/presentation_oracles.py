"""Former per-presentation algorithms, kept as oracles for the tests.

``canonical_form`` is the package's former canonical form of one built
algebra, minimized over every vertex permutation of its own presentation;
``reduce_relations`` is the former pairwise relation reduction;
``opposite`` is the former opposite algebra, built from scratch over the
reversed presentation; ``paths_from``, ``paths_into``, ``extend_by_arrow``
and ``projective_module`` are the former Path-level basis scans, and
``connected_quivers`` the former quiver search, which took the least
sorted image over every vertex permutation.  ``check_admissible`` is the
former admissibility test, a white/grey/black cycle search on the
automaton of relation-free suffix windows, run before and apart from the
basis enumeration.  The tests compare
``quivalg.enumeration.canonical_form`` (relabelings computed once per
quiver), ``quivalg.monomial._reduce_relations`` (factor lookups),
``MonomialAlgebra.opposite`` (the basis reversed), the readers of the
per-algebra path index, ``quivalg.enumeration.connected_quivers`` and
the admissibility decision of the one basis search against them.
``permute_vertices`` and ``path_name`` relabel quivers and name paths
for the tests.
"""

from itertools import combinations_with_replacement, permutations, product

from quivalg import linalg
from quivalg.errors import NotAdmissibleError
from quivalg.monomial import MonomialAlgebra
from quivalg.quiver import Arrow, Path, Quiver, compose, is_connected
from quivalg.representations import Representation


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


def _factor_of(inner, outer):
    """True when ``inner`` occurs as a contiguous factor of ``outer``."""
    li, lo = len(inner), len(outer)
    if li > lo:
        return False
    return any(outer[k:k + li] == inner for k in range(lo - li + 1))


def reduce_relations(relations):
    """Drop relations containing another relation as a factor; dedup."""
    unique = sorted({r.arrows: r for r in relations}.values(),
                    key=lambda r: (r.length, r.arrows))
    kept = []
    for r in unique:
        if not any(o is not r and _factor_of(o.arrows, r.arrows) for o in unique):
            kept.append(r)
    return tuple(kept)


def opposite(algebra):
    """The opposite algebra through the full construction: connectivity and
    relation checks, admissibility search and basis enumeration."""
    quiver = algebra.quiver
    rev = Quiver(quiver.vertex_count,
                 tuple(Arrow(a.name, a.target, a.source) for a in quiver.arrows))
    return MonomialAlgebra(rev, tuple(Path(r.target, r.source, r.reversed_key())
                                      for r in algebra.relations))


def paths_from(algebra, v):
    return [p for p in algebra.basis if p.source == v]


def paths_into(algebra, v):
    return [p for p in algebra.basis if p.target == v]


def extend_by_arrow(algebra, p, arrow):
    """p * arrow when the composite lies in the basis, else None."""
    c = compose(p, algebra.quiver.path_from_indices((arrow,)))
    return c if c in algebra._basis_index else None


def projective_module(algebra, v):
    """e_v A with every arrow map filled in by extending each basis path."""
    by_tgt = [[] for _ in range(algebra.quiver.vertex_count)]
    for p in algebra.basis:
        if p.source == v:
            by_tgt[p.target].append(p)
    index = [{p: i for i, p in enumerate(ps)} for ps in by_tgt]
    dims = [len(ps) for ps in by_tgt]
    maps = []
    for ai, a in enumerate(algebra.quiver.arrows):
        m = linalg.zeros(dims[a.source])
        for r, p in enumerate(by_tgt[a.source]):
            ext = extend_by_arrow(algebra, p, ai)
            if ext is not None:
                m[r][index[a.target][ext]] = 1
        maps.append(m)
    return Representation(algebra, dims, maps)


def connected_quivers(max_vertices, max_arrows):
    """Connected quivers up to isomorphism: an arrow multiset is kept when
    it equals the least sorted image over all vertex permutations."""
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


def check_admissible(quiver, relations):
    """Raise NotAdmissibleError when the path basis is infinite: a
    depth-first search for a cycle among the states (vertex, suffix window
    of fewer than max relation length arrows) that relation-free paths
    reach."""
    forbidden = {r.arrows for r in relations}
    lengths = sorted({len(f) for f in forbidden})
    w = max(lengths, default=1) - 1
    out = quiver.out_arrows

    def window_ok(seq):
        return not any(ln <= len(seq) and seq[len(seq) - ln:] in forbidden for ln in lengths)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    for v in range(quiver.vertex_count):
        start = (v, ())
        if color.get(start, WHITE) != WHITE:
            continue
        stack = [(start, iter(out[v]))]
        color[start] = GRAY
        while stack:
            (sv, win), it = stack[-1]
            advanced = False
            for a in it:
                seq = win + (a,)
                if not window_ok(seq):
                    continue
                nxt = (quiver.arrows[a].target, seq[-w:] if w else ())
                c = color.get(nxt, WHITE)
                if c == GRAY:
                    raise NotAdmissibleError(
                        "the relation-free extension graph has a cycle; "
                        "the path basis is infinite")
                if c == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(out[nxt[0]])))
                    advanced = True
                    break
            if not advanced:
                color[(sv, win)] = BLACK
                stack.pop()


def permute_vertices(quiver, perm):
    """Relabel vertices by ``perm`` (old index -> new index); arrow order kept."""
    arrows = tuple(Arrow(a.name, perm[a.source], perm[a.target]) for a in quiver.arrows)
    return Quiver(quiver.vertex_count, arrows)


def path_name(quiver, p):
    if p.is_trivial:
        return f"e{p.source}"
    return "*".join(quiver.arrows[i].name for i in p.arrows)
