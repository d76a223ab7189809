"""Former per-presentation algorithms, kept as oracles for the tests.

``canonical_form`` is the package's former canonical form of one built
algebra, minimized over every vertex permutation of its own presentation;
``reduce_relations`` is the former pairwise relation reduction;
``opposite`` is the former opposite algebra, built from scratch over the
reversed presentation.  The tests compare
``quivalg.enumeration.canonical_form`` (relabelings computed once per
quiver), ``quivalg.monomial._reduce_relations`` (factor lookups) and
``MonomialAlgebra.opposite`` (the basis reversed) against them.
"""

from itertools import permutations, product

from quivalg.monomial import MonomialAlgebra
from quivalg.quiver import Arrow, Path, Quiver


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
