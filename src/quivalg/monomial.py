"""Monomial bound quiver algebras.

An algebra is presented by a connected quiver and a set of forbidden paths
of length >= 2 (the monomial generators of the ideal).  The basis consists
of all paths containing no forbidden factor; the one search that enumerates
it decides admissibility (finiteness of that basis) exactly, by a repeated
state on one branch, so no length cutoff is ever involved.
"""

import weakref
from collections import namedtuple
from functools import cached_property

from .errors import BadRelationError, DisconnectedQuiverError, NotAdmissibleError
from .quiver import Path, compose, is_connected


def _path_order(p):  # of relations and of the basis; the source orders trivial paths
    return (len(p.arrows), p.arrows, p.source)


def _reduce_relations(relations):
    """Drop relations containing another relation as a factor; dedup."""
    unique = sorted({r.arrows: r for r in relations}.values(), key=_path_order)
    words = {r.arrows for r in unique}
    # keep r unless one of its proper contiguous factors is a relation word
    return tuple(r for r in unique
                 if not any(r.arrows[i:j] in words for i in range(r.length)
                            for j in range(i + 1, r.length + 1) if j - i < r.length))


PathIndex = namedtuple("PathIndex", ["sources", "targets", "blocks", "position", "extensions"])


class MonomialAlgebra:
    """A = KQ/I for a monomial admissible ideal I, with its finite path basis."""

    def __init__(self, quiver, relations):
        if not is_connected(quiver):
            raise DisconnectedQuiverError("monomial algebras are built over connected quivers")
        for r in relations:
            if r.length < 2:
                raise BadRelationError(f"relation {r} has length < 2")
            if not quiver.is_valid_path(r):
                raise BadRelationError(f"relation {r} is not a path of the quiver")
        self._install(quiver, _reduce_relations(relations))

    # -- construction internals -------------------------------------------

    def _install(self, quiver, relations, basis=None):
        """Set the presentation and every field derived from it; without a
        given basis, enumerate it, which decides admissibility."""
        self.quiver = quiver
        self.relations = relations
        self.basis = self._enumerate_basis() if basis is None else basis
        self._basis_index = {p: i for i, p in enumerate(self.basis)}
        self._cache = {}
        self._opposite = None  # the opposite algebra, once built here
        self._origin = None  # a weak reference to the algebra this one is the opposite of

    def _enumerate_basis(self):
        """Depth-first search per vertex.  A path's state (target, last
        max relation length - 1 arrows) fixes its extensions, so a state met
        twice on a branch closes a loop that repeats forever."""
        forbidden = {r.arrows for r in self.relations}
        lengths = sorted({len(f) for f in forbidden})
        w = max(lengths, default=1) - 1
        out = self.quiver.out_arrows
        arrows = self.quiver.arrows
        paths = []
        for v in range(self.quiver.vertex_count):
            stack, on_branch = [(v, ())], set()
            while stack:
                tgt, seq = stack.pop()
                if tgt is None:  # the exit marker of state seq
                    on_branch.remove(seq)
                    continue
                state = (tgt, seq[-w:] if w else ())
                if state in on_branch:
                    raise NotAdmissibleError(
                        "the relation-free extension graph has a cycle; "
                        "the path basis is infinite")
                on_branch.add(state)
                stack.append((None, state))
                paths.append(Path(v, tgt, seq))
                for a in out[tgt]:
                    ext = seq + (a,)
                    n = len(ext)
                    for ln in lengths:  # does a relation end at arrow a?
                        if ln <= n and ext[n - ln:] in forbidden:
                            break
                    else:
                        stack.append((arrows[a].target, ext))
        paths.sort(key=_path_order)
        return tuple(paths)

    # -- queries ------------------------------------------------------------

    @property
    def dimension(self):
        return len(self.basis)

    @cached_property
    def _path_index(self):
        """The basis as index tables, built on first use: sources[v] and
        targets[v] list the basis indices of the paths starting and ending
        at v, blocks[s][t] those of the paths s -> t, all in basis order;
        position[i] is the place of path i in its block, and extensions[i]
        maps each arrow that extends path i to a nonzero path to its index."""
        n = self.quiver.vertex_count
        sources, targets = {v: [] for v in range(n)}, {v: [] for v in range(n)}
        blocks = [[[] for _ in range(n)] for _ in range(n)]
        position, extensions, index = [], [], {}  # index: arrows -> basis index
        for i, p in enumerate(self.basis):  # sorted by length, so prefixes come first
            s, t, w = p.source, p.target, p.arrows
            sources[s].append(i)
            targets[t].append(i)
            block = blocks[s][t]
            position.append(len(block))
            block.append(i)
            extensions.append({})
            if w:  # the basis opens with e_0, ..., e_{n-1}: e_s is basis path s
                extensions[index[w[:-1]] if len(w) > 1 else s][w[-1]] = i
                index[w] = i
        return PathIndex(sources, targets, blocks, position, extensions)

    def paths_from(self, v):  # none from a vertex outside the quiver
        return [self.basis[i] for i in self._path_index.sources.get(v, ())]

    def paths_into(self, v):
        return [self.basis[i] for i in self._path_index.targets.get(v, ())]

    def multiply(self, p, q):
        """Product of two basis paths: their concatenation when nonzero,
        None for zero (incomposable or hitting a forbidden factor)."""
        if p not in self._basis_index or q not in self._basis_index:
            raise ValueError("multiply expects elements of the path basis")
        c = compose(p, q)
        if c is None or c not in self._basis_index:
            return None
        return c

    def extend_by_arrow(self, p, arrow_idx):
        """p * (arrow) when nonzero, else None; p must be a basis path."""
        i = self._path_index.extensions[self._basis_index[p]].get(arrow_idx)
        return None if i is None else self.basis[i]

    def opposite(self):
        """The opposite algebra: arrows and relations reversed.

        A path avoids the relations exactly when its reverse avoids the
        reversed ones, so the basis is this one reversed, with no search.
        Cached, and an involution while this algebra is alive:
        ``A.opposite().opposite() is A``.  The opposite refers back to A
        only weakly, so no reference cycle keeps either alive; once A is
        gone, the opposite's ``opposite()`` builds an algebra equal to A.
        """
        opp = self._opposite or (self._origin and self._origin())
        if opp is None:
            reverse = lambda p: Path(p.target, p.source, p.reversed_key())
            opp = MonomialAlgebra.__new__(MonomialAlgebra)
            opp._install(self.quiver.reversed,
                         tuple(sorted(map(reverse, self.relations), key=_path_order)),
                         tuple(sorted(map(reverse, self.basis), key=_path_order)))
            opp._origin = weakref.ref(self)
            self._opposite = opp
        return opp

    @cached_property
    def _socle_table(self):  # socle_dims of every vertex, from one pass over the basis
        n = self.quiver.vertex_count
        table = [[0] * n for _ in range(n)]
        for p, ext in zip(self.basis, self._path_index.extensions):
            if not ext:
                table[p.source][p.target] += 1
        return dict(enumerate(map(tuple, table)))

    def socle_dims(self, v):
        """Socle dimension vector of e_v A, zero outside the quiver: an arrow
        sends distinct paths to distinct paths or zero, so the socle is
        spanned by the paths out of v with no nonzero extension, by target."""
        return self._socle_table.get(v) or (0,) * self.quiver.vertex_count

    def socle_criterion(self, v):
        """True when exactly one maximal nonzero path starts at v: the right
        projective e_v A has simple socle.  The left projective A e_v is
        the right projective of the opposite algebra."""
        return sum(self.socle_dims(v)) == 1

    def is_qf2(self):
        """Every indecomposable projective, right and left, has simple
        socle: the right projectives of this algebra and of its opposite."""
        return all(work.socle_criterion(v) for work in (self, self.opposite())
                   for v in range(self.quiver.vertex_count))

    def __eq__(self, other):
        return (isinstance(other, MonomialAlgebra)
                and self.quiver == other.quiver and self.relations == other.relations)

    def __hash__(self):
        return hash((self.quiver, self.relations))

    def __repr__(self):
        return (f"MonomialAlgebra({self.quiver.vertex_count} vertices, "
                f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations, "
                f"dim {self.dimension})")


def build(quiver, relations):
    """Construct the algebra; raises NotAdmissible / DisconnectedQuiver /
    BadRelation on invalid input."""
    return MonomialAlgebra(quiver, tuple(relations))
