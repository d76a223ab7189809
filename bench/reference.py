"""Reference computations that the benchmark checks quivalg against.

Nothing here imports quivalg.  A Nakayama algebra is given by its Kupisch
lengths ``c`` read along the quiver: vertex i has the arrow i -> i+1
(indices mod n on a cycle) and its indecomposable projective P_i has
length c[i].  A uniserial module is the pair (top, length); its
composition factors are top, top+1, ..., top+length-1.  This is the vertex
numbering of ``nakayama.kupisch_to_algebra``.
"""

INFINITE = ("infinite", 0)


def _vertex(i, n, cyclic):
    """Vertex index i along the walk, or None when it falls off a line."""
    if cyclic:
        return i % n
    return i if 0 <= i < n else None


def injective_lengths(lengths, cyclic):
    """d[j]: the length of the indecomposable injective with socle j, which
    is the number of paths ending at j."""
    n = len(lengths)
    out = []
    for j in range(n):
        d = 1
        while True:
            src = _vertex(j - d, n, cyclic)
            if src is None or lengths[src] < d + 1:
                break
            d += 1
        out.append(d)
    return out


def socle_vertex(top, length, n, cyclic):
    return _vertex(top + length - 1, n, cyclic)


def nakayama_domdim(lengths, cyclic, cutoff):
    """Dominant dimension from the injective coresolutions of the P_i.

    Every cosyzygy of a uniserial module over a Nakayama algebra is
    uniserial: the envelope of (t, l) is the injective I_s at its socle s,
    and the cokernel is I_s with its bottom l factors removed.  Each P_i is
    walked in step; the answer is the first step at which some live walk
    meets a non-projective envelope.  The quivalg conventions apply: a
    selfinjective algebra is infinite, all walks ending after projective
    terms is infinite, and ``cutoff`` steps without a decision is
    ("at_least", cutoff).
    """
    n = len(lengths)
    d = injective_lengths(lengths, cyclic)
    if all(d[socle_vertex(i, lengths[i], n, cyclic)] == lengths[i] for i in range(n)):
        return INFINITE
    current = [(i, lengths[i]) for i in range(n)]
    produced = 0
    while produced < cutoff:
        if not current:
            return INFINITE
        nxt = []
        for top, length in current:
            s = socle_vertex(top, length, n, cyclic)
            env_top = _vertex(s - d[s] + 1, n, cyclic)
            if lengths[env_top] != d[s]:
                return ("finite", produced)
            if d[s] > length:
                nxt.append((env_top, d[s] - length))
        produced += 1
        current = nxt
    return ("at_least", cutoff)


def envelope_dim(lengths, cyclic):
    """dim of the injective envelope of the regular module: the sum over i
    of the injective at the socle of P_i."""
    n = len(lengths)
    d = injective_lengths(lengths, cyclic)
    return sum(d[socle_vertex(i, lengths[i], n, cyclic)] for i in range(n))


def is_selfinjective_series(lengths, cyclic):
    return (cyclic and len(set(lengths)) == 1) or (not cyclic and len(lengths) == 1)


def hom_dim(m, n_mod, n, cyclic):
    """dim Hom(M(t, l), M(t', l')) = #{1 <= k <= min(l, l') : vertex
    t' + l' - k is t}: each image is a top quotient of M that is also a
    bottom submodule of N."""
    (t, l), (t2, l2) = m, n_mod
    return sum(1 for k in range(1, min(l, l2) + 1) if _vertex(t2 + l2 - k, n, cyclic) == t)


def allowed_summands(lengths, cyclic):
    """(top, length) of the indecomposables in add(B + DB + DB/soc DB)."""
    n = len(lengths)
    d = injective_lengths(lengths, cyclic)
    ids = {(i, lengths[i]) for i in range(n)}
    for j in range(n):
        top = _vertex(j - d[j] + 1, n, cyclic)
        ids.add((top, d[j]))
        if d[j] >= 2:
            ids.add((top, d[j] - 1))
    return ids


def mandatory_summands(lengths, cyclic):
    """(top, length) of the indecomposable projectives and injectives."""
    n = len(lengths)
    d = injective_lengths(lengths, cyclic)
    return ({(i, lengths[i]) for i in range(n)}
            | {(_vertex(j - d[j] + 1, n, cyclic), d[j]) for j in range(n)})


MAX_PATH_LENGTH = 10_000


def path_counts(vertex_count, arrows, relations):
    """Relation-free paths per source vertex, trivial paths included.

    ``arrows`` lists (source, target) pairs and ``relations`` lists tuples
    of arrow indices.  A path is extended only when no relation ends at its
    last arrow, so every prefix is relation-free as well.
    """
    rels = {tuple(r) for r in relations}
    rel_lengths = sorted({len(r) for r in rels})
    out_of = [[] for _ in range(vertex_count)]
    for idx, (s, _) in enumerate(arrows):
        out_of[s].append(idx)
    counts = []
    for v in range(vertex_count):
        total = 0
        stack = [(v, ())]
        while stack:
            tail, word = stack.pop()
            total += 1
            if len(word) > MAX_PATH_LENGTH:
                raise ValueError("path basis looks infinite")
            for a in out_of[tail]:
                ext = word + (a,)
                if not any(len(ext) >= k and ext[-k:] in rels for k in rel_lengths):
                    stack.append((arrows[a][1], ext))
        counts.append(total)
    return counts


def nakayama_walk(vertex_count, arrows):
    """(cyclic, vertex order) when the quiver is an oriented line or cycle,
    None otherwise.  The quiver is assumed connected."""
    outs = [[] for _ in range(vertex_count)]
    ins = [0] * vertex_count
    for s, t in arrows:
        outs[s].append(t)
        ins[t] += 1
    if any(len(o) > 1 for o in outs) or any(i > 1 for i in ins):
        return None
    if len(arrows) == vertex_count:
        cyclic, start = True, 0
    elif len(arrows) == vertex_count - 1:
        cyclic, start = False, ins.index(0)
    else:
        return None
    order = [start]
    while len(order) < vertex_count:
        order.append(outs[order[-1]][0])
    return cyclic, order


def canonical_rotation(lengths):
    n = len(lengths)
    return max(tuple(lengths[(i + k) % n] for k in range(n)) for i in range(n))


def series_text(lengths, cyclic):
    """The series as quivalg prints it: cyclic series in their
    lexicographically greatest rotation."""
    if cyclic:
        return "cyclic:" + ",".join(map(str, canonical_rotation(lengths)))
    return "linear:" + ",".join(map(str, lengths))


def series_algebra(lengths, cyclic):
    """(vertex_count, arrows, relations) of the Kupisch presentation: arrow
    i is i -> i+1 and a relation cuts every projective to its length."""
    n = len(lengths)
    if cyclic:
        arrows = [(i, (i + 1) % n) for i in range(n)]
        relations = [tuple((i + k) % n for k in range(c)) for i, c in enumerate(lengths)]
    else:
        arrows = [(i, i + 1) for i in range(n - 1)]
        relations = [tuple(range(i, i + c)) for i, c in enumerate(lengths)
                     if c >= 2 and i + c <= n - 1]
    return n, arrows, relations
