"""Exact linear algebra over the rationals, on sparse rows.

A matrix is a list of sparse rows, ``{column: value}`` dicts with ``int``
or ``Fraction`` values and no stored zero; it is the only matrix format in
the package.  An r x c matrix has r rows and column keys below c; c is not
stored, so functions that need it take it explicitly.  All arithmetic is
exact.

Elimination goes through the single forward kernel :func:`echelon`.
Ranks and pivot sets are read off it; :func:`rref` is it plus one
back-substitution pass, and right kernels and quotient maps are read off
that.  A kernel basis is reduced, so coordinates over it are a vector's
values at its free columns.  Zero columns are never touched, and integers
stay integers until a pivot division needs a ``Fraction``.

Rows are shared, never copied: once a row is stored in a matrix nothing
mutates it.  :func:`echelon`, :func:`rref` and :func:`mat_mul` each edit only
rows they made themselves, so a matrix may be handed to a representation or
morphism as built.

Vectors are treated as rows throughout the package: a linear map V -> W of
dimensions d_V x d_W is a d_V x d_W matrix acting by ``v @ A``.
"""

from fractions import Fraction


def zeros(nrows):
    return [{} for _ in range(nrows)]


def identity(n):
    return [{i: 1} for i in range(n)]


def transpose(mat, ncols):
    out = zeros(ncols)
    for r, row in enumerate(mat):
        for c, x in row.items():
            out[c][r] = x
    return out


def mat_mul(a, b):
    """Product of an r x k matrix with a k x c matrix."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            _add(acc, x, b[k])
        out.append(acc)
    return out


def _add(row, f, src):
    """row += f * src in place, dropping the entries that cancel."""
    for c, y in src.items():
        x = row.get(c, 0) + f * y
        if x:
            row[c] = x
        else:
            del row[c]


def echelon(rows, ncols):
    """Row echelon form of the span of sparse rows of width ncols, by
    forward reduction only.

    Returns ``{pivot: row}`` in insertion order: each row is 1 at its
    pivot, which is its least column, and no two rows share a pivot.  The
    pivot set depends only on the span, so it gives the rank and the
    pivots of the RREF.  Zero values in the input are ignored.
    """
    red = {}
    for row in rows:
        if len(red) == ncols:
            break
        row = {c: x for c, x in row.items() if x}
        while row and (p := min(row)) in red:
            _add(row, -row[p], red[p])
        if not row:
            continue
        lead = row[p]
        if lead != 1:
            inv = -1 if lead == -1 else Fraction(1, lead)
            row = {c: x * inv for c, x in row.items()}
        red[p] = row
    return red


def rref(rows, ncols):
    """Reduced row echelon form of the span of sparse rows of width ncols.

    Returns the unique RREF as ``{pivot: row}`` in increasing pivot order:
    each row is 1 at its pivot, which is its least column, and has no entry
    in any other pivot column.  Zero values in the input are ignored.
    """
    red = dict(sorted(echelon(rows, ncols).items()))
    # from the last pivot back, so each row subtracted is already reduced
    for p in reversed(red):
        row = red[p]
        for q in [c for c in row if c != p and c in red]:
            _add(row, -row[q], red[q])
    return red


def rank(rows, ncols):
    return len(echelon(rows, ncols))


def _kernel(red, ncols):
    """{free column f: kernel vector with 1 at f and 0 at the other free
    columns}, read off an RREF."""
    basis = {f: {f: 1} for f in range(ncols) if f not in red}
    for p, row in red.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return basis


def nullspace(rows, ncols):
    """Basis of the right kernel {x : row . x = 0 for every row}, as sparse
    vectors in increasing order of their free column.  Each is 1 at its
    free column, its last nonzero one, where every other vector is 0."""
    return list(_kernel(rref(rows, ncols), ncols).values())


def quotient_maps(rows, ncols):
    """Projection/section pair for the quotient of K^ncols by a row span.

    Returns ``(dim, proj, sect)``, where proj is ncols x dim with the kernel
    basis as its columns, sect is dim x ncols and picks the free columns,
    ``sect @ proj`` is the identity on the quotient, and two vectors have
    equal images under proj iff they differ by an element of the span.
    """
    kernel = _kernel(rref(rows, ncols), ncols)
    return len(kernel), transpose(list(kernel.values()), ncols), [{f: 1} for f in kernel]
