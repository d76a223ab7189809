"""Dense Gauss-Jordan elimination, kept as the oracle for ``quivalg.linalg``.

This is the package's former dense ``rref`` over lists of rows; the tests
compare every read-off of the sparse kernel against it.
"""

from fractions import Fraction


def rref(mat, ncols=None):
    """Reduced row echelon form.

    Returns ``(R, pivots)`` where R has Fraction entries, each pivot is 1
    and pivot columns are cleared above and below.
    """
    r = [[Fraction(x) for x in row] for row in mat]
    nrows = len(r)
    if nrows:
        ncols = len(r[0])
    if ncols is None:
        ncols = 0
    pivots = []
    pr = 0
    for c in range(ncols):
        if pr >= nrows:
            break
        sel = None
        for i in range(pr, nrows):
            if r[i][c]:
                sel = i
                break
        if sel is None:
            continue
        r[pr], r[sel] = r[sel], r[pr]
        inv = 1 / r[pr][c]
        r[pr] = [x * inv for x in r[pr]]
        for i in range(nrows):
            if i != pr and r[i][c]:
                f = r[i][c]
                r[i] = [x - f * y for x, y in zip(r[i], r[pr])]
        pivots.append(c)
        pr += 1
    return r, pivots


def rank(mat, ncols):
    return len(rref(mat, ncols)[1])


def nullspace(mat, ncols):
    """Basis of the right kernel, one vector per free column."""
    r, pivots = rref(mat, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis
