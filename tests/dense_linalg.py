"""Dense matrices, kept as the oracle for ``quivalg.linalg``.

The package holds every matrix as a list of sparse rows; this module is the
only place that holds dense ones, plain lists of rows.  ``rref`` is the
package's former dense Gauss-Jordan elimination and ``mat_mul`` a dense
product.  The tests compare the sparse kernel's read-offs with ``rref`` and
the sparse products with ``mat_mul``, converting with ``sparse`` and
``dense``.
"""

from fractions import Fraction


def sparse(mat):
    """The rows of a dense matrix as sparse rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def dense(vec, ncols):
    """A sparse row as a dense row of width ncols."""
    return [vec.get(j, 0) for j in range(ncols)]


def mat_mul(a, b, ncols):
    """Product of an r x k matrix with a k x ncols matrix."""
    return [[sum(x * brow[j] for x, brow in zip(row, b)) for j in range(ncols)] for row in a]


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
