"""Dense exact-rational linear algebra.

Small, self-contained Gaussian-elimination kernel over ``fractions.Fraction``.
Matrices are lists of lists (row major); products skip zero entries.
There are three elimination loops: ``rref`` (ranks, inverses, and each
linear system, whose solution and kernel are read off one reduction),
``det``, and ``positive_det``, the one positivity rule: positive definite
by the pivots of an elimination without row exchanges (Sylvester).
Everything here is exact: ranks, nullspaces, positivity and least-squares
solutions never depend on float thresholds.
The float-backend counterparts of these routines live in numpy and are called
directly where needed.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def mat_copy(m):
    return [list(row) for row in m]


def rref(m):
    """Reduced row-echelon form.  Returns (rref_matrix, pivot_columns)."""
    a = mat_copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m) -> int:
    if not m or not m[0]:
        return 0
    return len(rref(m)[1])


def _kernel(red, pivots, ncols):
    """Kernel basis of the first ``ncols`` columns of an rref, one vector per free column."""
    lead = [(r, pc) for r, pc in enumerate(pivots) if pc < ncols]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in lead:
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def nullspace(m, ncols=None):
    """Basis of the kernel of ``m`` acting on column vectors."""
    if ncols is None:
        ncols = len(m[0]) if m else 0
    return _kernel(*rref(m), ncols)


def matvec(m, v):
    nonzero = [(j, x) for j, x in enumerate(v) if x != 0]
    return [sum((row[j] * x for j, x in nonzero), ZERO) for row in m]


def matmul(a, b):
    cols = range(len(b[0]))
    rows = ([(x, brow) for x, brow in zip(row, b) if x != 0] for row in a)
    return [[sum((x * brow[j] for x, brow in nz), ZERO) for j in cols] for nz in rows]


def transpose(m):
    return [list(col) for col in zip(*m)]


def det(m) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
    a = mat_copy(m)
    n = len(a)
    sign = ONE
    result = ONE
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return ZERO
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        pv = a[c][c]
        result *= pv
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * result


def positive_det(m):
    """det m if every leading principal minor of m is positive, else None.

    Elimination without row exchanges: the k-th pivot is D_k / D_{k-1}, so
    all pivots are positive exactly when all leading minors D_k are, which
    for a symmetric m is positive-definiteness (Sylvester's criterion); the
    product of the pivots is det m.
    """
    a = mat_copy(m)
    n = len(a)
    result = ONE
    for c in range(n):
        pv = a[c][c]
        if pv <= 0:
            return None
        result *= pv
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def inverse(m):
    n = len(m)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def solve_affine(m, b):
    """All solutions of ``m x = b`` as (particular, nullspace basis), from one rref.

    Returns (None, basis) when the system is inconsistent.  The first
    ``cols`` columns of rref([m | b]) are rref(m), so the kernel is read off
    the same elimination.
    """
    cols = len(m[0]) if m else 0
    red, pivots = rref([list(row) + [bi] for row, bi in zip(m, b)])
    null = _kernel(red, pivots, cols)
    if cols in pivots:
        return None, null
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x, null


def solve(m, b):
    """One exact solution of ``m x = b`` or None if inconsistent."""
    return solve_affine(m, b)[0]


def lstsq(a, b):
    """Exact least squares: minimise |a x - b|^2 over rational x.

    Solves the normal equations and projects onto the minimum-norm solution
    when the system is rank-deficient.  Returns (x, residual_sq).
    """
    at = transpose(a)
    x, null = solve_affine(matmul(at, a), matvec(at, b))
    if x is None:  # cannot happen: normal equations are always consistent
        raise ArithmeticError("inconsistent normal equations")
    if null:
        # remove the nullspace component so the reported solution is canonical
        g = [[sum((ui * vi for ui, vi in zip(u, v)), ZERO) for v in null] for u in null]
        rhs = [sum((ui * xi for ui, xi in zip(u, x)), ZERO) for u in null]
        coeffs = solve(g, rhs)
        for c, u in zip(coeffs, null):
            x = [xi - c * ui for xi, ui in zip(x, u)]
    r = [sum((a[i][j] * x[j] for j in range(len(x))), ZERO) - b[i] for i in range(len(b))]
    res = sum((ri * ri for ri in r), ZERO)
    return x, res
