"""Dense exact-rational linear algebra.

Small, self-contained Gaussian-elimination kernel over ``fractions.Fraction``.
Matrices are lists of lists (row major); products skip zero entries.
Everything here is exact: ranks, nullspaces and least-squares solutions
never depend on float thresholds.
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


def nullspace(m, ncols=None):
    """Basis of the kernel of ``m`` acting on column vectors."""
    if ncols is None:
        ncols = len(m[0]) if m else 0
    if not m:
        return [[ONE if i == j else ZERO for i in range(ncols)] for j in range(ncols)]
    a, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


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


def inverse(m):
    n = len(m)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def solve(m, b):
    """One exact solution of ``m x = b`` or None if inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [list(m[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def solve_affine(m, b):
    """All solutions of ``m x = b`` as (particular, nullspace basis).

    Returns (None, basis) when the system is inconsistent.
    """
    part = solve(m, b)
    return part, nullspace(m)


def lstsq(a, b):
    """Exact least squares: minimise |a x - b|^2 over rational x.

    Solves the normal equations and projects onto the minimum-norm solution
    when the system is rank-deficient.  Returns (x, residual_sq).
    """
    at = transpose(a)
    ata = matmul(at, a)
    atb = matvec(at, b)
    x = solve(ata, atb)
    if x is None:  # cannot happen: normal equations are always consistent
        raise ArithmeticError("inconsistent normal equations")
    null = nullspace(ata)
    if null:
        # remove the nullspace component so the reported solution is canonical
        nt = null
        g = [[sum((u[i] * v[i] for i in range(len(u))), ZERO) for v in nt] for u in nt]
        rhs = [sum((u[i] * x[i] for i in range(len(u))), ZERO) for u in nt]
        coeffs = solve(g, rhs)
        for c, u in zip(coeffs, nt):
            x = [xi - c * ui for xi, ui in zip(x, u)]
    r = [sum((a[i][j] * x[j] for j in range(len(x))), ZERO) - b[i] for i in range(len(b))]
    res = sum((ri * ri for ri in r), ZERO)
    return x, res


def symmetric_signature(m):
    """Signature (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Diagonalises by simultaneous row/column operations; exact.
    """
    a = mat_copy(m)
    n = len(a)
    plus = minus = zero = 0

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    k = 0
    while k < n:
        if a[k][k] == 0:
            found = False
            for i in range(k + 1, n):
                if a[i][i] != 0:
                    swap(k, i)
                    found = True
                    break
            if not found:
                # look for an off-diagonal entry and mix rows to expose a pivot
                off = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if a[i][j] != 0:
                            off = (i, j)
                            break
                    if off:
                        break
                if off is None:
                    zero += n - k
                    break
                i, j = off
                for col in range(n):
                    a[i][col] += a[j][col]
                for row in a:
                    row[i] += row[j]
                if i != k:
                    swap(k, i)
        p = a[k][k]
        if p > 0:
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / p
                for col in range(n):
                    a[i][col] -= f * a[k][col]
                for row in a:
                    row[i] -= f * row[k]
        k += 1
    return plus, minus, zero


def is_positive_definite(m) -> bool:
    """Exact positive-definiteness via leading principal minors."""
    n = len(m)
    for k in range(1, n + 1):
        if det([row[:k] for row in m[:k]]) <= 0:
            return False
    return True
