"""Exact-rational linear algebra over ``fractions.Fraction``, and the float positivity rule.

Matrices are lists of lists (row major); ``matvec`` and ``matmul`` skip the
zero entries of both factors.  ``rref`` is a sparse Gauss-Jordan elimination
on Python ints of exact rationals only (a float raises ``TypeError``), also
of rows given as ``{column: value}`` dicts of their nonzeros (a column
outside ``range(ncols)`` raises ``ValueError``).  Each row is held as such a
dict, scaled to integers by the lcm of its denominators; each column that
holds a nonzero takes as pivot the unused row that holds it with the fewest
nonzeros (lowest index on ties), a Markowitz-style rule that keeps fill-in
small on the very sparse derivation and Chevalley-Eilenberg systems.  Only
the rows that hold the pivot column are reduced, by integer
cross-multiplication and then division by the gcd of their entries, and
entries that cancel are dropped.  The reduced row-echelon form is unique, so
the result, one ``Fraction(x, pivot)`` per nonzero, does not depend on the
pivot order; ``rank`` counts the pivots without building it.  Inverses, each
linear system (whose solution and kernel are read off one reduction) and
least squares (by the rank factorisation one reduction gives) come from
``rref``.  The other elimination is the dense ``_pivots``, also exact only:
``det`` multiplies its pivots, and ``positive_det``, the exact positivity
rule, accepts when every pivot is positive and no row was exchanged
(Sylvester).  None of these depends on a float threshold: ranks, nullspaces,
positivity and least-squares solutions are exact.

The one float routine is ``positive_det_np``, the float twin of
``positive_det``: positivity and the determinant of a symmetric form from one
Cholesky factor, with a pivot bound relative to the form.  Every float
positivity test (the induced form of a 3-form, a float ``MetricData``) goes
through it.  The other float counterparts live in numpy and are called
directly where needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Optional

import numpy as np

from .scalars import as_rational

ZERO = Fraction(0)
ONE = Fraction(1)

#: positive_det_np refuses a pivot L_ii^2 at or below this times max |b_ii|
CHOLESKY_PIVOT_TOL = 1e-12


def _eliminate(m, ncols):
    """(pivot_rows, pivots, ncols) of ``rref``: pivot row r is row r of the rref scaled to ints."""
    rows = []
    for row in m:
        nonzero = [(j, x) for j, x in (row.items() if isinstance(row, dict) else enumerate(row))
                   if x]
        try:
            den = lcm(*[x.denominator for _, x in nonzero])
        except AttributeError:
            raise TypeError("expected an exact rational (int or Fraction), got %r" % next(
                x for _, x in nonzero if not hasattr(x, "denominator"))) from None
        rows.append({j: x.numerator * (den // x.denominator) for j, x in nonzero})
    holders = {}  # column -> rows with a nonzero there; fill-in adds no column
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    if ncols is None:
        dense_rows = m and not isinstance(m[0], dict)
        ncols = len(m[0]) if dense_rows else max(holders, default=-1) + 1
    if holders and not (0 <= min(holders) and max(holders) < ncols):
        raise ValueError("a nonzero lies outside the %d columns" % ncols)
    free = set(range(len(rows)))
    pivots, pivot_rows = [], []
    for c in sorted(holders):
        hold = holders[c]
        cand = [(len(rows[i]), i) for i in hold if i in free]
        if not cand:
            continue
        p = min(cand)[1]
        free.remove(p)
        prow = rows[p]
        pv = prow[c]
        tail = [(j, y) for j, y in prow.items() if j != c]
        for i in hold:
            if i == p:
                continue
            row = rows[i]
            f = row.pop(c)
            g = gcd(pv, f)
            a, b = pv // g, f // g  # row <- a row - b prow
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, y in tail:
                x = row.get(j)
                if x is None:
                    row[j] = -b * y
                    holders[j].add(i)
                else:
                    x -= b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        holders[j].discard(i)
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
        holders[c] = {p}
        pivots.append(c)
        pivot_rows.append(prow)
        if not free:
            break
    return pivot_rows, pivots, ncols


def rref(m, ncols=None):
    """Reduced row-echelon form.  Returns (rref_matrix, pivot_columns).

    Rows are dense sequences or ``{column: value}`` dicts, and ``ncols`` is the
    column count: by default the length of a dense first row, or one past the
    last column where a dict row holds a nonzero.  The pivot rows come first in
    pivot-column order, then zero rows, so the result has as many rows as
    ``m``; ``m`` itself is not changed.
    """
    pivot_rows, pivots, ncols = _eliminate(m, ncols)
    dense = [[ZERO] * ncols for _ in m]
    for out, c, row in zip(dense, pivots, pivot_rows):
        for j, x in row.items():
            out[j] = Fraction(x, row[c])
    return dense, pivots


def rank(m) -> int:
    """Rank of ``m``, dense or dict rows as ``rref`` takes them, without building the rref."""
    return len(_eliminate(m, None)[1])


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
    """Basis of the kernel of ``m`` acting on column vectors; rows and ``ncols``
    as ``rref`` takes them."""
    red, pivots = rref(m, ncols)
    return _kernel(red, pivots, len(red[0]) if red else ncols or 0)


def matvec(m, v):
    """m v over the nonzero entries of both factors; a sum of no products is
    the zero of v's backend."""
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    zero = ZERO * v[0] if v else ZERO  # 0.0 for a float v
    return [sum((row[j] * x for j, x in nonzero if row[j]), zero) for row in m]


def matmul(a, b):
    """a b, row by row as ``matvec`` of b^T: over the nonzero entries of both factors."""
    bt = transpose(b)
    return [matvec(bt, row) for row in a]


def transpose(m):
    return [list(col) for col in zip(*m)]


def _pivots(m):
    """Gaussian elimination of a Fraction copy of the square ``m`` (a nonzero
    float raises ``TypeError``, as in ``rref``): yields (pivot, swapped) per
    column, swapped when the diagonal entry was zero and a lower row with a
    nonzero entry was exchanged in; stops after a zero pivot."""
    a = [[as_rational(x) if x else ZERO for x in row] for row in m]
    n = len(a)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), c)
        a[c], a[p] = a[p], a[c]
        pv = a[c][c]
        yield pv, p != c
        if pv == 0:
            return
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]


def det(m) -> Fraction:
    """Determinant: the product of the elimination pivots, negated once per row exchange."""
    result = ONE
    for pv, swapped in _pivots(m):
        result *= -pv if swapped else pv
    return result


def positive_det(m):
    """det m if every leading principal minor of m is positive, else None.

    Elimination without row exchanges: the k-th pivot is D_k / D_{k-1}, so
    all pivots are positive exactly when all leading minors D_k are, which
    for a symmetric m is positive-definiteness (Sylvester's criterion); the
    product of the pivots is det m.  A row exchange means some D_k = 0.
    """
    result = ONE
    for pv, swapped in _pivots(m):
        if swapped or pv <= 0:
            return None
        result *= pv
    return result


def positive_det_np(b: np.ndarray) -> Optional[float]:
    """det b if the float symmetric form b is positive-definite, else None.

    The float twin of positive_det, by one Cholesky factor b = L L^T: it must
    exist with every L_ii^2 > CHOLESKY_PIVOT_TOL * max |b_ii|, a bound relative
    to b so that it holds at every scale.  Then det b = prod L_ii^2, accurate to
    about n eps H relative, H = prod b_ii / det b the Hadamard ratio.
    """
    try:  # Python floats: numpy reductions cost more than 7 products
        pivots = np.linalg.cholesky(b).diagonal().tolist()
    except np.linalg.LinAlgError:
        return None
    pivots = [p * p for p in pivots]
    bound = CHOLESKY_PIVOT_TOL * max(map(abs, b.diagonal().tolist()))
    if not all(p > bound for p in pivots):
        return None  # also refuses a NaN pivot
    return prod(pivots)


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
    """Exact least squares: the minimum-norm x minimising |a x - b|^2 over rational x.

    One rref gives the rank factorisation a = C R, with C the pivot columns of a
    and R the nonzero rows of rref(a); then x = R^T (R R^T)^-1 (C^T C)^-1 C^T b
    (Ben-Israel & Greville, Generalized Inverses, 2003, ch. 1), and rank 0 gives
    x = 0.  Returns (x, residual_sq).
    """
    red, pivots = rref(a)
    x = [ZERO] * (len(a[0]) if a else 0)
    if pivots:
        r = red[:len(pivots)]
        ct = [[row[p] for row in a] for p in pivots]
        v = solve(matmul(r, transpose(r)), solve(matmul(ct, transpose(ct)), matvec(ct, b)))
        x = matvec(transpose(r), v)
    res = sum(((ax - bi) ** 2 for ax, bi in zip(matvec(a, x), b)), ZERO)
    return x, res
