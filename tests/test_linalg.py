"""The exact linear-algebra kernel against sympy.

Seeded rational matrices cover singular and rank-deficient cases, zero
leading entries, indefinite matrices with positive determinant, and
inconsistent systems.
"""

from fractions import Fraction as F

import numpy as np
import sympy

from g2lab import linalg


def _rational(rng, rows, cols, density=0.7):
    return [[F(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
             if rng.random() < density else F(0) for _ in range(cols)]
            for _ in range(rows)]


def _rank_deficient(rng, rows, cols, rank):
    """rows x cols of rank at most ``rank``: a product through a thin middle."""
    left = _rational(rng, rows, rank, density=1.0)
    right = _rational(rng, rank, cols, density=1.0)
    return linalg.matmul(left, right)


def _symmetric(rng, n):
    a = _rational(rng, n, n)
    return [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]


def _square_cases(rng):
    cases = []
    for n in range(1, 7):
        g = _rational(rng, n, n, density=1.0)
        gram = linalg.matmul(linalg.transpose(g), g)
        definite = [[x + (1 if i == j else 0) for j, x in enumerate(row)]
                    for i, row in enumerate(gram)]
        lead_zero = _symmetric(rng, n)
        lead_zero[0][0] = F(0)
        cases += [definite, [[-x for x in row] for row in definite],
                  _symmetric(rng, n), _rational(rng, n, n),  # the last not symmetric
                  _rank_deficient(rng, n, n, max(1, n - 2)), lead_zero]
    # indefinite with det > 0: two negative squares
    cases.append([[F(-1), F(0), F(0)], [F(0), F(-2), F(0)], [F(0), F(0), F(3)]])
    cases.append([[F(1), F(2), F(0)], [F(2), F(1), F(0)], [F(0), F(0), F(-1)]])
    return cases


def test_positive_det_is_sylvester_and_det():
    rng = np.random.default_rng(31)
    cases = _square_cases(rng)
    seen = {True: 0, False: 0}
    for m in cases:
        s = sympy.Matrix(m)
        minors_positive = all(s[:k, :k].det() > 0 for k in range(1, s.rows + 1))
        got = linalg.positive_det(m)
        assert (got is not None) == minors_positive
        seen[minors_positive] += 1
        if got is not None:
            assert got == s.det() and type(got) is F
        assert linalg.det(m) == s.det()
    assert seen[True] >= 6 and seen[False] >= 20
    # the indefinite cases have det > 0 but are rejected
    assert all(linalg.det(m) > 0 and linalg.positive_det(m) is None for m in cases[-2:])


def _system_cases(rng):
    cases = []
    for trial in range(36):
        rows, cols = (int(x) for x in rng.integers(1, 8, size=2))
        if trial % 3 == 0:
            m = _rank_deficient(rng, rows, cols, max(1, min(rows, cols) - 1))
        else:
            m = _rational(rng, rows, cols)
        if trial % 4 == 0:
            b = linalg.matvec(m, _rational(rng, 1, cols)[0])  # consistent
        else:
            b = _rational(rng, 1, rows)[0]  # often inconsistent
        cases.append((m, b))
    return cases


def test_solve_affine_matches_sympy():
    rng = np.random.default_rng(37)
    outcomes = {True: 0, False: 0}
    for m, b in _system_cases(rng):
        s = sympy.Matrix(m)
        cols = s.cols
        consistent = s.rank() == s.row_join(sympy.Matrix(b)).rank()
        outcomes[consistent] += 1
        x, null = linalg.solve_affine(m, b)
        assert (x is not None) == consistent
        if x is not None:
            assert linalg.matvec(m, x) == b
            assert linalg.solve(m, b) == x
        assert len(null) == cols - s.rank()
        assert null == linalg.nullspace(m)
        for v in null:
            assert all(c == 0 for c in linalg.matvec(m, v))
        if null:
            ours = sympy.Matrix(null)
            theirs = sympy.Matrix.hstack(*s.nullspace()).T
            assert ours.rank() == len(null)
            assert ours.col_join(theirs).rank() == len(null)
    assert outcomes[True] >= 8 and outcomes[False] >= 8


def test_lstsq_matches_sympy_normal_equations():
    rng = np.random.default_rng(41)
    deficient = 0
    for trial in range(24):
        rows, cols = (int(x) for x in rng.integers(1, 8, size=2))
        if trial % 2 == 0:
            a = _rank_deficient(rng, rows, cols, max(1, min(rows, cols) - 1))
        else:
            a = _rational(rng, rows, cols)
        b = _rational(rng, 1, rows)[0]
        s, sb = sympy.Matrix(a), sympy.Matrix(b)
        ata = s.T * s
        if ata.rank() < cols:
            deficient += 1
            expected = s.pinv() * sb  # the minimum-norm normal-equation solution
        else:
            expected = ata.inv() * (s.T * sb)
        x, res_sq = linalg.lstsq(a, b)
        assert x == list(expected)
        r = s * sympy.Matrix(x) - sb
        assert res_sq == (r.T * r)[0, 0]
        assert ata * sympy.Matrix(x) == s.T * sb
    assert deficient >= 6
