"""The exact linear-algebra kernel against sympy.

Seeded rational matrices cover singular and rank-deficient cases, zero
leading entries, indefinite matrices with positive determinant, and
inconsistent systems.
"""

from fractions import Fraction as F

import numpy as np
import pytest
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


def _sparse_cases(rng):
    """Sparse rational matrices (5-30 % nonzeros) of every shape rref meets."""
    cases = [[], [[F(0)]], [[F(0)], [F(0)]], [[F(0)], [F(3, 2)], [F(-1)]]]
    for trial in range(60):
        rows, cols = (int(x) for x in rng.integers(1, 13, size=2))
        m = _rational(rng, rows, cols, density=float(rng.uniform(0.05, 0.3)))
        if trial % 3 == 0:  # a full diagonal: full rank when square
            for i in range(min(rows, cols)):
                m[i][i] = F(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        if trial % 4 == 1 and rows > 1:  # duplicate and combined rows
            m[-1] = list(m[0])
            if rows > 2:
                m[1] = [x - 2 * y for x, y in zip(m[0], m[-2])]
        if trial % 5 == 2:  # a zero row and a zero column
            m[int(rng.integers(rows))] = [F(0)] * cols
            zero_col = int(rng.integers(cols))
            for row in m:
                row[zero_col] = F(0)
        cases.append(m)
    cases.append([[F(1), F(2)]] * 3)
    return cases


def _derivation_systems():
    from g2lab import catalog
    from g2lab.liealg import derivation_equations

    return [derivation_equations(catalog.get(e).algebra)
            for e in ("n1", "s_ab", "g_a", "nonsolv_2", "nonsolv_levi")]


def test_rref_matches_sympy():
    rng = np.random.default_rng(43)
    kinds = dict.fromkeys(("full", "deficient", "tall", "wide", "zero_row", "zero_col"), 0)
    for m in _sparse_cases(rng) + _derivation_systems():
        before = [list(row) for row in m]
        red, pivots = linalg.rref(m)
        assert m == before
        s = sympy.Matrix(m) if m else sympy.zeros(0, 0)
        expected, expected_pivots = s.rref()
        assert tuple(pivots) == expected_pivots
        assert red == [[F(int(x.p), int(x.q)) for x in expected.row(i)]
                       for i in range(s.rows)]
        rank = len(pivots)
        kinds["full" if rank == min(s.shape) else "deficient"] += 1
        kinds["tall"] += s.rows > s.cols
        kinds["wide"] += s.rows < s.cols
        kinds["zero_row"] += any(all(x == 0 for x in row) for row in m)
        kinds["zero_col"] += any(all(x == 0 for x in col) for col in zip(*m))
    assert min(kinds.values()) >= 8, kinds


def test_sparse_rows_match_dense_rows_and_sympy():
    # rows as {column: value} dicts of their nonzeros, with the column count
    rng = np.random.default_rng(47)
    edge = [[[F(0)] * 4, [F(0), F(2), F(0), F(0)], [F(1), F(0), F(0), F(0)]],  # empty row 0
            [[F(0)] * 5 for _ in range(3)],  # all rows empty
            [[F(1), F(2), F(0), F(0)], [F(2), F(4), F(0), F(0)]]]  # trailing zero columns
    for m in edge + _sparse_cases(rng) + _derivation_systems():
        ncols = len(m[0]) if m else 0
        sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
        s = sympy.Matrix(m) if m else sympy.zeros(0, 0)
        expected, expected_pivots = s.rref()
        red, pivots = linalg.rref(sparse, ncols)
        assert (red, pivots) == linalg.rref(m)
        assert tuple(pivots) == expected_pivots
        assert red == [[F(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(s.rows)]
        assert linalg.rank(sparse) == linalg.rank(m) == s.rank()
        assert linalg.nullspace(sparse, ncols) == linalg.nullspace(m)
        assert len(linalg.nullspace(sparse, ncols)) == ncols - s.rank()
        # without the count the columns end at the last one a row holds
        width = max((max(row) for row in sparse if row), default=-1) + 1
        assert linalg.rref(sparse) == ([row[:width] for row in red], pivots)
    # a stored zero is not a nonzero: it neither pivots nor widens the result
    assert linalg.rref([{0: F(0), 1: F(2)}, {3: F(0)}]) == ([[F(0), F(1)], [F(0), F(0)]], [1])
    assert linalg.rank([{}, {2: F(0)}]) == 0


def _sympy_rref(m):
    s = sympy.Matrix([[sympy.Rational(x) for x in row] for row in m])
    expected, pivots = s.rref()
    return [[F(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(s.rows)], list(pivots)


def test_integer_elimination_matches_sympy_on_hard_entries():
    # rows are scaled to ints by the lcm of their denominators: large coprime
    # denominators, int entries among Fractions, stored zeros and rows that
    # cancel to zero must all give sympy's rref, one Fraction per entry
    rng = np.random.default_rng(59)
    big = [2 ** 61 - 1, 3 ** 40, 5 ** 27, 7, 1]
    cases = [[[F(1, 2 ** 61 - 1), F(1, 3 ** 40)], [F(1, 3 ** 40), F(1, 2 ** 61 - 1)]],
             [[1, F(1, 3 ** 40), 0], [F(2, 2 ** 61 - 1), 3, F(0)], [2, F(2, 3 ** 40), 0]],
             [[F(1, 3), F(2, 3)], [F(-1, 3), F(-2, 3)], [0, 0]]]  # rows 2 and 3 cancel
    for trial in range(40):
        rows, cols = (int(x) for x in rng.integers(1, 8, size=2))
        m = [[(int(rng.integers(-9, 10)) if rng.random() < 0.3
               else F(int(rng.integers(-9, 10)), big[int(rng.integers(len(big)))]))
              if rng.random() < 0.5 else F(0) for _ in range(cols)] for _ in range(rows)]
        if rows > 2:  # a combination of two rows, which cancels to zero
            m[-1] = [x - F(7, 3 ** 40) * y for x, y in zip(m[0], m[1])]
            m[-2] = [x - F(7, 3 ** 40) * y for x, y in zip(m[0], m[1])]
        cases.append(m)
    for m in cases:
        ncols = len(m[0])
        expected = _sympy_rref(m)
        stored = [{j: x for j, x in enumerate(row)} for row in m]  # zeros stored too
        for rows in (m, stored):
            red, pivots = linalg.rref(rows, ncols)
            assert (red, pivots) == expected
            assert all(type(x) is F for row in red for x in row)
            assert linalg.rank(rows) == len(pivots)
            null = linalg.nullspace(rows, ncols)
            assert len(null) == ncols - len(pivots)
            assert all(type(x) is F for v in null for x in v)
            assert all(linalg.matvec(m, v) == [0] * len(m) for v in null)


def test_rank_counts_pivots_without_densifying():
    import tracemalloc

    tracemalloc.start()
    try:
        assert linalg.rank([{10 ** 6: F(1)}]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a dense row of 10^6 + 1 entries takes 8 MB


def test_columns_outside_the_count_raise():
    for call in (lambda: linalg.rref([{5: F(1)}], ncols=3),
                 lambda: linalg.rref([{-1: F(2)}, {0: F(1)}], ncols=2),
                 lambda: linalg.nullspace([{0: F(1)}, {3: F(1)}], ncols=3),
                 lambda: linalg.rank([{0: F(1)}, {-2: F(1)}]),
                 lambda: linalg.rref([[F(1), F(0), F(2)]], ncols=2)):
        with pytest.raises(ValueError, match="outside"):
            call()
    # the column count itself and a stored zero past it are fine
    assert linalg.rref([{2: F(3)}, {4: F(0)}], ncols=3) == (
        [[F(0), F(0), F(1)], [F(0), F(0), F(0)]], [2])


def test_only_exact_rationals_are_eliminated():
    for call in (lambda: linalg.rank([[1.5, 2.0], [3.0, 4.0]]),
                 lambda: linalg.rref([{0: F(1)}, {1: 0.5}], ncols=2),
                 lambda: linalg.nullspace([[F(1), np.float64(2.0)]]),
                 lambda: linalg.solve([[F(1), 2.5]], [F(1)])):
        with pytest.raises(TypeError, match="expected an exact rational"):
            call()
    assert linalg.rank([[True, 2], [np.int64(3), F(6)]]) == 1


def test_products_skip_zero_factors_and_keep_the_backend():
    rng = np.random.default_rng(53)
    for _ in range(30):
        r, inner, c = (int(x) for x in rng.integers(1, 8, size=3))
        a, b = _rational(rng, r, inner, 0.3), _rational(rng, inner, c, 0.3)
        v = _rational(rng, 1, inner, 0.3)[0]
        got_mv, got_mm = linalg.matvec(a, v), linalg.matmul(a, b)
        assert got_mv == [sum((x * y for x, y in zip(row, v)), F(0)) for row in a]
        assert got_mm == [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)]
                          for row in a]
        assert all(type(x) is F for x in got_mv + [x for row in got_mm for x in row])
        # the same zeros in float matrices: the dense sums, bit for bit
        fa, fb, fv = ((np.array(x, float) * rng.normal(size=np.shape(x))).tolist()
                      for x in (a, b, v))
        got = [linalg.matvec(fa, fv)] + linalg.matmul(fa, fb)
        assert got == [[sum((x * y for x, y in zip(row, fv)), 0.0) for row in fa]] + [
            [sum((x * y for x, y in zip(row, col)), 0.0) for col in zip(*fb)] for row in fa]
        assert all(type(x) is float for row in got for x in row)
    # every product of an entry skipped: a float zero, not Fraction(0)
    a = [[0.0, 1.5], [2.0, 0.0]]
    for got in (linalg.matmul(a, [[3.0, 0.0], [0.0, 0.0]]), [linalg.matvec(a, [0.0, 2.0])],
                [linalg.matvec(a, [0.0, 0.0])]):
        assert all(type(x) is float for row in got for x in row)
    assert linalg.matmul(a, [[3.0, 0.0], [0.0, 0.0]]) == [[0.0, 0.0], [6.0, 0.0]]
    assert linalg.matvec(a, [0.0, 2.0]) == [3.0, 0.0]


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



def test_determinants_take_exact_entries_only():
    for f in (linalg.det, linalg.positive_det):
        for m in ([[2.0, 0.1], [0.1, 1.0]], [[F(2), F(1, 2)], [F(1, 2), np.float64(1.0)]],
                  [[1, 0], [0, float("nan")]]):
            with pytest.raises(TypeError, match="expected an exact rational"):
                f(m)
    # a zero of any type is a zero, as in rref; int entries are divided exactly
    ints = [[3, 1, 1], [1, 3, 1], [1, 1, 7]]
    fracs = [[F(x) for x in row] for row in ints]
    for m in (ints, fracs, [[np.int64(x) for x in row] for row in ints]):
        for got in (linalg.det(m), linalg.positive_det(m)):
            assert got == 52 and type(got) is F
    m = [[F(1, 3), 0.0], [0.0, 6]]
    assert linalg.det(m) == linalg.positive_det(m) == 2
    assert linalg.det([[0, 1], [1, 0]]) == -1 and linalg.positive_det([[0, 1], [1, 0]]) is None
    for m in _square_cases(np.random.default_rng(61)):
        exact = sympy.Matrix(m).det()
        assert linalg.det(m) == exact == linalg.det([[F(x) for x in row] for row in m])


def test_positive_det_np_matches_the_numpy_reduction_bit_for_bit():
    # the pivots read as Python floats, multiplied in order, against numpy's
    # min, max and prod over the pivot vector: the same None or the same float
    from oracles import positive_det_np_oracle

    rng = np.random.default_rng(67)
    tol = linalg.CHOLESKY_PIVOT_TOL
    seen = {"pd": 0, "refused": 0, "near_above": 0, "near_below": 0, "nan": 0}
    for t in range(20000):
        kind = t % 4
        a = rng.standard_normal((7, 7))
        if kind == 0:  # positive-definite
            b = a @ a.T
        elif kind == 1:  # symmetric, mostly indefinite
            b = a + a.T
        else:  # b = L L^T with its last pivot within 1 % of the bound
            low = np.tril(a, -1) + np.diag(rng.uniform(0.5, 2.0, size=7))
            low[6, :6] *= 0.1
            low[6, 6] = 0.0
            b = low @ low.T
            edge = tol * np.max(np.abs(np.diag(b))) * rng.uniform(0.99, 1.01)
            b[6, 6] += edge
            if kind == 3:  # and a NaN somewhere, upper or lower triangle
                i, j = rng.integers(0, 7, size=2)
                b[i, j] = np.nan
        b *= 10.0 ** rng.uniform(-6, 6)
        got, want = linalg.positive_det_np(b), positive_det_np_oracle(b, tol)
        if want is None:
            assert got is None, t
        else:
            assert type(got) is float and got == want, t
        if kind == 2:
            seen["near_above" if got is not None else "near_below"] += 1
        elif kind == 3:
            seen["nan"] += got is None
        else:
            seen["pd" if got is not None else "refused"] += 1
    assert min(seen.values()) >= 1000, seen


def test_zero_pivot_after_elimination_takes_a_row_exchange():
    # the second diagonal entry of the 3 x 3 vanishes only once the first
    # column is eliminated; the 4 x 4 takes two row exchanges.  det must count
    # each exchange, and positive_det must refuse: a leading minor is zero
    cases = [[[1, 1, 0], [1, 1, 1], [0, 1, 1]],
             [[1, 0, 1, 0], [1, 0, 1, 1], [1, 1, 1, 2], [-1, -1, 0, 1]]]
    for m, swaps in zip(cases, (1, 2)):
        m = [[F(x) for x in row] for row in m]
        assert sum(swapped for _, swapped in linalg._pivots(m)) == swaps
        assert linalg.det(m) == sympy.Matrix(m).det() != 0
        assert linalg.positive_det(m) is None

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


def test_lstsq_of_rank_zero_is_zero():
    b = [F(1, 2), F(-3), F(0), F(2, 7)]
    x, res_sq = linalg.lstsq([[F(0)] * 3 for _ in b], b)
    assert x == [0, 0, 0]
    assert res_sq == sum(bi * bi for bi in b)
