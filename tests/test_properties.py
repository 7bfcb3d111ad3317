"""Hypothesis properties of the exterior algebra and the Hodge star.

Wedge products are graded-commutative and associative, and the
Chevalley-Eilenberg differential of each catalog algebra is an
antiderivation (Leibniz rule); integer coefficients make these exact in
both backends.  On rational structure constants, Jacobi holds (check_jacobi
is 0) exactly when the oracle's Jacobiator vanishes and exactly when d o d
vanishes in every degree.  For the Hodge star, g = A^T A for an integer matrix A, so
vol = |det A| e^{1...n} is rational: the exact backend checks each identity
with equality, and the float backend checks it on the same metric and forms
converted to floats.  The induced bilinear form of a 3-form on R^7 is
equivariant, b_{A* phi} = det(A) A^T b_phi A for integer A, with A* phi built
from wedges of the 1-forms A* e^i, so the identity does not use b's term
table.  Examples are derandomized and bounded, so the suite stays
deterministic.
"""

from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from g2lab import catalog  # noqa: E402
from g2lab.exterior import KForm, MetricData, basis_indices, hodge, inner, wedge  # noqa: E402
from g2lab.g2 import induced_bilinear  # noqa: E402
from g2lab.liealg import ce_differential, check_jacobi, from_structure_equations  # noqa: E402

from oracles import jacobiator_oracle, structure_constants_oracle  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)
EPS = np.finfo(float).eps

#: catalog algebras for the Leibniz rule: nilpotent, solvable and non-solvable
ALGEBRAS = (("n2", ()), ("s_ab", (("a", 1), ("b", 2))), ("g_a", (("a", F(1, 2)),)),
            ("g_abk", (("a", 1), ("b", 1), ("k", 0))), ("ffkm_n", ()),
            ("nonsolv_levi", ()), ("nonsolv_3", (("mu", 1),)))


@lru_cache(maxsize=None)
def _algebra(entry_id, params):
    return catalog.get(entry_id, **dict(params)).algebra


def _form(draw, n, k):
    size = len(basis_indices(n, k))
    return KForm(n, k, [F(c) for c in draw(st.lists(st.integers(-2, 2),
                                                     min_size=size, max_size=size))])


@st.composite
def forms(draw, count):
    """count rational forms on R^n whose degrees sum to at most n."""
    n = draw(st.integers(3, 8))
    degrees = []
    for _ in range(count):
        degrees.append(draw(st.integers(0, n - sum(degrees))))
    return [_form(draw, n, k) for k in degrees]


@st.composite
def algebra_and_forms(draw):
    """A catalog algebra and two rational forms with p + q < n."""
    alg = _algebra(*draw(st.sampled_from(ALGEBRAS)))
    p = draw(st.integers(0, alg.n - 1))
    q = draw(st.integers(0, alg.n - 1 - p))
    return alg, _form(draw, alg.n, p), _form(draw, alg.n, q)


@st.composite
def metric_and_forms(draw):
    """(rational metric on R^n, two rational k-forms), n in {6, 7}, 0 <= k <= n."""
    n = draw(st.sampled_from((6, 7)))
    k = draw(st.integers(0, n))
    a = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    det = sympy.Matrix(a).det()
    assume(det != 0)
    g = [[F(sum(a[r][i] * a[r][j] for r in range(n))) for j in range(n)]
         for i in range(n)]
    metric = MetricData(g, KForm.monomial(n, tuple(range(1, n + 1)), F(abs(int(det)))))
    size = len(basis_indices(n, k))
    coeffs = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    alpha, beta = (KForm(n, k, [F(c) for c in draw(coeffs)]) for _ in range(2))
    return metric, alpha, beta


@PROPERTY
@given(forms(2))
def test_wedge_is_graded_commutative(case):
    alpha, beta = case
    sign = (-1) ** (alpha.k * beta.k)
    assert wedge(alpha, beta) == sign * wedge(beta, alpha)
    assert wedge(alpha.to_float(), beta.to_float()) == wedge(alpha, beta).to_float()


@PROPERTY
@given(forms(3))
def test_wedge_is_associative(case):
    alpha, beta, gamma = case
    assert wedge(wedge(alpha, beta), gamma) == wedge(alpha, wedge(beta, gamma))


@PROPERTY
@given(algebra_and_forms())
def test_differential_obeys_leibniz_rule(case):
    alg, alpha, beta = case
    sign = (-1) ** alpha.k
    lhs = ce_differential(alg, wedge(alpha, beta))
    rhs = wedge(ce_differential(alg, alpha), beta) \
        + sign * wedge(alpha, ce_differential(alg, beta))
    assert lhs == rhs
    flhs = ce_differential(alg, wedge(alpha.to_float(), beta.to_float()))
    assert (flhs - lhs.to_float()).max_abs() <= 1e-12 * max(1, lhs.max_abs())


@st.composite
def structure_equations(draw):
    """A catalog algebra in the drawn basis f_i = sum_a p[a][i] e_a, p = L U
    with unit-triangular integer L and U, and possibly with one structure
    constant shifted: rational constants that may or may not satisfy Jacobi."""
    alg = _algebra(*draw(st.sampled_from(ALGEBRAS)))
    n = alg.n
    entries = st.integers(-1, 1)
    low = sympy.Matrix(n, n, lambda i, j: draw(entries) if i > j else int(i == j))
    up = sympy.Matrix(n, n, lambda i, j: draw(entries) if i < j else int(i == j))
    p = [[int(x) for x in row] for row in (low * up).tolist()]
    q = [[int(x) for x in row] for row in (low * up).inv().tolist()]
    eqs = {}
    for i in range(n):
        for j in range(i + 1, n):
            in_e = [0] * n  # [f_i, f_j] in the basis e
            for (a, b), pairs in structure_constants_oracle(alg).items():
                for m, c in pairs:
                    in_e[m] += p[a][i] * p[b][j] * c
            for k in range(n):
                c = sum((q[k][m] * in_e[m] for m in range(n)), F(0))
                if c != 0:
                    eqs.setdefault(k + 1, {})[(i + 1, j + 1)] = -c
    if draw(st.booleans()):
        i = draw(st.integers(1, n - 1))
        j, k = draw(st.integers(i + 1, n)), draw(st.integers(1, n))
        shift = draw(st.sampled_from((F(-1), F(1, 2), F(2))))
        terms = eqs.setdefault(k, {})
        terms[(i, j)] = terms.get((i, j), F(0)) + shift
    return from_structure_equations(n, eqs)


@settings(PROPERTY, max_examples=12)  # d o d on every monomial of a dense d is slow
@given(structure_equations())
def test_jacobi_iff_jacobiator_and_d_squared_vanish(alg):
    jacobi = check_jacobi(alg) == 0
    assert jacobi == (jacobiator_oracle(alg) == 0)
    monomials = (KForm.monomial(alg.n, tuple(i + 1 for i in idx))
                 for k in range(1, alg.n - 1) for idx in basis_indices(alg.n, k))
    d_squared_zero = all(ce_differential(alg, ce_differential(alg, e)).is_zero()
                         for e in monomials)
    assert jacobi == d_squared_zero


def _condition(metric):
    return float(np.linalg.cond(np.array(metric.g, dtype=float)))


@PROPERTY
@given(metric_and_forms())
def test_double_star_is_signed_identity(case):
    # float: for 2k != n one star comes from g^-1 and the other from g, so
    # their rounding does not cancel and the gap grows like cond(g)^2
    metric, gamma, _ = case
    n, k = gamma.n, gamma.k
    sign = (-1) ** (k * (n - k))
    assert hodge(metric, hodge(metric, gamma)) == sign * gamma
    fm, fg = metric.to_float(), gamma.to_float()
    gap = (hodge(fm, hodge(fm, fg)) - sign * fg).max_abs()
    assert gap <= 100 * EPS * _condition(metric) ** 2 * max(1.0, fg.max_abs())


@PROPERTY
@given(metric_and_forms())
def test_wedge_star_is_inner_product_times_volume(case):
    metric, alpha, beta = case
    exact = inner(metric, alpha, beta) * metric.vol
    assert wedge(alpha, hodge(metric, beta)) == exact
    fm, fa, fb = metric.to_float(), alpha.to_float(), beta.to_float()
    gap = abs(wedge(fa, hodge(fm, fb)).coeffs[0] - inner(fm, fa, fb) * fm.vol_coeff)
    assert gap <= 100 * EPS * _condition(metric) * max(1.0, abs(float(exact.coeffs[0])))


@st.composite
def pulled_back_forms(draw):
    """(A, phi, A* phi): an integer 7 x 7 matrix with det A != 0, a rational
    3-form and its pullback, e^i -> sum_j A[i][j] e^j wedged term by term."""
    a = [[draw(st.integers(-2, 2)) for _ in range(7)] for _ in range(7)]
    assume(sympy.Matrix(a).det() != 0)
    phi = _form(draw, 7, 3)
    ones = [KForm(7, 1, [F(x) for x in row]) for row in a]
    pulled = KForm.zero(7, 3)
    for (i, j, k), c in zip(basis_indices(7, 3), phi.coeffs):
        if c:
            pulled = pulled + c * wedge(wedge(ones[i], ones[j]), ones[k])
    return a, phi, pulled


@PROPERTY
@given(pulled_back_forms())
def test_induced_bilinear_is_equivariant(case):
    a, phi, pulled = case
    det = int(sympy.Matrix(a).det())
    b = induced_bilinear(phi)
    expected = [[det * sum(a[p][i] * b[p][q] * a[q][j] for p in range(7) for q in range(7))
                 for j in range(7)] for i in range(7)]
    assert induced_bilinear(pulled) == expected
