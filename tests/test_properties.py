"""Hypothesis properties of the Hodge star on random rational metrics.

g = A^T A for an integer matrix A, so vol = |det A| e^{1...n} is rational:
the exact backend checks each identity with equality, and the float backend
checks it on the same metric and forms converted to floats.  Examples are
derandomized and bounded, so the suite stays deterministic.
"""

from fractions import Fraction as F

import numpy as np
import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from g2lab.exterior import KForm, MetricData, basis_indices, hodge, inner, wedge  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)
EPS = np.finfo(float).eps


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
