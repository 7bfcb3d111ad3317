"""Exterior-algebra kernel: wedge, interior, endomorphism action, Hodge."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from g2lab import linalg
from g2lab.exterior import (
    Endo,
    KForm,
    MetricData,
    basis_indices,
    basis_vector,
    complement_table,
    endo_action,
    hodge,
    inner,
    interior,
    wedge,
)
from g2lab.g2 import adapted_phi
from g2lab.scalars import FLOAT, RATIONAL, BackendMismatch, coerce
from g2lab.su3 import adapted_su3_pair

from oracles import (
    endo_oracle,
    gram_minor_oracle,
    interior_oracle,
    kform_to_terms,
    perm_sign,
    wedge_oracle,
)


def random_form(rng, n, k, span=4):
    coeffs = rng.integers(-span, span + 1, size=len(KForm.zero(n, k).coeffs))
    return KForm(n, k, [F(int(c)) for c in coeffs])


def test_from_terms_takes_both_index_orders_alike():
    # the coefficient enters the backend before the permutation sign is applied
    for idx, sign in (((1, 2, 3), 1), ((2, 1, 3), -1), ((3, 1, 2), 1)):
        form = KForm.from_terms(7, 3, {idx: "1/2"}, backend=RATIONAL)
        assert form == KForm.monomial(7, (1, 2, 3), F(sign, 2))
        assert form.terms() == {(1, 2, 3): F(sign, 2)}
        with pytest.raises(TypeError):
            KForm.from_terms(7, 3, {idx: "1/2"})
    # two terms on one index add in the backend
    assert KForm.from_terms(7, 2, {(1, 2): "1/3", (2, 1): "1/2"}, RATIONAL).terms() == {
        (1, 2): F(-1, 6)}


# -- wedge --------------------------------------------------------------------

def test_wedge_basis_case():
    e1, e2 = KForm.monomial(7, (1,)), KForm.monomial(7, (2,))
    assert wedge(e1, e2) == KForm.monomial(7, (1, 2))


def test_wedge_antisymmetry():
    e1, e2 = KForm.monomial(7, (1,)), KForm.monomial(7, (2,))
    assert wedge(e2, e1) == -1 * KForm.monomial(7, (1, 2))


def test_wedge_square_of_two_form():
    a = KForm.from_terms(7, 2, {(1, 2): 1, (3, 4): 1})
    assert wedge(a, a) == 2 * KForm.monomial(7, (1, 2, 3, 4))


def test_wedge_against_shuffle_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        p = int(rng.integers(1, min(3, n)))
        q = int(rng.integers(1, min(3, n - p) + 1))
        a, b = random_form(rng, n, p), random_form(rng, n, q)
        expected = wedge_oracle(kform_to_terms(a), p, kform_to_terms(b), q, n)
        assert expected == kform_to_terms(wedge(a, b))


def test_wedge_graded_commutativity_exact():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(4, 9))
        p = int(rng.integers(0, 4))
        q = int(rng.integers(0, min(4, n - p) + 1))
        a, b = random_form(rng, n, p), random_form(rng, n, q)
        assert wedge(a, b) == ((-1) ** (p * q)) * wedge(b, a)


def test_wedge_bilinear_and_associative():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_form(rng, 6, 1)
        b = random_form(rng, 6, 2)
        c = random_form(rng, 6, 2)
        assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_rejects_degree_overflow():
    a = KForm.monomial(4, (1, 2, 3))
    with pytest.raises(ValueError):
        wedge(a, KForm.monomial(4, (1, 4)))


def test_wedge_rejects_mixed_backends():
    a = KForm.monomial(6, (1,))
    with pytest.raises(BackendMismatch):
        wedge(a, KForm.monomial(6, (2,)).to_float())


# -- interior -----------------------------------------------------------------

def test_interior_leading_index():
    e127 = KForm.monomial(7, (1, 2, 7))
    assert interior(basis_vector(7, 1), e127) == KForm.monomial(7, (2, 7))


def test_interior_trailing_index_sign():
    e127 = KForm.monomial(7, (1, 2, 7))
    assert interior(basis_vector(7, 7), e127) == KForm.monomial(7, (1, 2))


def test_interior_absent_index():
    e127 = KForm.monomial(7, (1, 2, 7))
    assert interior(basis_vector(7, 3), e127).is_zero()


def test_interior_against_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, n))
        a = random_form(rng, n, k)
        i = int(rng.integers(0, n))
        expected = interior_oracle(i, kform_to_terms(a), k, n)
        assert expected == kform_to_terms(interior(basis_vector(n, i + 1), a))


def test_interior_is_antiderivation():
    rng = np.random.default_rng(9)
    for _ in range(15):
        n = 6
        p = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        a, b = random_form(rng, n, p), random_form(rng, n, q)
        x = tuple(F(int(c)) for c in rng.integers(-3, 4, size=n))
        lhs = interior(x, wedge(a, b))
        rhs = wedge(interior(x, a), b) + ((-1) ** p) * wedge(a, interior(x, b))
        assert lhs == rhs


def test_interior_squares_to_zero():
    rng = np.random.default_rng(13)
    a = random_form(rng, 7, 3)
    x = tuple(F(int(c)) for c in rng.integers(-3, 4, size=7))
    assert interior(x, interior(x, a)).is_zero()


def test_interior_rejects_degree_zero():
    with pytest.raises(ValueError):
        interior(basis_vector(5, 1), KForm.from_terms(5, 0, {(): 1}))


# -- endomorphism action ------------------------------------------------------

def test_identity_acts_as_degree(n2_entry):
    _, psi = adapted_su3_pair()
    assert endo_action(Endo.identity(6), psi) == 3 * psi


def test_lauret_derivation_fixes_psi():
    from g2lab.catalog import lauret_derivation

    _, psi = adapted_su3_pair()
    for a in (F(1, 4), F(1, 2), F(3)):
        assert endo_action(lauret_derivation(a), psi) == psi


def test_sab_derivation_scales_psi():
    from g2lab.catalog import sab_derivation

    _, psi = adapted_su3_pair()
    for b, k in ((F(1), F(0)), (F(2), F(5)), (F(-3), F(1))):
        assert endo_action(sab_derivation(b, k), psi) == -b * psi


def test_endo_action_against_oracle():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        gamma = random_form(rng, n, k)
        rows = [[F(int(c)) for c in rng.integers(-2, 3, size=n)] for _ in range(n)]
        expected = endo_oracle(rows, kform_to_terms(gamma), k, n)
        assert expected == kform_to_terms(endo_action(Endo(rows), gamma))


def test_endo_action_additive():
    rng = np.random.default_rng(23)
    gamma = random_form(rng, 6, 3)
    a = Endo([[F(int(c)) for c in rng.integers(-2, 3, size=6)] for _ in range(6)])
    b = Endo([[F(int(c)) for c in rng.integers(-2, 3, size=6)] for _ in range(6)])
    assert endo_action(a + b, gamma) == endo_action(a, gamma) + endo_action(b, gamma)


# -- Hodge star and inner products ---------------------------------------------

def test_hodge_identity_metric_monomial():
    m = MetricData.identity(7)
    assert hodge(m, KForm.monomial(7, (1, 2, 7))) == KForm.monomial(7, (3, 4, 5, 6))


def test_hodge_of_one_is_volume():
    m = MetricData.identity(7)
    one = KForm.from_terms(7, 0, {(): 1})
    assert hodge(m, one) == KForm.monomial(7, tuple(range(1, 8)))


def test_phi_wedge_star_phi():
    m = MetricData.identity(7)
    phi = adapted_phi()
    assert wedge(phi, hodge(m, phi)) == 7 * KForm.monomial(7, tuple(range(1, 8)))


def test_inner_products():
    m = MetricData.identity(7)
    assert inner(m, KForm.monomial(7, (1, 2)), KForm.monomial(7, (1, 2))) == 1
    phi = adapted_phi()
    assert inner(m, phi, phi) == 7
    tau = KForm.from_terms(7, 2, {(1, 2): -1, (3, 4): 3, (5, 6): -2})
    assert inner(m, tau, tau) == 14


def test_hodge_defining_property_random_metric():
    # alpha wedge *gamma = <alpha, gamma> vol for every basis alpha
    rng = np.random.default_rng(31)
    n = 5
    a = rng.standard_normal((n, n))
    g = a @ a.T + n * np.eye(n)
    vol = KForm.monomial(n, tuple(range(1, n + 1)),
                         float(np.sqrt(np.linalg.det(g))), backend=FLOAT)
    m = MetricData(g.tolist(), vol)
    for k in (1, 2, 3):
        gamma = KForm(n, k, rng.standard_normal(len(KForm.zero(n, k).coeffs)),
                      FLOAT)
        star = hodge(m, gamma)
        from g2lab.exterior import basis_indices

        for idx in basis_indices(n, k):
            alpha = KForm.monomial(n, tuple(i + 1 for i in idx), backend=FLOAT)
            lhs = wedge(alpha, star).coeffs[0]
            rhs = inner(m, alpha, gamma) * m.vol_coeff
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_hodge_involution_sign():
    rng = np.random.default_rng(37)
    for n in (5, 6, 7):
        a = rng.standard_normal((n, n))
        g = a @ a.T + n * np.eye(n)
        vol = KForm.monomial(n, tuple(range(1, n + 1)),
                             float(np.sqrt(np.linalg.det(g))), backend=FLOAT)
        m = MetricData(g.tolist(), vol)
        for k in range(0, n + 1):
            gamma = KForm(n, k,
                          rng.standard_normal(len(KForm.zero(n, k).coeffs)), FLOAT)
            twice = hodge(m, hodge(m, gamma))
            sign = (-1) ** (k * (n - k))
            diff = (twice - sign * gamma).max_abs()
            assert diff < 1e-12 * max(1.0, float(gamma.max_abs()))


def test_rational_gram_is_every_minor_of_the_inverse():
    # <e^I, e^J> = det g^-1[I, J]; g = A^T A is non-diagonal with det g = (det A)^2
    import sympy

    from g2lab.exterior import basis_indices

    a = sympy.Matrix([[1, 2, 0, 0, F(1, 3), 0],
                      [0, 1, -1, 0, 0, 2],
                      [F(1, 2), 0, 1, 3, 0, 0],
                      [0, 0, 0, 1, -2, F(2, 5)],
                      [1, 0, 0, 0, 1, 1],
                      [0, -1, 0, F(3, 4), 0, 1]])
    g = a.T * a
    n = g.rows
    vol = KForm.monomial(n, tuple(range(1, n + 1)), F(str(abs(a.det()))))
    m = MetricData([[F(str(x)) for x in g.row(i)] for i in range(n)], vol)
    ginv = g.inv()
    for k in range(2, 6):
        idxs = basis_indices(n, k)
        expected = [[F(str(ginv.extract(list(i), list(j)).det())) for j in idxs]
                    for i in idxs]
        assert [list(row) for row in m.gram(k)] == expected


def test_float_gram_matches_minor_oracle():
    rng = np.random.default_rng(41)
    for n in (6, 7, 8):
        for _ in range(3):
            a = rng.standard_normal((n, n))
            g = a @ a.T + 0.5 * np.eye(n)
            vol = KForm.monomial(n, tuple(range(1, n + 1)),
                                 float(np.sqrt(np.linalg.det(g))), backend=FLOAT)
            m = MetricData(g.tolist(), vol)
            ginv = np.array(m.g_inv())
            for k in range(n + 1):
                ref = gram_minor_oracle(ginv, k)
                err = np.max(np.abs(np.array(m.gram(k)) - ref))
                assert err <= 1e-13 * np.max(np.abs(ref)), (n, k)



def test_g_inv_is_the_cached_degree_one_gram_matrix(g_half):
    from g2lab.g2 import G2Structure

    rng = np.random.default_rng(43)
    a = rng.standard_normal((7, 7))
    g = a @ a.T + 0.5 * np.eye(7)
    vol = KForm.monomial(7, tuple(range(1, 8)), float(np.sqrt(np.linalg.det(g))),
                         backend=FLOAT)
    metric = G2Structure(g_half.algebra, g_half.phi).metric
    exact, floats = MetricData(metric.g, metric.vol), MetricData(g.tolist(), vol)
    for m in (exact, floats):
        assert m.g_inv() is m.gram(1)
    assert exact.g_inv() == tuple(map(tuple, linalg.inverse(metric.g)))
    # the float g^-1 is np.linalg.inv's, bit for bit
    assert np.array(floats.gram(1)).tobytes() == np.linalg.inv(g).tobytes()

def test_float_gram_is_accurate_on_ill_conditioned_metrics():
    # g = A^T A with integer A and cond(g) in [1e4, 1.4e5]: every entry is
    # within cond(g) eps max|entry| of the exact minor of g^-1 = adj(g) / det g
    from itertools import permutations
    from math import prod

    from g2lab import linalg
    from g2lab.exterior import basis_indices

    def minor(m, rows, cols):  # Leibniz, exact on integers
        return sum(perm_sign(p) * prod(m[i][j] for i, j in zip(rows, p))
                   for p in permutations(cols))

    rng, eps, checked = np.random.default_rng(7), np.finfo(float).eps, 0
    while checked < 6:
        a = rng.integers(-2, 3, size=(7, 7))
        g = a.T @ a
        vol = abs(round(np.linalg.det(a)))
        if vol == 0 or not 1e4 <= np.linalg.cond(g) <= 1.4e5:
            continue
        checked += 1
        m = MetricData(g.astype(float).tolist(),
                       KForm.monomial(7, tuple(range(1, 8)), float(vol), backend=FLOAT))
        adj = [[int(x * vol ** 2) for x in row]
               for row in linalg.inverse([[F(int(x)) for x in row] for row in g])]
        for k in (2, 3, 4):
            idxs = basis_indices(7, k)
            exact = np.array([[float(F(minor(adj, ii, jj), vol ** (2 * k))) for jj in idxs]
                              for ii in idxs])
            err = np.max(np.abs(np.array(m.gram(k)) - exact))
            assert err <= np.linalg.cond(g) * eps * np.max(np.abs(exact)), k


def test_rational_gram_takes_no_determinant(monkeypatch, g_half):
    # the columns come by Laplace expansion over the degree k - 1 table: no
    # determinant and no wedge product
    from g2lab import exterior, linalg
    from g2lab.g2 import G2Structure

    calls, det, wedge_ = [], linalg.det, exterior.wedge
    monkeypatch.setattr(linalg, "det", lambda m: calls.append("det") or det(m))
    monkeypatch.setattr(exterior, "wedge", lambda a, b: calls.append("wedge") or wedge_(a, b))
    metric = G2Structure(g_half.algebra, g_half.phi).metric
    fresh = MetricData(metric.g, metric.vol)
    for k in range(8):
        fresh.gram(k)
    assert calls == []


def _block_metric(blocks, rng):
    """Block-diagonal g with the basis permuted; det g must be a rational square."""
    g = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=object)
    at = 0
    for b in blocks:
        g[at:at + len(b), at:at + len(b)] = [[F(x) for x in row] for row in b]
        at += len(b)
    perm = rng.permutation(len(g))
    g = [[g[i][j] for j in perm] for i in perm]
    det = linalg.det(g)
    vol = F(math.isqrt(det.numerator), math.isqrt(det.denominator))
    assert vol * vol == det
    return MetricData(g, KForm.monomial(len(g), tuple(range(1, len(g) + 1)), vol))


def _sparse_form(rng, n, k, backend):
    size = len(KForm.zero(n, k).coeffs)
    if backend == RATIONAL:
        coeffs = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(size)]
    else:
        coeffs = rng.uniform(-2.0, 2.0, size).tolist()
    return KForm(n, k, [c if rng.random() < 0.3 else 0 * c for c in coeffs], backend)


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("backend", [RATIONAL, FLOAT])
def test_hodge_and_inner_equal_the_dense_gram_sum(n, backend):
    # the dense reference sums gram[i][j] gamma_j over every nonzero gamma_j,
    # zero Gram entries included; skipping those must change no bit
    rng = np.random.default_rng(27 + n)
    square = [[5, 4], [4, 5]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]], [[F(1, 4)]], [[4]]
    blocks = square if n == 7 else square[:2] + ([[9]],)
    metric = _block_metric(blocks, rng)
    if backend == FLOAT:
        metric = metric.to_float()

    def raised(gamma):
        gram = metric.gram(gamma.k)
        return [sum(gram[i][j] * c for j, c in enumerate(gamma.coeffs) if c != 0)
                for i in range(len(gram))]

    for k in range(n + 1):
        if 0 < k < n:
            assert any(x == 0 for row in metric.gram(k) for x in row)
        for _ in range(4):
            alpha, gamma = (_sparse_form(rng, n, k, backend) for _ in range(2))
            out = [0 * metric.vol_coeff] * len(KForm.zero(n, n - k).coeffs)
            for (cpos, sign), s in zip(complement_table(n, k), raised(gamma)):
                if s != 0:
                    out[cpos] += sign * s * metric.vol_coeff
            assert repr(hodge(metric, gamma).coeffs) == repr(tuple(out))
            total = 0 * metric.vol_coeff
            for a, s in zip(alpha.coeffs, raised(gamma)):
                if a != 0:
                    total += a * s
            assert repr(inner(metric, alpha, gamma)) == repr(total)


def test_hodge_rational_identity_backend():
    m = MetricData.identity(7)
    tau = KForm.from_terms(7, 2, {(1, 2): -1, (3, 4): 3, (5, 6): -2})
    phi = adapted_phi()
    # membership in the 14-dimensional component: tau wedge phi = -*tau
    assert wedge(tau, phi) == -1 * hodge(m, tau)


def test_metric_rejects_non_positive():
    with pytest.raises(ValueError):
        MetricData([[1, 0], [0, -1]][0:2], KForm.monomial(3, (1, 2, 3)))
    bad = [[-1 if i == j else 0 for j in range(7)] for i in range(7)]
    with pytest.raises(ValueError):
        MetricData(bad, KForm.monomial(7, tuple(range(1, 8))))


def _float_metric(g, volc):
    n = len(g)
    return MetricData(np.asarray(g, float).tolist(),
                      KForm.monomial(n, tuple(range(1, n + 1)), float(volc), backend=FLOAT))


def test_float_volume_check_scales_with_the_hadamard_ratio():
    # g = A^T A with det A = -1 and cond(g) = 4.6e8: exact, and its float copy
    # has a Cholesky det 1.9e-8 away from vol^2 = 1, within n eps prod g_ii / det g
    a = [[0, -1, 1, 1, -2, 1, 1], [-2, -1, -2, -1, -1, 2, -1], [-1, 2, 2, -2, -1, -1, -2],
         [-2, -1, 2, 2, -2, -2, 2], [-2, 2, -2, 2, 2, 1, 1], [2, 0, -1, -2, 0, 2, -2],
         [2, -2, -2, 0, -2, -1, -2]]
    g = np.array(a).T @ np.array(a)
    exact = MetricData([[F(int(x)) for x in row] for row in g],
                       KForm.monomial(7, tuple(range(1, 8)), F(1)))
    assert exact.to_float().g == tuple(tuple(float(x) for x in row) for row in g)
    # an exact metric is checked exactly, even with H = (m^2 + 1)^2 / 4m^2 beyond floats
    m = 10 ** 200
    c = F(m * m - 1, m * m + 1)  # 1 - c^2 = (2m / (m^2 + 1))^2
    MetricData([[1, c, 0], [c, 1, 0], [0, 0, 1]],
               KForm.monomial(3, (1, 2, 3), F(2 * m, m * m + 1)))
    # a volume off by a relative 1e-6 is still refused where g is well conditioned
    rng = np.random.default_rng(43)
    b = rng.standard_normal((7, 7))
    well = b @ b.T + 7 * np.eye(7)
    for g in (np.eye(7), well):
        volc = math.sqrt(np.linalg.det(g))
        _float_metric(g, volc)
        with pytest.raises(ValueError, match="inconsistent"):
            _float_metric(g, volc * (1 + 1e-6))


def test_float_metric_positivity_is_the_cholesky_pivot_rule():
    # the pivot bound of linalg.positive_det_np, as for the induced form of a float phi
    below, above = (f * linalg.CHOLESKY_PIVOT_TOL for f in (0.1, 10))
    with pytest.raises(ValueError, match="positive-definite"):
        _float_metric(np.diag([1.0] * 6 + [below]), math.sqrt(below))
    assert _float_metric(np.diag([1.0] * 6 + [above]), math.sqrt(above)).g[6][6] == above


# -- backends, serialization, misc ---------------------------------------------

def test_kform_shape_validation():
    with pytest.raises(ValueError):
        KForm(9, 1, [0] * 9)
    with pytest.raises(ValueError):
        KForm(7, 3, [0] * 10)


def test_scalar_backend_rules():
    a = KForm.monomial(6, (1, 2))
    assert a.backend == RATIONAL
    assert (0.5 * a.to_float()).backend == FLOAT
    with pytest.raises(BackendMismatch):
        0.5 * a
    assert (F(1, 2) * a).coeff((1, 2)) == F(1, 2)


def test_json_roundtrip_rational():
    form = KForm.from_terms(7, 3, {(1, 2, 7): F(3, 2), (1, 3, 5): -2})
    data = json.loads(json.dumps(form.to_json_dict()))
    back = KForm.from_json_dict(data)
    assert back == form
    assert data["terms"][0]["c"] == "3/2"


def test_json_roundtrip_float():
    form = KForm.from_terms(7, 2, {(1, 2): 0.25, (3, 4): -1.5}, backend=FLOAT)
    back = KForm.from_json_dict(form.to_json_dict())
    assert back == form


def test_from_terms_unsorted_indices_alternate():
    assert KForm.from_terms(6, 2, {(2, 1): 1}) == -1 * KForm.monomial(6, (1, 2))
    assert KForm.from_terms(6, 2, {(1, 1): 5}).is_zero()


def test_from_terms_sums_signed_terms_per_index_in_both_backends():
    rng = np.random.default_rng(61)
    for trial in range(40):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(0, n + 1))
        backend = (RATIONAL, FLOAT)[trial % 2]
        terms = {}
        for _ in range(int(rng.integers(0, 8))):
            idx = tuple(int(i) + 1 for i in rng.choice(n, size=k, replace=False))
            c = F(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
            terms[idx] = c if backend == RATIONAL else float(c)
            if k >= 2 and rng.random() < 0.4:  # the swapped index: cancels or adds up
                swapped = (idx[1], idx[0]) + idx[2:]
                terms[swapped] = terms[idx] * (1 if rng.random() < 0.5 else 2)
            if k >= 2 and rng.random() < 0.3:  # a repeated index wedges to zero
                terms[(idx[0],) * 2 + idx[2:]] = terms[idx]
        want = {}
        for idx, c in terms.items():
            if len(set(idx)) == k:
                key = tuple(sorted(idx))
                want[key] = want.get(key, 0) + perm_sign(idx) * c
        # the backend is read off the terms when there are any (no terms below)
        form = KForm.from_terms(n, k, terms, None if trial % 4 < 2 and want else backend)
        assert form.backend == backend
        zero = F(0) if backend == RATIONAL else 0.0
        assert form.coeffs == tuple(want.get(tuple(i + 1 for i in idx), zero)
                                    for idx in basis_indices(n, k))
        scalar = F if backend == RATIONAL else float
        assert all(type(c) is scalar for c in form.coeffs)
    # no terms: the backend's zeros, rational unless told otherwise
    for backend, scalar in ((None, F), (RATIONAL, F), (FLOAT, float)):
        form = KForm.from_terms(7, 3, {}, backend)
        assert form.is_zero() and all(type(c) is scalar for c in form.coeffs)
    cancelled = KForm.from_terms(7, 2, {(1, 2): F(1, 3), (2, 1): F(1, 3)})
    assert cancelled.is_zero() and all(type(c) is F for c in cancelled.coeffs)


def test_coerce_passes_fractions_through_and_still_converts():
    values = (F(1, 2), F(-3), F(0))
    got = coerce(values, RATIONAL)
    assert got == values and all(a is b for a, b in zip(got, values))
    assert coerce(iter(values), RATIONAL) == values
    got = coerce([1, "3/8", F(1, 2), True], RATIONAL)
    assert got == (F(1), F(3, 8), F(1, 2), F(1)) and all(type(x) is F for x in got)
    for bad in ((F(1), 0.5), (0.0,), (F(1), np.float64(2))):
        with pytest.raises(TypeError, match="expected an exact rational"):
            coerce(bad, RATIONAL)
    assert coerce(values, FLOAT) == (0.5, -3.0, 0.0)


def test_embedded_and_restricted():
    omega, _ = adapted_su3_pair()
    lifted = omega.embedded(7)
    assert lifted.n == 7 and lifted.terms() == omega.terms()
    assert lifted.restricted(6) == omega
