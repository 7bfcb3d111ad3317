"""G2-structures: induced metric, torsion, curvature, pinching, search."""

from fractions import Fraction as F

import numpy as np
import pytest

from g2lab import catalog
from g2lab.exterior import KForm, interior, wedge
from g2lab.g2 import (
    G2Structure,
    NotERPError,
    NotPositiveError,
    adapted_phi,
    curvature,
    erp_diagnostics,
    erp_residual,
    hodge_laplacian_closed,
    is_positive,
    j_map,
    metric_from_phi,
    project_14,
    search_closed_positive,
    torsion_form,
)
from g2lab.liealg import abelian, ce_differential
from g2lab.scalars import FLOAT

IDENTITY7 = tuple(tuple(F(1) if i == j else F(0) for j in range(7))
                  for i in range(7))


def pullback(p_rows, form):
    """Pullback of a form under the covector substitution e^i -> sum p[i][j] e^j."""
    n = form.n
    ones = [KForm.from_terms(n, 1, {(j + 1,): p_rows[i][j] for j in range(n)})
            for i in range(n)]
    out = KForm.zero(n, form.k)
    for idx, c in form.terms().items():
        term = KForm.from_terms(n, 0, {(): c})
        for i in idx:
            term = wedge(term, ones[i - 1])
        out = out + term
    return out


# -- induced metric ---------------------------------------------------------------

def test_adapted_phi_gives_identity_metric():
    m = metric_from_phi(7, adapted_phi())
    assert m.g == IDENTITY7
    assert m.vol == KForm.monomial(7, tuple(range(1, 8)))


def test_metric_transformation_oracle():
    # for a covector substitution P with det > 0: g_{P*phi} = P^T g P
    rng = np.random.default_rng(19)
    phi = adapted_phi()
    found = 0
    while found < 5:
        p = [[F(int(c)) for c in rng.integers(-2, 3, size=7)] for _ in range(7)]
        from g2lab.linalg import det, matmul, transpose

        if det(p) <= 0:
            continue
        found += 1
        moved = pullback(p, phi).to_float()
        m = metric_from_phi(7, moved)
        expected = matmul(transpose(p), [list(r) for r in IDENTITY7])
        expected = matmul(expected, p)
        worst = max(abs(float(m.g[i][j]) - float(expected[i][j]))
                    for i in range(7) for j in range(7))
        assert worst < 1e-9 * max(1.0, max(abs(float(x))
                                           for r in expected for x in r))


def test_scaled_covector_metric():
    # e1 -> 2 e1 scales g_11 by 4 and leaves the other diagonal entries alone
    p = [[F(2) if i == j == 0 else (F(1) if i == j else F(0)) for j in range(7)]
         for i in range(7)]
    moved = pullback(p, adapted_phi()).to_float()
    m = metric_from_phi(7, moved)
    assert abs(float(m.g[0][0]) - 4.0) < 1e-9
    assert abs(float(m.g[1][1]) - 1.0) < 1e-9


def test_degenerate_form_rejected():
    bad = KForm.from_terms(7, 3, {(1, 2, 3): 1, (4, 5, 6): 1})
    with pytest.raises(NotPositiveError, match="not a positive 3-form"):
        metric_from_phi(7, bad)


def test_positivity_predicate():
    assert is_positive(7, adapted_phi())
    assert not is_positive(7, -1 * adapted_phi())
    assert not is_positive(7, KForm.zero(7, 3))
    assert is_positive(7, adapted_phi().to_float())
    assert not is_positive(7, (-1 * adapted_phi()).to_float())


def test_float_positivity_rule_agrees_with_exact():
    from g2lab.g2 import CHOLESKY_PIVOT_TOL, positive_det_np

    # e^1 -> e^1/1000 leaves b positive-definite with a first pivot of 1e-9
    squeeze = [[F(1, 1000) if i == j == 0 else F(int(i == j)) for j in range(7)]
               for i in range(7)]
    squeezed = pullback(squeeze, adapted_phi())
    # adapted_phi without e^127 under e^i -> e^i + e^{i+1}/3: b is singular,
    # but float rounding can leave det b slightly positive, so the Cholesky
    # step has to reject it
    shear = [[F(1) if j == i else F(1, 3) if j == (i + 1) % 7 else F(0)
              for j in range(7)] for i in range(7)]
    partial = adapted_phi() - KForm.monomial(7, (1, 2, 7))
    sheared = pullback(shear, partial)
    assert is_positive(7, squeezed) and not is_positive(7, sheared)
    for phi in (adapted_phi(), -1 * adapted_phi(), squeezed, sheared):
        assert is_positive(7, phi.to_float()) == is_positive(7, phi)
    # the pivot tolerance itself: a positive-definite b with a smaller pivot
    # is refused, one just above it is accepted
    assert positive_det_np(np.diag([1.0] * 6 + [0.1 * CHOLESKY_PIVOT_TOL])) is None
    det = positive_det_np(np.diag([1.0] * 6 + [10 * CHOLESKY_PIVOT_TOL]))
    assert det == pytest.approx(10 * CHOLESKY_PIVOT_TOL)


# -- the 14-dimensional projection ---------------------------------------------

def test_project_14_fixes_torsion_form(g110_structure):
    tau = torsion_form(g110_structure).tau
    assert project_14(g110_structure, tau) == tau


def test_project_14_kills_contractions(abelian7_entry):
    struct = G2Structure(abelian7_entry.algebra, adapted_phi())
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = tuple(F(int(c)) for c in rng.integers(-3, 4, size=7))
        alpha = interior(x, struct.phi)
        assert project_14(struct, alpha).is_zero()
    assert project_14(struct, KForm.zero(7, 2)).is_zero()


def test_project_14_idempotent_and_orthogonal(g110_structure):
    from g2lab.exterior import inner

    rng = np.random.default_rng(23)
    struct = g110_structure
    for _ in range(20):
        alpha = KForm(7, 2, [F(int(c)) for c in rng.integers(-4, 5, size=21)])
        pa = project_14(struct, alpha)
        assert project_14(struct, pa) == pa
        cross = inner(struct.metric, pa, alpha - pa)
        norm = inner(struct.metric, alpha, alpha)
        assert abs(float(cross)) <= 1e-10 * max(1.0, float(norm))


# -- torsion -----------------------------------------------------------------------

def test_abelian_torsion_vanishes(abelian7_entry):
    struct = G2Structure(abelian7_entry.algebra, adapted_phi())
    tor = torsion_form(struct)
    assert tor.tau.is_zero() and tor.tau_norm_sq == 0


def test_g110_torsion_exact(g110_structure):
    tor = torsion_form(g110_structure)
    assert tor.tau == KForm.from_terms(7, 2, {(1, 2): -1, (3, 4): 3, (5, 6): -2})
    assert tor.tau_norm_sq == 14


def test_g110_torsion_float_matches_exact():
    for entry in catalog.closed_entry_instances():
        exact = torsion_form(G2Structure(entry.algebra, entry.phi)).tau
        approx = torsion_form(G2Structure(entry.algebra, entry.phi.to_float())).tau
        assert float((exact.to_float() - approx).max_abs()) < 1e-9, entry.params


def test_torsion_in_lambda14():
    from g2lab.exterior import hodge

    for entry in catalog.closed_entry_instances():
        struct = G2Structure(entry.algebra, entry.phi)
        tau = torsion_form(struct).tau
        # defining property of the 14-dimensional component
        assert wedge(tau, struct.phi) == -1 * hodge(struct.metric, tau), entry.params


def test_torsion_guard_rejects_inconsistent_tau(g110_structure, monkeypatch):
    import g2lab.g2 as g2_mod

    # a star that flips sign on 2-forms turns tau into -tau, which breaks
    # tau wedge phi = d*phi; the guard must refuse it
    structs = [g110_structure,
               G2Structure(g110_structure.algebra, g110_structure.phi.to_float())]
    real_star = G2Structure.star

    def flipped(self, form):
        out = real_star(self, form)
        return -out if form.k == 5 else out

    monkeypatch.setattr(G2Structure, "star", flipped)
    for struct in structs:
        with pytest.raises(g2_mod.InconsistentTorsionError):
            torsion_form(struct)


def test_torsion_requires_closedness():
    from g2lab.g2 import NotClosedError

    # a positive but non-closed form: perturb the catalog one
    entry = catalog.get("g_a", a=F(1, 2))
    phi = (entry.phi + F(1, 10) * KForm.monomial(7, (1, 2, 3))).to_float()
    struct = G2Structure(entry.algebra, phi)
    with pytest.raises(NotClosedError):
        torsion_form(struct)


def test_lauret_derivative_matches_torsion(g_half):
    struct = G2Structure(g_half.algebra, g_half.phi)
    dtau = torsion_form(struct).dtau
    expected = KForm.from_terms(
        7, 3, {(1, 2, 7): -1, (5, 6, 7): 3,
               (1, 3, 5): 3, (1, 4, 6): -3, (2, 3, 6): -3, (2, 4, 5): -3})
    assert dtau == expected


# -- j map and curvature -------------------------------------------------------------

def test_j_of_phi_is_six_g(abelian7_entry):
    struct = G2Structure(abelian7_entry.algebra, adapted_phi())
    j = j_map(struct, struct.phi)
    for i in range(7):
        for k in range(7):
            assert j[i][k] == 6 * struct.metric.g[i][k]


def test_j_of_zero(abelian7_entry):
    struct = G2Structure(abelian7_entry.algebra, adapted_phi())
    assert all(x == 0 for row in j_map(struct, KForm.zero(7, 3)) for x in row)


def test_abelian_curvature_flat(abelian7_entry):
    struct = G2Structure(abelian7_entry.algebra, adapted_phi())
    cur = curvature(struct)
    assert cur.scal == 0
    assert all(x == 0 for row in cur.ric for x in row)


def test_g110_scalar_curvature(g110_structure):
    cur = curvature(g110_structure)
    assert cur.scal == F(-7)


def test_erp_residuals():
    assert erp_residual(G2Structure(abelian(7), adapted_phi())) == 0
    g1 = catalog.get("g_a", a=1)
    assert erp_residual(G2Structure(g1.algebra, g1.phi)) < 1e-8
    gh = catalog.get("g_a", a=F(1, 2))
    assert erp_residual(G2Structure(gh.algebra, gh.phi)) > 0.1


def test_erp_diagnostics_on_steady_entry(g_one):
    struct = G2Structure(g_one.algebra, g_one.phi)
    diag = erp_diagnostics(struct)
    assert diag.passed
    assert diag.annihilator_dim == 3
    lam = -diag.tau_norm_sq / 6.0
    cur = curvature(struct)
    assert all(abs(e - lam) < 1e-7 for e in cur.ric_eigenvalues[:3])
    assert all(abs(e) < 1e-7 for e in cur.ric_eigenvalues[3:])


def test_erp_diagnostics_rejects_non_erp(abelian7_entry, g110_structure):
    with pytest.raises(NotERPError):
        erp_diagnostics(G2Structure(abelian7_entry.algebra, adapted_phi()))
    with pytest.raises(NotERPError):
        erp_diagnostics(g110_structure)


def test_erp_ricci_two_path(g_one):
    # torsion-based Ricci vs (1/12) j(*(tau ^ tau)) on the pinched entry
    struct = G2Structure(g_one.algebra, g_one.phi)
    tor = torsion_form(struct)
    cur = curvature(struct)
    alt = j_map(struct, struct.star(wedge(tor.tau, tor.tau)))
    for i in range(7):
        for k in range(7):
            assert abs(float(cur.ric[i][k]) - float(alt[i][k]) / 12) < 1e-9


def test_hodge_laplacian_values(abelian7_entry, g110_structure):
    assert hodge_laplacian_closed(
        G2Structure(abelian7_entry.algebra, adapted_phi())).is_zero()
    lap = hodge_laplacian_closed(g110_structure)
    expected = KForm.from_terms(
        7, 3, {(1, 2, 7): -1, (3, 4, 7): 3,
               (1, 3, 5): 3, (1, 4, 6): -3, (2, 3, 6): -3, (2, 4, 5): -3})
    assert lap == expected


# -- parallel-case equivalences -------------------------------------------------------

def test_torsion_zero_iff_coclosed_iff_scalar_flat(abelian7_entry, g110_structure):
    flat = G2Structure(abelian7_entry.algebra, adapted_phi())
    dstar_flat = ce_differential(flat.algebra, flat.star(flat.phi))
    assert dstar_flat.is_zero()
    assert torsion_form(flat).tau.is_zero()
    assert curvature(flat).scal == 0

    curved = g110_structure
    dstar = ce_differential(curved.algebra, curved.star(curved.phi))
    assert not dstar.is_zero()
    assert not torsion_form(curved).tau.is_zero()
    assert float(curvature(curved).scal) < -1e-9


# -- curvature inequality across the catalog ------------------------------------------

def ric_norm_sq(struct, cur) -> float:
    ginv = np.array([[float(x) for x in row] for row in struct.metric.g_inv()])
    ric = np.array([[float(x) for x in row] for row in cur.ric])
    a = ginv @ ric
    return float(np.trace(a @ a))


def test_ricci_matches_levi_civita_oracle():
    from oracles import levi_civita_ricci

    # every instance whose Ricci tensor acceptance criterion 9 relies on
    for entry in catalog.closed_entry_instances():
        struct = G2Structure(entry.algebra, entry.phi)
        cur = curvature(struct)
        oracle = levi_civita_ricci(entry.algebra, struct.metric.g)
        lib = np.array([[float(x) for x in row] for row in cur.ric])
        assert np.max(np.abs(lib - oracle)) < 1e-9


def test_pinching_equality_iff_erp():
    # the extremal ratio Scal^2 = 3 |Ric|^2 characterises the pinched entries
    for entry in catalog.closed_entry_instances():
        struct = G2Structure(entry.algebra, entry.phi)
        cur = curvature(struct)
        scal_sq = float(cur.scal) ** 2
        bound = 3.0 * ric_norm_sq(struct, cur)
        is_equality = abs(scal_sq - bound) <= 1e-8
        is_erp = erp_residual(struct) < 1e-8
        assert is_equality == is_erp, (entry.id, entry.params)


def test_dimension_bound_on_pinching():
    # Cauchy-Schwarz in dimension 7: Scal^2 <= 7 |Ric|^2, always
    for entry in catalog.closed_entry_instances():
        struct = G2Structure(entry.algebra, entry.phi)
        cur = curvature(struct)
        assert float(cur.scal) ** 2 <= 7.0 * ric_norm_sq(struct, cur) + 1e-8


def test_pinching_bound_on_unimodular_closed_forms():
    # the compact-quotient bound Scal^2 <= 3 |Ric|^2 on unimodular entries,
    # with search-derived forms where no closed form is attached
    cases = [(catalog.get("abelian7"), None),
             (catalog.get("ffkm_n"), 7),
             (catalog.get("nonsolv_2", mu=F(1, 2)), 3),
             (catalog.get("nonsolv_levi"), 3)]
    for entry, seed in cases:
        phi = catalog.search_derived_phi(entry, seed=seed) \
            if entry.phi is None else entry.phi
        assert phi is not None, entry.id
        struct = G2Structure(entry.algebra, phi)
        cur = curvature(struct)
        assert float(cur.scal) ** 2 <= 3.0 * ric_norm_sq(struct, cur) + 1e-8, entry.id


def test_scal_trace_consistency_all_entries():
    # curvature() raises internally if the g-trace of Ric drifts from -|tau|^2/2
    for entry in catalog.closed_entry_instances():
        struct = G2Structure(entry.algebra, entry.phi)
        cur = curvature(struct)
        ginv = struct.metric.g_inv()
        trace = sum(ginv[i][k] * cur.ric[i][k] for i in range(7) for k in range(7))
        assert abs(float(trace - cur.scal)) <= 1e-8 * max(1.0, abs(float(cur.scal)))


# -- randomized search -------------------------------------------------------------------

def test_search_on_abelian_succeeds(abelian7_entry):
    phi = search_closed_positive(abelian7_entry.algebra, attempts=10000, seed=0)
    assert phi is not None
    assert is_positive(7, phi)


def test_search_with_initial_candidate(g110_entry):
    phi = search_closed_positive(g110_entry.algebra, attempts=0, seed=0,
                                 initial=g110_entry.phi)
    assert phi == g110_entry.phi


def test_search_zero_attempts_without_candidate(n2_entry, abelian7_entry):
    assert search_closed_positive(abelian7_entry.algebra, attempts=0, seed=0) is None


def test_search_deterministic_under_seed():
    alg = catalog.get("ffkm_n").algebra
    first = search_closed_positive(alg, attempts=10000, seed=7)
    second = search_closed_positive(alg, attempts=10000, seed=7)
    assert first == second
    residual = float(ce_differential(alg, first).max_abs())
    assert residual < 1e-10 * max(1.0, float(first.max_abs()))
