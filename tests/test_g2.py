"""G2-structures: induced metric, torsion, curvature, pinching, search."""

from fractions import Fraction as F
from itertools import permutations

import numpy as np
import pytest

from g2lab import catalog, g2, linalg
from g2lab.exterior import KForm, basis_indices, interior, wedge
from g2lab.g2 import (
    CHOLESKY_PIVOT_TOL,
    SEARCH_BLOCK,
    G2Structure,
    NotERPError,
    NotPositiveError,
    _search_cubics,
    adapted_phi,
    closed_3form_basis,
    curvature,
    erp_diagnostics,
    erp_residual,
    hodge_laplacian_closed,
    induced_bilinear,
    induced_bilinear_np,
    is_positive,
    j_map,
    metric_from_phi,
    positive_det_np,
    project_14,
    search_closed_positive,
    torsion_form,
)
from g2lab.liealg import abelian, ce_differential
from g2lab.scalars import FLOAT, RATIONAL, BackendMismatch

from oracles import interior_oracle, perm_sign, wedge_oracle

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
    # and float rounding leaves det b slightly positive, which the Cholesky
    # factorisation still rejects
    shear = [[F(1) if j == i else F(1, 3) if j == (i + 1) % 7 else F(0)
              for j in range(7)] for i in range(7)]
    partial = adapted_phi() - KForm.monomial(7, (1, 2, 7))
    sheared = pullback(shear, partial)
    assert is_positive(7, squeezed) and not is_positive(7, sheared)
    for phi in (adapted_phi(), -1 * adapted_phi(), squeezed, sheared):
        assert is_positive(7, phi.to_float()) == is_positive(7, phi)
    # det b as the product of the Cholesky pivots, against the exact det b
    closed = [entry.phi for entry in catalog.closed_entry_instances()]
    for phi in [adapted_phi(), squeezed] + closed:
        exact = float(linalg.positive_det(induced_bilinear(phi)))
        det = positive_det_np(induced_bilinear_np(phi.to_float().np_coeffs))
        assert abs(det - exact) <= 1e-13 * exact
    # the pivot tolerance itself: a positive-definite b with a smaller pivot
    # is refused, one just above it is accepted
    assert positive_det_np(np.diag([1.0] * 6 + [0.1 * CHOLESKY_PIVOT_TOL])) is None
    assert positive_det_np(np.diag([1.0] * 6 + [np.nan])) is None  # a NaN pivot
    det = positive_det_np(np.diag([1.0] * 6 + [10 * CHOLESKY_PIVOT_TOL]))
    assert det == pytest.approx(10 * CHOLESKY_PIVOT_TOL)


def test_float_positivity_does_not_depend_on_scale(g_one):
    # b scales like s^3, so an absolute pivot floor would refuse small s phi
    phi = g_one.phi.to_float()
    for s in 10.0 ** np.arange(-6, 4):
        struct = G2Structure(g_one.algebra, s * phi)
        assert is_positive(7, -s * phi) is False
        assert struct.metric.vol_coeff == pytest.approx(s ** (7 / 3) * G2Structure(
            g_one.algebra, phi).metric.vol_coeff, rel=1e-12)


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


def test_erp_diagnostics_agree_between_backends(g_one):
    exact = erp_diagnostics(G2Structure(g_one.algebra, g_one.phi))
    approx = erp_diagnostics(G2Structure(g_one.algebra, g_one.phi.to_float()))
    assert approx.passed and approx.annihilator_dim == exact.annihilator_dim == 3
    flags = ("tau_cubed_zero", "tau_tau_closed", "star_tau_tau_closed",
             "tau_tau_simple", "ric_matches_j_formula", "ric_eigenvalue_pattern")
    assert [getattr(approx, f) for f in flags] == [getattr(exact, f) for f in flags]


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


def test_closedness_is_relative_to_the_form():
    # a closed float form stays closed when scaled up: d phi grows with phi
    # (2.3e-10 at 10^6 here), so the rule is relative to max |phi|
    entry = catalog.get("nonsolv_3", mu=F(1))
    phi = catalog.search_derived_phi(entry)
    for p in range(8):
        scaled = float(10 ** p) * phi
        assert G2Structure(entry.algebra, scaled).is_closed(), p
        assert search_closed_positive(entry.algebra, attempts=0,
                                      initial=scaled) is scaled, p


def test_search_zero_attempts_without_candidate(n2_entry, abelian7_entry):
    assert search_closed_positive(abelian7_entry.algebra, attempts=0, seed=0) is None


def test_search_deterministic_under_seed():
    alg = catalog.get("ffkm_n").algebra
    first = search_closed_positive(alg, attempts=10000, seed=7)
    second = search_closed_positive(alg, attempts=10000, seed=7)
    assert first == second
    residual = float(ce_differential(alg, first).max_abs())
    assert residual < 1e-10 * max(1.0, float(first.max_abs()))


def test_closed_3form_basis_is_the_kernel_of_the_dense_d():
    # the basis comes from the sparse columns of d; the dense copy gives the same
    import sympy
    for entry_id in catalog.entry_ids():
        spec = catalog.describe(entry_id)
        alg = catalog.get(entry_id, **({"variant": "B"} if spec.ambiguous else {})).algebra
        got = [f.coeffs for f in closed_3form_basis(alg)]
        assert got == [tuple(v) for v in linalg.nullspace(alg.d_matrix(3))], entry_id
        dim = len(basis_indices(alg.n, 3))
        assert len(got) == dim - sympy.Matrix(alg.d_matrix(3)).rank(), entry_id


def _serial_search(alg, attempts, seed):
    """The draw-by-draw search loop: (index, coefficients) of the first hit, or (None, None)."""
    kernel = closed_3form_basis(alg)
    rng = np.random.default_rng(seed)
    kernel_np = np.array([f.np_coeffs for f in kernel])
    for i in range(attempts):
        y = kernel_np.T @ rng.standard_normal(len(kernel))
        if positive_det_np(induced_bilinear_np(y)) is not None:
            return i, y
    return None, None


@pytest.mark.parametrize("entry_id, params, seeds", [
    ("ffkm_n", {}, range(4)), ("nonsolv_levi", {}, range(4)),
    ("nonsolv_2", {"mu": F(1, 3)}, range(4)),
    ("nonsolv_1", {"variant": "B"}, range(4)), ("nonsolv_3", {"mu": F(1, 8)}, range(4)),
    ("abelian7", {}, range(4)),
    # seeds 74 and 324 hit at draws 0 and SEARCH_BLOCK, the first of a block
    ("g_a", {"a": 1}, (0, 1, 2, 3, 74, 324)),
])
def test_block_search_matches_serial_loop(entry_id, params, seeds):
    alg = catalog.get(entry_id, **params).algebra
    for seed in seeds:
        hit, y = _serial_search(alg, 3000, seed)
        extra = () if hit is None else (hit, hit + 1)
        for attempts in (0, 1, SEARCH_BLOCK - 1, SEARCH_BLOCK, SEARCH_BLOCK + 1, 3000) + extra:
            phi = search_closed_positive(alg, attempts=attempts, seed=seed)
            if hit is None or hit >= attempts:
                assert phi is None, (seed, attempts)
            else:
                assert phi.backend == FLOAT
                assert phi.np_coeffs.tobytes() == y.tobytes(), (seed, attempts)


@pytest.mark.parametrize("entry_id, params, hits", [
    # blocks double from SEARCH_BLOCK to 8 * SEARCH_BLOCK: draws 0-255, 256-767, 768-1791,
    # 1792-3839, 3840-5887, ...
    ("ffkm_n", {}, {302: 764, 14: 774, 118: 1791, 386: 1808}),
    ("nonsolv_3", {"mu": F(1, 8)}, {0: None, 1: None}),
])
def test_grown_blocks_match_serial_loop(entry_id, params, hits):
    assert SEARCH_BLOCK == 256
    alg = catalog.get(entry_id, **params).algebra
    for seed, expected in hits.items():
        hit, y = _serial_search(alg, 3841, seed)
        assert hit == expected, seed
        for attempts in (767, 768, 769, 1791, 1792, 1793, 3839, 3840, 3841):
            phi = search_closed_positive(alg, attempts=attempts, seed=seed)
            if hit is None or hit >= attempts:
                assert phi is None, (seed, attempts)
            else:
                assert phi.np_coeffs.tobytes() == y.tobytes(), (seed, attempts)


def test_search_builds_the_cubics_once_per_algebra(monkeypatch):
    calls = []
    basis = g2.closed_3form_basis
    monkeypatch.setattr(g2, "closed_3form_basis", lambda alg: calls.append(alg) or basis(alg))
    alg, other = abelian(7), abelian(7)
    found = [search_closed_positive(a, attempts=10000, seed=0) for a in (alg, alg, other, alg)]
    assert calls == [alg, other]
    assert len({phi.np_coeffs.tobytes() for phi in found}) == 1


@pytest.mark.parametrize("entry_id, params, zeros", [
    ("nonsolv_2", {"mu": F(0)}, [5]), ("nonsolv_1", {"variant": "B"}, [4, 5, 6]),
    ("nonsolv_2", {"mu": F(1, 4)}, []), ("nonsolv_3", {"mu": F(1, 8)}, []),
    ("ffkm_n", {}, []), ("nonsolv_levi", {}, []), ("abelian7", {}, []),
])
def test_zero_diagonal_cubics(entry_id, params, zeros):
    alg = catalog.get(entry_id, **params).algebra
    _, cubics, _ = _search_cubics(alg)
    assert [i for i, p in enumerate(cubics) if not p] == zeros
    # the zero entries by the exact b at a positive rational point of ker d
    _, phi = _kernel_point(closed_3form_basis(alg), np.random.default_rng(10), lo=1)
    b = induced_bilinear(phi)
    assert [i for i in range(7) if b[i][i] == 0] == zeros


def test_zero_cubic_certificate_settles_the_search_without_drawing(monkeypatch, caplog):
    import logging

    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("g2lab").handlers)
    algs = [catalog.get("nonsolv_2", mu=F(0)).algebra,
            catalog.get("nonsolv_1", variant="B").algebra]

    def no_draws(*args):
        raise AssertionError("a certified search drew")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(g2, "induced_bilinear_np", no_draws)
    with caplog.at_level(logging.DEBUG, logger="g2lab"):
        for alg in algs:
            assert search_closed_positive(alg, attempts=30000, seed=3) is None
    messages = [r.getMessage() for r in caplog.records if r.name == "g2lab.g2"]
    assert len(messages) == 2
    assert "[5]" in messages[0] and "[4, 5, 6]" in messages[1]


def test_nonsolv_2_at_mu_zero_splits_off_a_central_line():
    # g = h + R e_6 with h unimodular and non-solvable: a closed phi = omega ^ e^6 + psi
    # would make omega symplectic on h, which Chu's theorem forbids (Trans. AMS 1974),
    # as the zero cubic b_66 says
    alg = catalog.get("nonsolv_2", mu=F(0)).algebra
    assert not any(alg.d1[5].coeffs)  # d e^6 = 0
    assert all(not any(alg.bracket_basis(5, j)) for j in range(7))  # e_6 is central
    shifted = catalog.get("nonsolv_2", mu=F(1, 4)).algebra
    assert any(any(shifted.bracket_basis(5, j)) for j in range(7))


def _phi_with_pivot(eps, axis):
    """adapted phi pulled back so that b is the identity with b[axis, axis] = eps."""
    has_axis = np.array([axis in idx for idx in basis_indices(7, 3)])
    return adapted_phi(FLOAT).np_coeffs * np.where(has_axis, eps ** (1 / 3), eps ** (-1 / 6))


def _screen(xs, alg=None):
    """The search's screen on draws xs in the kernel coordinates of alg, by default
    abelian7, whose kernel is the 35 unit 3-forms (so each x is its own y): keep a
    draw unless some p_i(x) < -1e-8 * 15 K^3 |x|_inf^3, K = max_a sum_k |kernel_ka|."""
    kernel, _, stages = _search_cubics(alg or abelian(7))
    k = np.abs(kernel).sum(axis=0).max()
    margin = 1e-8 * 15 * k ** 3 * np.abs(xs).max(axis=1) ** 3
    p = np.array([(xs[:, a] * xs[:, b] * xs[:, c]) @ coef for (a, b, c), coef in stages])
    return (p >= -margin).all(axis=0)


def test_search_tests_exactly_the_screened_draws(monkeypatch):
    # with the 35 unit 3-forms as the kernel every draw is its own coefficient vector y
    units = [KForm(7, 3, [F(int(i == j)) for j in range(35)]) for i in range(35)]
    monkeypatch.setattr(g2, "closed_3form_basis", lambda alg: units)
    tested = []
    monkeypatch.setattr(g2, "induced_bilinear_np", lambda y: tested.append(y) or -np.eye(7))
    assert search_closed_positive(abelian(7), attempts=3000, seed=5) is None
    ys = np.random.default_rng(5).standard_normal((3000, 35))
    kept = ys[_screen(ys)]
    assert 0 < len(kept) < 300
    assert np.array(tested).tobytes() == kept.tobytes()


def test_screen_keeps_every_form_the_serial_rule_accepts():
    phi0 = adapted_phi(FLOAT).np_coeffs
    split = phi0.copy()
    split[-1] = -split[-1]  # e^567 with the opposite sign: b has signature (4, 3)
    ys = [c * phi0 for c in 10.0 ** np.arange(-3, 4)] + [-phi0, split]
    ys += [_phi_with_pivot(f * CHOLESKY_PIVOT_TOL, axis) for f in (10, 0.1) for axis in (0, 6)]
    ys += list(np.random.default_rng(3).standard_normal((2000, 35)))
    ys = np.array(ys)
    accepted = np.array([positive_det_np(induced_bilinear_np(y)) is not None for y in ys])
    kept = _screen(ys)
    assert accepted[:7].all() and accepted[9:11].all()
    assert not accepted[11:13].any()
    assert not (accepted & ~kept).any()
    assert not kept[7] and not kept[8]  # -phi and the split form
    # every dropped form is indefinite or negative
    b = np.array([induced_bilinear_np(y) for y in ys[~kept]])
    assert (np.linalg.eigvalsh(b)[:, 0] < 0).all()


def test_screen_drops_each_single_negative_diagonal_entry():
    ys = np.random.default_rng(4).standard_normal((4000, 35))
    diag = np.array([induced_bilinear_np(y).diagonal() for y in ys])
    for i in range(7):
        only_i = (diag[:, i] < 0) & (np.delete(diag, i, axis=1) > 0).all(axis=1)
        assert only_i.sum() >= 5, i
        assert not _screen(ys[only_i]).any(), i


def _rational_form(rng):
    return KForm(7, 3, [F(int(p), int(q)) for p, q in
                        zip(rng.integers(-5, 6, 35), rng.integers(1, 5, 35))])


def _top_oracle(phi, gamma, i, j):
    """top(i_i phi ^ i_j phi ^ gamma) by the oracle's interior and wedge."""
    terms, gterms = (dict(zip(basis_indices(7, 3), f.coeffs)) for f in (phi, gamma))
    wi, wj = interior_oracle(i, terms, 3, 7), interior_oracle(j, terms, 3, 7)
    return wedge_oracle(wedge_oracle(wi, 2, wj, 2, 7), 4, gterms, 3, 7).get(tuple(range(7)), 0)


def _cubic_at(p, x):
    return sum(c * x[k1] * x[k2] * x[k3] for (k1, k2, k3), c in p.items())


def _kernel_point(basis, rng, lo=-5):
    """(x, sum_k x_k v_k) at random rational kernel coordinates x."""
    x = [F(int(p), int(q)) for p, q in zip(rng.integers(lo, 50, len(basis)),
                                            rng.integers(1, 50, len(basis)))]
    return x, KForm(7, 3, [sum(xk * v.coeffs[a] for xk, v in zip(x, basis)) for a in range(35)])


def test_pfaffian_diagonal_matches_top_pairing_oracle():
    rng = np.random.default_rng(8)
    for _ in range(3):
        phi = _rational_form(rng)
        b = induced_bilinear(phi)
        for i in range(7):
            for j in range(7):
                assert b[i][j] == F(_top_oracle(phi, phi, i, j), 6), (i, j)
    # the diagonal cubics p_i(x) = b_ii(sum_k x_k v_k) over the kernel basis v
    for entry_id, params in (("abelian7", {}), ("ffkm_n", {}), ("nonsolv_levi", {}),
                             ("nonsolv_3", {"mu": F(1, 8)}), ("nonsolv_1", {"variant": "B"})):
        alg = catalog.get(entry_id, **params).algebra
        basis = closed_3form_basis(alg)
        kernel, cubics, stages = _search_cubics(alg)
        assert kernel.tobytes() == np.array([f.np_coeffs for f in basis]).tobytes()
        for _ in range(2):
            x, phi = _kernel_point(basis, rng)
            b = induced_bilinear(phi)
            for i in range(7):
                assert _cubic_at(cubics[i], x) == b[i][i], (entry_id, i)
                assert b[i][i] == F(_top_oracle(phi, phi, i, i), 6), (entry_id, i)
        # in floats the stages are the nonzero p_i, sparsest first, within the
        # search's margin of the diagonal of induced_bilinear_np
        xs = rng.standard_normal((500, len(basis)))
        ref = np.array([induced_bilinear_np(y).diagonal() for y in xs @ kernel])
        k = np.abs(kernel).sum(axis=0).max()
        margin = 1e-8 * 15 * k ** 3 * np.abs(xs).max(axis=1) ** 3
        order = sorted((i for i in range(7) if cubics[i]), key=lambda i: len(cubics[i]))
        assert len(order) == len(stages)
        for i, ((a, b, c), coef) in zip(order, stages):
            assert list(zip(a, b, c)) == list(cubics[i]), (entry_id, i)
            assert coef.tolist() == [float(v) for v in cubics[i].values()], (entry_id, i)
            assert (np.abs((xs[:, a] * xs[:, b] * xs[:, c]) @ coef - ref[:, i]) <= margin).all()


def test_float_bilinear_matches_top_pairing_oracle():
    # b = Omega W Omega^T / 6 against (1/6) top(i_i phi ^ i_j phi ^ phi) in exact
    # rationals of the same float coefficients: random forms, and GL(7) images
    # A* phi_std with the singular values of A log-spaced from 1 to cond(A).
    # Bounds relative to max |b|; over 100 draws each the worst errors are
    # 4.5e-16 (random), 4.4e-16, 1.5e-14 and 2.2e-10 (cond 1, 1e2, 1e4)
    rng = np.random.default_rng(71)
    std = np.zeros((7, 7, 7))
    for idx, c in adapted_phi().terms().items():
        for p in permutations(range(3)):
            std[tuple(idx[k] - 1 for k in p)] = perm_sign(p) * float(c)

    def orthogonal():
        q, r = np.linalg.qr(rng.standard_normal((7, 7)))
        return q * np.sign(r.diagonal())

    cases = [(rng.standard_normal(35), 4e-15) for _ in range(3)]
    for cond, bound in ((1.0, 4e-15), (1e2, 2e-13), (1e4, 2e-9)):
        for _ in range(3):
            a = orthogonal() @ np.diag(np.logspace(0, np.log10(cond), 7)) @ orthogonal()
            t = np.einsum("abc,ai,bj,ck->ijk", std, a, a, a)  # phi(Ax, Ay, Az)
            cases.append((np.array([t[i] for i in basis_indices(7, 3)]), bound))
    for y, bound in cases:
        b = induced_bilinear_np(y)
        assert np.array_equal(b, b.T)
        terms = dict(zip(basis_indices(7, 3), map(F, y)))
        iphi = [interior_oracle(i, terms, 3, 7) for i in range(7)]
        exact = np.zeros((7, 7))
        for i, j in zip(*np.triu_indices(7)):
            top = wedge_oracle(wedge_oracle(iphi[i], 2, iphi[j], 2, 7), 4, terms, 3, 7)
            exact[i, j] = exact[j, i] = top.get(tuple(range(7)), 0) / 6
        assert np.max(np.abs(b - exact)) <= bound * np.max(np.abs(exact))


def test_j_map_matches_top_pairing_oracle():
    # A* phi0 for integer A with det A > 0 has the exact metric A^T A and volume det A
    rng = np.random.default_rng(9)
    for _ in range(2):
        a = rng.integers(-1, 2, (7, 7))
        while round(np.linalg.det(a)) <= 0:
            a = rng.integers(-1, 2, (7, 7))
        struct = G2Structure(abelian(7), pullback(a.tolist(), adapted_phi()))
        assert struct.metric.vol_coeff == round(np.linalg.det(a))
        for gamma in (struct.phi, _rational_form(rng)):
            j = j_map(struct, gamma)
            for i in range(7):
                for k in range(7):
                    top = _top_oracle(struct.phi, gamma, i, k)
                    assert j[i][k] == top / struct.metric.vol_coeff, (i, k)


def test_metric_and_j_map_take_no_wedge_or_interior(monkeypatch, g_half):
    from g2lab import exterior

    structs = [G2Structure(g_half.algebra, g_half.phi)]
    structs.append(structs[0].to_float())
    calls = []
    for module in (exterior, g2):
        for name in ("wedge", "interior"):
            f = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, f=f, name=name: calls.append(name) or f(*args))
    for struct in structs:
        induced_bilinear(struct.phi)
        j_map(struct, struct.phi)
    assert calls == []


def test_j_map_rejects_mixed_backends(g_half):
    struct = G2Structure(g_half.algebra, g_half.phi)
    with pytest.raises(BackendMismatch):
        j_map(struct, g_half.phi.to_float())
    with pytest.raises(BackendMismatch):
        j_map(struct.to_float(), g_half.phi)


def test_induced_bilinear_on_sparse_forms_matches_the_top_pairing_oracle():
    # the contraction skips the zero coefficients of phi: at every density the
    # exact b is (1/6) top(i_i phi ^ i_j phi ^ phi) in Fractions, and the float b
    # is within the random-form bound of test_float_bilinear_matches_top_pairing_oracle
    rng = np.random.default_rng(67)
    for trial in range(24):
        density = (0.0, 0.1, 0.2, 0.4, 0.7, 1.0)[trial % 6]
        y = [F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) if rng.random() < density
             else F(0) for _ in range(35)]
        phi = KForm(7, 3, y, RATIONAL)
        want = [[F(_top_oracle(phi, phi, i, j), 6) for j in range(7)] for i in range(7)]
        got = induced_bilinear(phi)
        assert got == want
        assert all(type(x) is F for row in got for x in row)
        got = induced_bilinear(phi.to_float())
        assert all(type(x) is float for row in got for x in row)
        scale = max(abs(x) for row in want for x in row)
        assert np.max(np.abs(np.array(got) - np.array(want, float))) <= 4e-15 * scale


def test_exact_cubics_take_one_common_denominator():
    # b and j(gamma) summed as integers over the lcm of the denominators: large
    # coprime denominators, numerators past 2^63, and gamma = 0 and phi = 0
    rng = np.random.default_rng(73)
    dens = (12345678901234567891, 98765432109876543211)
    a = np.eye(7, dtype=int)
    a[0, 0], a[1, 0] = 3, 1  # det 3, so j is divided by a volume coefficient 3
    struct = G2Structure(abelian(7), pullback(a.tolist(), adapted_phi()))
    assert struct.metric.vol_coeff == 3
    zero = KForm(7, 3, [F(0)] * 35)
    forms = [KForm(7, 3, [F(int(p) * 2 ** 70 + 1, dens[k % 2]) if p else F(0)
                          for k, p in enumerate(rng.integers(-3, 4, 35))]),
             KForm(7, 3, [F(1, dens[k % 3 == 0]) for k in range(35)]),
             zero]
    for phi in forms:
        b = induced_bilinear(phi)
        assert all(type(x) is F for row in b for x in row)
        for i in range(7):
            for j in range(7):
                assert b[i][j] == F(_top_oracle(phi, phi, i, j), 6), (i, j)
    for gamma in forms:
        j = j_map(struct, gamma)
        assert all(type(x) is F for row in j for x in row)
        for i in range(7):
            for k in range(7):
                top = _top_oracle(struct.phi, gamma, i, k)
                assert j[i][k] == top / struct.metric.vol_coeff, (i, k)
    # phi = 0 against a gamma with large coprime denominators
    rows = g2._sandwich(zero.coeffs, forms[1].coeffs, F(1, dens[0]), RATIONAL)
    assert rows == [[0] * 7] * 7 and all(type(x) is F for row in rows for x in row)


def test_diagonal_terms_keep_the_search_stage_order():
    # the search's cubics and stage order come from these terms in this order:
    # (i, a, b, c) lexicographic, 15 per i, as the parent's 105 Pfaffian terms
    import hashlib

    terms = g2._diagonal_terms()
    assert len(terms) == 105
    assert [sum(t[0] == i for t in terms) for i in range(7)] == [15] * 7
    assert all(a <= b <= c and k in (1, -1) and type(k) is F for _, a, b, c, k in terms)
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == \
        "909d0430129880c7f64da7e4fd1413878e417d54edb65a6ef46f8a1777387855"
