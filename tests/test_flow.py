"""Laplacian flow, closed-form solutions, solitons, self-similarity."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from g2lab import catalog
from g2lab.exterior import Endo, KForm
from g2lab.flow import (
    AmbiguousResidualError,
    SolitonSolution,
    algebraic_soliton_solve,
    ansatz_coefficients,
    ansatz_phi,
    gabk_max_time,
    gabk_phi,
    gabk_solution,
    laplacian_flow,
    lauret_exponents,
    lauret_solution,
    self_similar_check,
)
from g2lab.g2 import G2Structure, adapted_phi, torsion_form
from g2lab.liealg import abelian


@pytest.fixture(scope="module")
def g_half_struct(g_half):
    return G2Structure(g_half.algebra, g_half.phi)


@pytest.fixture(scope="module")
def g_half_traj(g_half_struct):
    return laplacian_flow(g_half_struct, 0.3, dt0=1e-3, tol=1e-9)


@pytest.fixture(scope="module")
def g110_traj(g110_structure):
    return laplacian_flow(g110_structure, 0.3, dt0=1e-3, tol=1e-9)


# -- closed-form references -----------------------------------------------------

def test_lauret_exponents_at_one_half():
    data = lauret_exponents(F(1, 2))
    assert data.lam == -4.0
    assert data.q1 == 0.375
    assert data.q2 == 0.0
    assert data.q3 == -1.125
    assert data.t_max == 0.375 and data.t_min == -math.inf


def test_lauret_exponents_expanding():
    data = lauret_exponents(2)
    assert data.lam == 20.0
    assert data.t_min == -0.075 and data.t_max == math.inf


def test_lauret_solution_at_zero_is_adapted():
    assert float((lauret_solution(F(1, 2), 0.0)
                  - adapted_phi().to_float()).max_abs()) < 1e-15


def test_lauret_solution_domain_errors():
    with pytest.raises(ValueError):
        lauret_solution(F(1, 2), 0.5)  # beyond 3/8
    with pytest.raises(ValueError):
        lauret_solution(1, 0.1)  # steady case excluded
    with pytest.raises(ValueError):
        lauret_solution(F(1, 8), 0.0)  # below the parameter bound
    with pytest.raises(ValueError):
        lauret_solution(2, -0.1)  # before the expanding interval opens


def test_gabk_solution_values():
    assert gabk_solution(1, 0.0) == (1.0, 1.0, 1.0)
    c1, c2, c3 = gabk_solution(1, 0.3)
    assert abs(c2 - 0.2 ** (-9.0 / 8.0)) < 1e-14
    assert abs(c1 - c2 ** (-1.0 / 3.0)) < 1e-14 and c3 == 1.0
    assert gabk_max_time(2) == 3.0 / 32.0
    with pytest.raises(ValueError):
        gabk_solution(1, 0.5)


# -- the ansatz ---------------------------------------------------------------------

def test_ansatz_of_adapted_phi():
    data = ansatz_coefficients(adapted_phi())
    assert data.c == (1, 1, 1, 1, 1, 1, 1)
    assert data.closed_reduction


def test_ansatz_off_support_returns_none():
    phi = adapted_phi() + KForm.monomial(7, (1, 2, 3))
    assert ansatz_coefficients(phi) is None


def test_ansatz_roundtrip():
    coeffs = (2.0, 0.5, 1.0, 0.5, 0.5, 0.5, 0.5)
    data = ansatz_coefficients(ansatz_phi(coeffs))
    assert data.c == coeffs
    assert data.closed_reduction
    other = ansatz_coefficients(ansatz_phi((2.0, 0.5, 1.0, 0.7, 0.5, 0.5, 0.5)))
    assert not other.closed_reduction


# -- the flow seen as a family of coupled SU(3) pairs ------------------------------------

def split_ansatz(phi, f):
    """omega(t) and psi(t) with phi = omega wedge f e^7 + psi."""
    omega = KForm.from_terms(6, 2, {
        (1, 2): phi.coeff((1, 2, 7)) / f,
        (3, 4): phi.coeff((3, 4, 7)) / f,
        (5, 6): phi.coeff((5, 6, 7)) / f}, "float")
    psi = KForm.from_terms(6, 3, {
        (1, 3, 5): phi.coeff((1, 3, 5)), (1, 4, 6): phi.coeff((1, 4, 6)),
        (2, 3, 6): phi.coeff((2, 3, 6)), (2, 4, 5): phi.coeff((2, 4, 5))},
        "float")
    return omega, psi


def test_lauret_solution_restricts_to_coupled_pairs():
    # with f(t) = A^(1/2) the solution splits into coupled pairs with
    # c(t) = -A^(-1/2), and d(w2) stays proportional to psi
    from g2lab.su3 import check_dw2_prop_psi, reconstruct_su3, su3_torsion_class, w2_of

    n2 = catalog.get("n2").algebra
    for a, t in ((F(1, 4), 0.1), (F(1, 2), 0.2), (F(2), 0.5)):
        data = lauret_exponents(a)
        big_a = 1.0 + (2.0 / 3.0) * data.lam * t
        omega, psi = split_ansatz(lauret_solution(a, t), math.sqrt(big_a))
        struct = reconstruct_su3(n2, omega, psi)
        tc = su3_torsion_class(struct)
        assert tc.kind == "coupled"
        assert abs(tc.c + big_a ** -0.5) < 1e-12
        prop = check_dw2_prop_psi(struct, w2_of(struct, tc.c).w2)
        assert prop.proportional


def test_gabk_solution_restricts_to_coupled_pairs():
    # same splitting on the solvable family: c(t) = b (1 - (8/3) b^2 t)^(-1/2)
    from g2lab.su3 import reconstruct_su3, su3_torsion_class

    for b, t in ((F(1), 0.2), (F(2), 0.05)):
        decay = (1.0 - (8.0 / 3.0) * float(b) ** 2 * t) ** 0.5
        omega, psi = split_ansatz(gabk_phi(b, t), decay)
        sab = catalog.get("s_ab", a=1, b=b).algebra
        struct = reconstruct_su3(sab, omega, psi)
        tc = su3_torsion_class(struct)
        assert tc.kind == "coupled"
        assert abs(tc.c - float(b) / decay) < 1e-12


def test_gabk_torsion_formula_along_the_flow():
    # tau(t) = -b (C1 C2^2/C3^2)^(1/3) e^12 + 3b (C2^5/(C1^2 C3^2))^(1/3) e^34
    #          - 2b (C2^2 C3/C1^2)^(1/3) e^56
    for b, t in ((F(1), 0.2), (F(2), 0.05)):
        c1, c2, c3 = gabk_solution(b, t)
        alg = catalog.get("g_abk", a=1, b=b, k=0).algebra
        tau = torsion_form(G2Structure(alg, gabk_phi(b, t))).tau
        bb = float(b)
        expected = {
            (1, 2): -bb * (c1 * c2 ** 2 / c3 ** 2) ** (1.0 / 3.0),
            (3, 4): 3 * bb * (c2 ** 5 / (c1 ** 2 * c3 ** 2)) ** (1.0 / 3.0),
            (5, 6): -2 * bb * (c2 ** 2 * c3 / c1 ** 2) ** (1.0 / 3.0),
        }
        for idx, val in expected.items():
            assert abs(tau.coeff(idx) - val) < 1e-12 * max(1.0, abs(val))
        off = sum(abs(c) for idx, c in tau.terms().items()
                  if idx not in expected)
        assert off < 1e-12


# -- integration ------------------------------------------------------------------------

def test_abelian_flow_constant(abelian7_entry):
    struct = G2Structure(abelian7_entry.algebra, adapted_phi())
    traj = laplacian_flow(struct, 1.0, dt0=1e-2, tol=1e-9)
    assert traj.status == "completed"
    ref = adapted_phi().to_float()
    for s in traj.samples:
        assert float((s.phi - ref).max_abs()) < 1e-12
        assert s.tau_norm_sq < 1e-18


def test_flow_matches_lauret_closed_form(g_half_traj):
    assert g_half_traj.status == "completed"
    worst = 0.0
    for s in g_half_traj.samples:
        ref = lauret_solution(F(1, 2), s.t)
        worst = max(worst, float((s.phi - ref).max_abs()))
    assert worst < 1e-6


def test_flow_matches_lauret_expanding_branch():
    # the a = 2 entry expands (lambda = 20); integrate on the forward branch
    entry = catalog.get("g_a", a=2)
    struct = G2Structure(entry.algebra, entry.phi)
    traj = laplacian_flow(struct, 0.1, dt0=1e-3, tol=1e-9)
    assert traj.status == "completed"
    worst = max(float((s.phi - lauret_solution(2, s.t)).max_abs())
                for s in traj.samples)
    assert worst < 1e-6


def test_flow_matches_gabk_closed_form(g110_traj):
    assert g110_traj.status == "completed"
    worst = 0.0
    for s in g110_traj.samples:
        data = ansatz_coefficients(s.phi)
        assert data is not None and data.closed_reduction
        c1, c2, c3 = gabk_solution(1, s.t)
        ref = (c1, c2, c3, c2, c2, c2, c2)
        worst = max(worst, max(abs(float(x) - r) for x, r in zip(data.c, ref)))
    assert worst < 1e-6
    assert float((gabk_phi(1, 0.3) - g110_traj.samples[-1].phi).max_abs()) < 1e-6


def test_flow_samples_closed_and_increasing(g_half_traj):
    from g2lab.liealg import ce_differential

    times = g_half_traj.times
    assert all(b > a for a, b in zip(times, times[1:]))
    for s in g_half_traj.samples[:: max(1, len(g_half_traj.samples) // 10)]:
        resid = ce_differential(g_half_traj.algebra, s.phi).max_abs()
        assert float(resid) < 1e-8


def test_flow_scal_negative_and_tau_continuous(g110_traj):
    prev = None
    for s in g110_traj.samples:
        assert s.scal < 0
        if prev is not None:
            assert abs(s.tau_norm_sq - prev) < 10.0 * max(1.0, prev)
        prev = s.tau_norm_sq


def test_flow_blowup_growth_toward_max_time(g_half_struct):
    t_target = 0.9 * 0.375
    traj = laplacian_flow(g_half_struct, t_target, dt0=1e-3, tol=1e-8)
    assert traj.samples[-1].tau_norm_sq > traj.samples[0].tau_norm_sq
    grid = [s.tau_norm_sq for s in traj.samples]
    assert all(b >= a - 1e-9 for a, b in zip(grid, grid[1:]))


def test_flow_reports_blowup_approach(g_half_struct, monkeypatch):
    # lower the torsion guard so the singular approach is cheap to reach
    import g2lab.flow as flow_mod

    monkeypatch.setattr(flow_mod, "BLOWUP_TAU_SQ", 2000.0)
    traj = laplacian_flow(g_half_struct, 0.377, dt0=1e-3, tol=1e-6)
    assert traj.status == "blowup-approach"
    assert traj.samples[-1].t < 0.377
    assert traj.samples[-1].tau_norm_sq > 100.0 * traj.samples[0].tau_norm_sq


def test_kernel_torsion_matches_exact():
    from g2lab.flow import FlowKernel

    for entry in catalog.closed_entry_instances():
        exact = torsion_form(G2Structure(entry.algebra, entry.phi))
        tau, tau_nsq, _ = FlowKernel(entry.algebra).torsion(entry.phi.to_float().np_coeffs)
        assert np.max(np.abs(tau - exact.tau.to_float().np_coeffs)) < 1e-12, entry.params
        assert abs(tau_nsq - float(exact.tau_norm_sq)) < 1e-12 * max(1.0, tau_nsq)


def test_flow_evaluates_torsion_at_most_11_times_per_step(g_half_struct, monkeypatch):
    # the full step and the first half step share k1, taken from the torsion
    # the accepted state's sample already computed
    from g2lab.flow import FlowKernel

    calls = []
    torsion = FlowKernel.torsion

    def counted(self, y):
        calls.append(1)
        return torsion(self, y)

    monkeypatch.setattr(FlowKernel, "torsion", counted)
    traj = laplacian_flow(g_half_struct, 0.05, dt0=1e-3, tol=1e-9)
    accepted = len(traj.samples) - 1
    assert traj.status == "completed" and accepted > 5
    assert len(calls) <= 11 * accepted + 1


def test_flow_requires_closed_start(g110_entry):
    from g2lab.g2 import NotClosedError

    phi = (g110_entry.phi + F(1, 10) * KForm.monomial(7, (1, 2, 3))).to_float()
    struct = G2Structure(g110_entry.algebra, phi)
    with pytest.raises(NotClosedError):
        laplacian_flow(struct, 0.1)


# -- solitons ----------------------------------------------------------------------------

def test_soliton_constants_on_lauret_family():
    for a in (F(1, 4), F(1, 2), F(1), F(2)):
        entry = catalog.get("g_a", a=a)
        sol = algebraic_soliton_solve(G2Structure(entry.algebra, entry.phi))
        assert sol.feasible
        assert sol.lam == 8 * a * a - 4 * a - 4
        expected = {True: "shrinking", False: "expanding"}
        if sol.lam == 0:
            assert sol.character == "steady"
        else:
            assert sol.character == expected[sol.lam < 0]


def test_soliton_derivation_is_exact_member(g_half):
    from g2lab.liealg import derivation_space

    sol = algebraic_soliton_solve(G2Structure(g_half.algebra, g_half.phi))
    assert derivation_space(g_half.algebra).contains(sol.derivation)
    assert sol.derivation.trace() == 14


def test_soliton_residual_identity(g_half):
    from g2lab.exterior import endo_action

    struct = G2Structure(g_half.algebra, g_half.phi)
    sol = algebraic_soliton_solve(struct)
    lhs = torsion_form(struct).dtau
    rhs = sol.lam * struct.phi + endo_action(sol.derivation, struct.phi)
    assert lhs == rhs


def test_soliton_infeasible_on_gabk():
    for (a, b, k) in ((1, 1, 0), (1, 2, 1), (2, 1, 3)):
        entry = catalog.get("g_abk", a=a, b=b, k=k)
        sol = algebraic_soliton_solve(G2Structure(entry.algebra, entry.phi))
        assert not sol.feasible
        assert sol.residual_ratio > 1e-3


def test_gabk_shrinking_soliton_at_a_zero():
    # the "no soliton" claim on g_abk needs a != 0: at a = 0, k = 1 the
    # adapted form is a shrinking soliton with lambda = -4 b^2
    from g2lab.exterior import endo_action

    for b in (F(1), F(2), F(-1, 2)):
        entry = catalog.get("g_abk", a=0, b=b, k=1)
        struct = G2Structure(entry.algebra, entry.phi)
        sol = algebraic_soliton_solve(struct)
        assert sol.feasible and sol.character == "shrinking"
        assert sol.lam == -4 * b * b
        rhs = sol.lam * struct.phi + endo_action(sol.derivation, struct.phi)
        assert torsion_form(struct).dtau == rhs


def test_soliton_trivial_on_abelian(abelian7_entry):
    sol = algebraic_soliton_solve(
        G2Structure(abelian7_entry.algebra, adapted_phi()))
    assert sol.feasible and sol.lam == 0 and sol.character == "steady"
    assert sol.derivation == Endo.zero(7)


def test_soliton_scale_equivariance(g_half):
    # phi -> s^3 phi preserves feasibility and rescales lambda by s^-2
    s = 2
    struct = G2Structure(g_half.algebra, F(s**3) * g_half.phi)
    sol = algebraic_soliton_solve(struct)
    assert sol.feasible
    assert sol.lam == F(-4, s * s)


def test_soliton_float_backend_agrees(g_half):
    exact = algebraic_soliton_solve(G2Structure(g_half.algebra, g_half.phi))
    approx = algebraic_soliton_solve(
        G2Structure(g_half.algebra, g_half.phi.to_float()))
    assert approx.feasible
    assert abs(float(exact.lam) - approx.lam) < 1e-9


def test_soliton_ambiguous_band_raises(monkeypatch):
    # widen the infeasible threshold past the known residual ratio: the
    # solve must refuse to call it either way
    import g2lab.flow as flow_mod

    entry = catalog.get("g_abk", a=1, b=1, k=0)
    struct = G2Structure(entry.algebra, entry.phi)
    monkeypatch.setattr(flow_mod, "INFEASIBLE_RATIO", 1.0)
    with pytest.raises(AmbiguousResidualError):
        algebraic_soliton_solve(struct)


# -- self-similarity -----------------------------------------------------------------------

def test_self_similar_on_lauret_trajectory(g_half_traj, g_half):
    sol = algebraic_soliton_solve(G2Structure(g_half.algebra, g_half.phi))
    report = self_similar_check(g_half_traj, sol)
    assert report.max_soliton_residual < 1e-6
    assert report.max_volume_deviation < 1e-6
    assert report.max_deviation < 1e-6


def test_self_similar_on_abelian(abelian7_entry):
    struct = G2Structure(abelian7_entry.algebra, adapted_phi())
    traj = laplacian_flow(struct, 0.5, dt0=1e-2, tol=1e-8)
    sol = algebraic_soliton_solve(struct)
    report = self_similar_check(traj, sol)
    assert report.max_deviation < 1e-12


def test_self_similar_fails_for_non_soliton(g110_traj, g110_structure):
    # feed the trajectory a fabricated (lambda, B) candidate: it must not verify
    candidate = SolitonSolution(
        feasible=True, lam=-4.0, derivation=Endo.zero(7).to_float(),
        residual=0.0, residual_ratio=0.0, character="shrinking",
        structure=g110_structure.to_float())
    report = self_similar_check(g110_traj, candidate)
    assert report.max_deviation > 1e-6


def test_self_similar_rejects_mismatched_inputs(g_half_traj, g110_structure):
    sol = algebraic_soliton_solve(g110_structure)
    with pytest.raises(ValueError):
        self_similar_check(g_half_traj, SolitonSolution(
            feasible=True, lam=0.0, derivation=Endo.zero(7).to_float(),
            residual=0.0, residual_ratio=0.0, character="steady",
            structure=g110_structure))


# -- CSV output -----------------------------------------------------------------------------

def test_trajectory_csv(tmp_path, g110_traj):
    from g2lab.flow import derived_series_to_csv, trajectory_to_csv

    path = tmp_path / "traj.csv"
    trajectory_to_csv(g110_traj, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,e123,e124")
    assert len(lines) == len(g110_traj.samples) + 1
    assert len(lines[1].split(",")) == 36

    dpath = tmp_path / "derived.csv"
    derived_series_to_csv(g110_traj, dpath)
    dlines = dpath.read_text().splitlines()
    assert dlines[0] == "t,tau_norm_sq,scal"
    first = dlines[1].split(",")
    assert abs(float(first[1]) - 14.0) < 1e-9
