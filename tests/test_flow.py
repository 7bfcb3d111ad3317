"""Laplacian flow, closed-form solutions, solitons, self-similarity."""

import math
from decimal import Decimal, localcontext
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


def test_stationary_start_steps_straight_to_t_end(abelian7_entry):
    # f(phi_0) = 0 exactly: phi is a fixed point and the automatic start
    # takes one step to t_end, whose error estimate is 0
    struct = G2Structure(abelian7_entry.algebra, adapted_phi())
    traj = laplacian_flow(struct, 1.0)
    assert traj.status == "completed" and traj.stats.accepted == 1
    assert traj.stats.rejected == 0 and traj.times == [0.0, 1.0]
    ref = adapted_phi().to_float()
    assert all(float((s.phi - ref).max_abs()) < 1e-12 for s in traj.samples)


def test_flow_starts_at_a_given_dt0(g_half_struct):
    traj = laplacian_flow(g_half_struct, 0.05, dt0=1e-3, tol=1e-9)
    assert traj.times[1] == 1e-3


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


def test_flow_reaches_the_gabk_blowup_time_in_few_evaluations(g110_structure):
    # b = 1 blows up at t_max = 3/8; the run to t_max ends with the step-size
    # underflow just before it, in fewer than 20 000 evaluations
    traj = laplacian_flow(g110_structure, gabk_max_time(1))
    assert traj.status == "blowup-approach"
    assert abs(traj.samples[-1].t - 0.375) < 1e-3
    assert traj.stats.rhs_evals < 20_000



@pytest.mark.parametrize("t_end", [1e-14, 5e-14, 1e-16])
def test_a_tiny_t_end_is_reached_in_one_step(g_half_struct, t_end):
    # the one step is cut to reach t_end, so it is exempt from the underflow
    # test, and a t_end below 1e-15 still takes it
    traj = laplacian_flow(g_half_struct, t_end)
    assert traj.status == "completed"
    assert traj.samples[-1].t == t_end and traj.stats.accepted == 1

def test_long_expanding_flow_stalls_in_bounded_work(monkeypatch):
    # g_a at a = 2 expands self-similarly; near t = 1.9e8 no float step moves
    # t any more, and the step-size underflow relative to t ends the run
    import g2lab.flow as flow_mod

    calls, rhs = [], flow_mod.FlowKernel.rhs

    def capped(self, y):
        calls.append(1)
        assert len(calls) <= 3000, "the flow did not end"
        return rhs(self, y)

    monkeypatch.setattr(flow_mod.FlowKernel, "rhs", capped)
    entry = catalog.get("g_a", a=2)
    with pytest.raises(flow_mod.FlowStalled, match="without torsion growth") as stalled:
        laplacian_flow(G2Structure(entry.algebra, entry.phi), 1e16)
    assert float(str(stalled.value).split("t=")[1].split()[0]) > 1e8


def test_flow_reports_blowup_approach(g_half_struct, monkeypatch):
    # lower the torsion guard so the singular approach is cheap to reach
    import g2lab.flow as flow_mod

    monkeypatch.setattr(flow_mod, "BLOWUP_TAU_SQ", 2000.0)
    traj = laplacian_flow(g_half_struct, 0.377, dt0=1e-3, tol=1e-6)
    assert traj.status == "blowup-approach"
    assert traj.samples[-1].t < 0.377
    assert traj.samples[-1].tau_norm_sq > 100.0 * traj.samples[0].tau_norm_sq


def test_flow_torsion_guard_ends_the_run_without_a_rejection(g_half_struct, monkeypatch):
    # the guard reads |tau|^2 at the accepted state, which the last stage of
    # the step evaluated: the run ends there, before that state is sampled,
    # after all twelve stages of the guard step and without counting it as
    # a rejection
    import g2lab.flow as flow_mod

    monkeypatch.setattr(flow_mod, "BLOWUP_TAU_SQ", 100.0)
    traj = laplacian_flow(g_half_struct, 0.37, dt0=1e-3, tol=1e-9)
    stats = traj.stats
    assert traj.status == "blowup-approach"
    assert stats.rhs_evals == 12 * (stats.accepted + stats.rejected + 1) + 1
    assert stats.accepted == len(traj.samples) - 1
    assert 90.0 < traj.samples[-1].tau_norm_sq <= 100.0


def test_flow_positivity_lost_in_a_stage_is_a_rejection(g_half_struct, monkeypatch):
    import g2lab.flow as flow_mod

    calls = []
    metric = flow_mod.FlowKernel.metric

    def failing_once(self, y):
        calls.append(1)
        if len(calls) == 20:
            raise flow_mod.NotPositiveError("not a positive 3-form")
        return metric(self, y)

    monkeypatch.setattr(flow_mod.FlowKernel, "metric", failing_once)
    traj = laplacian_flow(g_half_struct, 0.05, dt0=1e-3, tol=1e-9)
    assert traj.status == "completed" and traj.samples[-1].t == 0.05
    assert traj.stats.rejected == 1
    assert traj.stats.rhs_evals == len(calls)  # the failed stage counts too


def test_flow_positivity_lost_at_the_probe_shrinks_it(g_half_struct, monkeypatch):
    # the second metric is the automatic start's probe at phi_0 + h0 f_0;
    # it fails, h0 shrinks tenfold, and both probes count
    import g2lab.flow as flow_mod

    calls = []
    metric = flow_mod.FlowKernel.metric

    def failing_second(self, y):
        calls.append(1)
        if len(calls) == 2:
            raise flow_mod.NotPositiveError("not a positive 3-form")
        return metric(self, y)

    monkeypatch.setattr(flow_mod.FlowKernel, "metric", failing_second)
    traj = laplacian_flow(g_half_struct, 0.05)
    stats = traj.stats
    assert traj.status == "completed" and traj.samples[-1].t == 0.05
    assert stats.rhs_evals == len(calls)
    assert stats.rhs_evals == 12 * (stats.accepted + stats.rejected) + 3


def test_automatic_start_takes_one_probe(g_half_struct):
    stats = laplacian_flow(g_half_struct, 0.05).stats
    assert stats.accepted > 0
    assert stats.rhs_evals == 12 * (stats.accepted + stats.rejected) + 2


def test_starting_step_is_capped_at_100_h0():
    # on g_a at a = 3 with tol = 1e-5, Hairer's (0.01 tol / m)^(1/8) is ~0.065,
    # so the first step is the cap 100 h0 = 1/35, accepted at once
    from g2lab.flow import FlowKernel

    entry = catalog.get("g_a", a=3)
    y = entry.phi.to_float().np_coeffs
    f0 = FlowKernel(entry.algebra).rhs(y)[0]
    h0 = 0.01 * float(np.max(np.abs(y))) / float(np.max(np.abs(f0)))
    traj = laplacian_flow(G2Structure(entry.algebra, entry.phi), 0.1, tol=1e-5)
    assert traj.stats.rejected == 0
    assert traj.samples[1].t == 100.0 * h0


def test_short_gabk_run_takes_few_evaluations():
    # the starting step from f(phi_0) skips the ramp-up from a tiny step:
    # 38 evaluations, against 109 from dt0 = 1e-3
    entry = catalog.get("g_abk", a=F(-1, 4), b=F(11, 40), k=1)
    struct = G2Structure(entry.algebra, entry.phi)
    traj = laplacian_flow(struct, 0.3)
    assert traj.status == "completed" and traj.stats.rhs_evals <= 50
    worst = max(float((s.phi - gabk_phi(F(11, 40), s.t)).max_abs())
                for s in traj.samples)
    assert worst < 1e-6


def test_predictive_controller_rejects_few_steps_toward_blowup(g_half_struct):
    # the fitting step shrinks every step on the way to the blow-up at 3/8;
    # a proposal from the last error alone overshoots it 8 times to t = 0.3
    traj = laplacian_flow(g_half_struct, 0.3)
    stats = traj.stats
    assert traj.status == "completed"
    assert stats.rejected <= 2 and stats.rhs_evals <= 320
    worst = max(float((s.phi - lauret_solution(F(1, 2), s.t)).max_abs())
                for s in traj.samples)
    assert worst < 1e-6


def test_kernel_torsion_matches_exact():
    from g2lab.flow import FlowKernel

    for entry in catalog.closed_entry_instances():
        exact = torsion_form(G2Structure(entry.algebra, entry.phi))
        tau, tau_nsq, _ = FlowKernel(entry.algebra).torsion(entry.phi.to_float().np_coeffs)
        assert np.max(np.abs(tau - exact.tau.to_float().np_coeffs)) < 1e-12, entry.params
        assert abs(tau_nsq - float(exact.tau_norm_sq)) < 1e-12 * max(1.0, tau_nsq)


def test_kernel_torsion_matches_minor_oracle():
    # tau = -*_5 d *_3 phi and |tau|^2 with every star built from k x k minors,
    # around every closed catalog instance
    from g2lab.flow import FlowKernel
    from oracles import gram_minor_oracle, star_oracle

    for entry in catalog.closed_entry_instances():
        kernel = FlowKernel(entry.algebra)
        y0 = entry.phi.to_float().np_coeffs
        rng = np.random.default_rng(43)
        for _ in range(50):
            y = y0 + 0.05 * kernel.d2 @ rng.standard_normal(21)  # stays closed
            tau, tau_nsq, _ = kernel.torsion(y)
            g, volc, _ = kernel.metric(y)
            ginv = np.linalg.inv(g)
            ref = -star_oracle(g, volc, 5) @ kernel.d4 @ star_oracle(g, volc, 3) @ y
            ref_nsq = ref @ gram_minor_oracle(ginv, 2) @ ref
            assert np.max(np.abs(tau - ref)) <= 1e-13 * np.max(np.abs(ref)), entry.params
            assert abs(tau_nsq - ref_nsq) <= 1e-13 * ref_nsq, entry.params


def test_kernel_torsion_guard_rejects_a_form_that_is_not_closed(g_half):
    # tau = -*d*phi solves tau ^ phi = d*phi only when d phi = 0; off the closed
    # cone the float guard must raise, even 1e-6 away from a closed form
    from g2lab.flow import FlowKernel
    from g2lab.g2 import InconsistentTorsionError

    kernel = FlowKernel(g_half.algebra)
    y = g_half.phi.to_float().np_coeffs
    kernel.torsion(y)
    for eps in (1e-2, 1e-6):
        z = y + eps * np.random.default_rng(7).standard_normal(35)
        assert np.max(np.abs(kernel.d3 @ z)) > 0.1 * eps
        with pytest.raises(InconsistentTorsionError):
            kernel.torsion(z)


def test_kernel_torsion_takes_no_determinant(g_half, monkeypatch):
    # det b is the product of the Cholesky pivots; the stars raise indices
    from g2lab.flow import FlowKernel

    kernel = FlowKernel(g_half.algebra)
    dets, det = [], np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(1) or det(a))
    kernel.torsion(g_half.phi.to_float().np_coeffs)
    assert len(dets) == 0


def test_kernel_torsion_takes_no_inverse(g_half, monkeypatch):
    # both stars come from Lambda^2 g, which lowers indices; none is raised
    from g2lab.flow import FlowKernel

    kernel = FlowKernel(g_half.algebra)
    invs, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: invs.append(1) or inv(a))
    y = g_half.phi.to_float().np_coeffs
    kernel.rhs(y)
    kernel.torsion(y)
    assert len(invs) == 0


def test_kernel_maps_y_once_per_evaluation(g_half, monkeypatch):
    # b and W come from one product of y with g2._wedge_map, which the metric
    # and the torsion share; no cubic terms are summed by np.add.reduceat
    from g2lab.flow import FlowKernel
    from g2lab.g2 import _wedge_map

    kernel = FlowKernel(g_half.algebra)
    y = g_half.phi.to_float().np_coeffs
    wedge_map, dot, add = _wedge_map(), np.dot, np.add
    products, reduceats = [], []

    class CountedAdd:  # np.add, its reduceat counted
        def __getattr__(self, name):
            return getattr(add, name)

        def __call__(self, *args, **kwargs):
            return add(*args, **kwargs)

        def reduceat(self, *args, **kwargs):
            reduceats.append(1)
            return add.reduceat(*args, **kwargs)

    def counted_dot(a, b, *rest):
        if a is y:
            products.append(b is wedge_map)
        return dot(a, b, *rest)

    monkeypatch.setattr(np, "dot", counted_dot)
    monkeypatch.setattr(np, "add", CountedAdd())
    kernel.rhs(y)
    assert products == [True]
    kernel.torsion(y)
    assert products == [True, True] and reduceats == []


def test_flow_evaluates_torsion_at_most_12_times_per_step(g_half_struct, monkeypatch):
    # twelve new stages per attempted step; the last, at the new state, is
    # the next step's first and gives the sample its |tau|^2 (FSAL)
    from g2lab.flow import FlowKernel

    calls = []
    torsion = FlowKernel.torsion

    def counted(self, y):
        calls.append(1)
        return torsion(self, y)

    monkeypatch.setattr(FlowKernel, "torsion", counted)
    traj = laplacian_flow(g_half_struct, 0.05, dt0=1e-3, tol=1e-9)
    stats = traj.stats
    assert traj.status == "completed" and stats.accepted > 5
    assert stats.accepted == len(traj.samples) - 1
    assert len(calls) == stats.rhs_evals
    assert len(calls) <= 12 * (stats.accepted + stats.rejected) + 1


def test_flow_stats_record_the_run(g_half_traj):
    stats = g_half_traj.stats
    hs = [b - a for a, b in zip(g_half_traj.times, g_half_traj.times[1:])]
    assert stats.accepted == len(hs)
    assert stats.rhs_evals == 12 * (stats.accepted + stats.rejected) + 1
    assert stats.h_min == pytest.approx(min(hs)) and stats.h_max == pytest.approx(max(hs))
    assert 0.0 <= stats.max_closedness_drift < 1e-8


def test_dop853_tableau():
    # the 30-digit decimals, read as exact fractions: row i of A sums to c_i,
    # the weights b (the last row) meet the quadrature conditions
    # sum b_i c_i^(q-1) = 1/q for q <= 8 and not for q = 9, and the error
    # weights of the embedded 3rd- and 5th-order solutions annihilate c^(q-1)
    # for q <= 3 and q <= 5; 30 digits hold each condition to ~1e-28
    from g2lab.flow import DOP853_A, DOP853_BHAT3, DOP853_E5

    a = [[F(x) for x in row.split()] for row in DOP853_A]
    # the nodes: c_2..c_5 from (6 -+ sqrt 6)/30, to 60 digits, then rationals
    with localcontext() as ctx:
        ctx.prec = 60
        r6 = F(Decimal(6).sqrt())
    c4 = (6 - r6) / 30
    c = [F(0), 4 * c4 / 9, 2 * c4 / 3, c4, (6 + r6) / 30, F(1, 3), F(1, 4),
         F(4, 13), F(127, 195), F(3, 5), F(6, 7), F(1), F(1)]
    assert [len(row) for row in a] == list(range(13))
    assert all(abs(sum(row, F(0)) - ci) < 1e-25 for row, ci in zip(a, c))

    def moment(w, q):
        return sum(wi * ci ** (q - 1) for wi, ci in zip(w, c))

    b = a[-1]
    e3 = [bi - x for bi, x in zip(b, map(F, DOP853_BHAT3.split()))]
    e5 = [F(x) for x in DOP853_E5.split()]
    assert len(e3) == len(e5) == 12
    assert all(abs(moment(b, q) - F(1, q)) < 1e-25 for q in range(1, 9))
    assert abs(moment(b, 9) - F(1, 9)) > 1e-6
    assert all(abs(moment(e3, q)) < 1e-25 for q in range(1, 4))
    assert all(abs(moment(e5, q)) < 1e-25 for q in range(1, 6))
    assert abs(moment(e3, 4)) > 1e-3 and abs(moment(e5, 6)) > 1e-4


def test_dop853_step_is_eighth_order():
    # one step of y' = y^2, y(0) = 1 against y(h) = 1/(1 - h): the local error
    # is O(h^9), so each halving of h cuts it by at least 2^8
    from g2lab.flow import DOP853_A

    with localcontext() as ctx:
        ctx.prec = 40
        a = [[Decimal(x) for x in row.split()] for row in DOP853_A]

        def step(h):
            ks = []
            for row in a:  # after the last row, b, y is the step's result
                y = 1 + h * sum((w * k for w, k in zip(row, ks)), Decimal(0))
                ks.append(y * y)
            return y

        errs = [abs(step(1 / Decimal(n)) - 1 / (1 - 1 / Decimal(n))) for n in (10, 20, 40)]
    assert all(big >= 2 ** 8 * small for big, small in zip(errs, errs[1:]))


def test_flow_requires_closed_start(g110_entry):
    from g2lab.g2 import NotClosedError

    phi = (g110_entry.phi + F(1, 10) * KForm.monomial(7, (1, 2, 3))).to_float()
    struct = G2Structure(g110_entry.algebra, phi)
    with pytest.raises(NotClosedError):
        laplacian_flow(struct, 0.1)


@pytest.mark.parametrize("kwargs", [{"t_end": math.nan}, {"t_end": math.inf},
                                    {"dt0": 0.0}, {"dt0": -1e-3}, {"dt0": math.nan},
                                    {"tol": 0.0}, {"tol": -1e-9}, {"tol": math.nan}])
def test_flow_rejects_non_finite_or_non_positive_inputs(g_half_struct, kwargs):
    with pytest.raises(ValueError, match="finite and positive"):
        laplacian_flow(g_half_struct, **{"t_end": 0.05, **kwargs})


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


def test_steady_soliton_takes_no_least_squares(abelian7_entry, monkeypatch):
    # d tau = 0: the minimum-norm solution of A x = 0 is x = 0, in either backend
    from g2lab import linalg

    calls = []
    for mod in (linalg, np.linalg):
        monkeypatch.setattr(mod, "lstsq",
                            lambda *a, f=mod.lstsq, **k: calls.append(1) or f(*a, **k))
    struct = G2Structure(abelian7_entry.algebra, adapted_phi())
    for st in (struct, struct.to_float()):
        sol = algebraic_soliton_solve(st)
        assert sol.feasible and sol.lam == 0 and sol.character == "steady"
        assert sol.derivation == Endo.zero(7, st.backend)
        assert sol.coefficients == (0,) * 49 and sol.residual == 0.0
    assert calls == []


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
    # float solve must refuse to call it either way
    import g2lab.flow as flow_mod

    entry = catalog.get("g_abk", a=1, b=1, k=0)
    struct = G2Structure(entry.algebra, entry.phi.to_float())
    monkeypatch.setattr(flow_mod, "INFEASIBLE_RATIO", 1.0)
    with pytest.raises(AmbiguousResidualError):
        algebraic_soliton_solve(struct)


def test_rational_soliton_feasibility_is_exact(monkeypatch, g_half):
    # an exact residual decides alone: any nonzero one is infeasible, however
    # small against |d tau|, and the float band plays no part
    import g2lab.flow as flow_mod

    struct = G2Structure(g_half.algebra, g_half.phi)
    monkeypatch.setattr(flow_mod, "INFEASIBLE_RATIO", 1.0)
    sol = algebraic_soliton_solve(struct)
    assert sol.feasible and sol.residual == 0
    lstsq = flow_mod.linalg.lstsq
    monkeypatch.setattr(flow_mod.linalg, "lstsq",
                        lambda a, b: (lstsq(a, b)[0], F(1, 10 ** 30)))
    sol = algebraic_soliton_solve(struct)
    assert not sol.feasible and 0 < sol.residual_ratio < 1e-8


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
