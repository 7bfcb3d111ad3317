"""Laplacian flow of closed G2-structures and algebraic soliton solving.

The flow evolves the 35 coefficients of a closed 3-form by
d phi/dt = Delta_phi phi = d tau(phi); the right-hand side is exact, so the
closed cone is preserved.  FlowKernel evaluates it in numpy with the same
metric, positivity rule and torsion identity tau = -*d*phi as the float
backend of g2, guarded by tau wedge phi = d*phi.  Integration uses a
classical 4th-order one-step method with step-halving error control.

Also provided: the closed-form self-similar solution on the one-parameter
rank-one extensions of the coupled nilpotent algebra, the closed-form
solution on the solvable three-parameter extensions, the algebraic soliton
equation d tau = lambda phi + (B act phi) solved by least squares over the
derivation space, and the self-similarity verification of trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .exterior import (
    Endo,
    KForm,
    basis_indices,
    complement_table,
    endo_action,
    gram_np,
    wedge_tensor,
)
from .g2 import (
    G2Structure,
    InconsistentTorsionError,
    NotClosedError,
    induced_bilinear_np,
    positive_det_np,
    torsion,
)
from .liealg import LieAlgebra, derivation_space
from .scalars import FLOAT, RATIONAL

LAMBDA2 = tuple(basis_indices(7, 2))
LAMBDA3 = tuple(basis_indices(7, 3))

#: |tau|^2 beyond which the integrator reports an approaching blow-up
BLOWUP_TAU_SQ = 1e12

#: soliton feasibility thresholds relative to |d tau|
FEASIBLE_RATIO = 1e-8
INFEASIBLE_RATIO = 1e-6


class AmbiguousResidualError(ArithmeticError):
    """Soliton residual falls between the feasible and infeasible thresholds."""


class FlowStalled(RuntimeError):
    """Adaptive step size underflowed before reaching the target time."""


# ---------------------------------------------------------------------------
# numpy kernel
# ---------------------------------------------------------------------------

def _signed_complement_matrix(n, k):
    """Matrix of the index pairing used by the Hodge star on degree k."""
    rows = len(basis_indices(n, n - k))
    cols = len(basis_indices(n, k))
    s = np.zeros((rows, cols))
    for i, (cpos, sign) in enumerate(complement_table(n, k)):
        s[cpos, i] = sign
    return s


class _Blowup(Exception):
    pass


class FlowKernel:
    """Vectorised evaluation of phi -> d tau(phi) on a fixed 7-dim algebra."""

    def __init__(self, alg: LieAlgebra):
        if alg.n != 7:
            raise ValueError("flow needs a 7-dimensional algebra")
        self.algebra = alg
        self.d2 = alg.d_matrix_np(2)
        self.d3 = alg.d_matrix_np(3)
        self.d4 = alg.d_matrix_np(4)
        self.w23 = wedge_tensor(7, 2, 3)
        self.s3 = _signed_complement_matrix(7, 3)
        self.s5 = _signed_complement_matrix(7, 5)

    def metric(self, y):
        b = induced_bilinear_np(y)
        det_b = positive_det_np(b)
        if det_b is None:
            raise _Blowup("positivity lost")
        volc = det_b ** (1.0 / 9.0)
        g = b / volc
        return g, np.linalg.inv(g), volc

    def torsion(self, y):
        """tau = -*d*phi, |tau|^2 and the volume coefficient at phi = y."""
        _, ginv, volc = self.metric(y)
        star3 = volc * (self.s3 @ gram_np(ginv, 3))
        dstar = self.d4 @ (star3 @ y)
        star5 = volc * (self.s5 @ gram_np(ginv, 5))
        tau = -(star5 @ dstar)
        wphi = np.einsum("aqc,q->ca", self.w23, y)        # (21c, 21a)
        res = float(np.linalg.norm(wphi @ tau - dstar))
        if res > 1e-9 * max(1.0, float(np.linalg.norm(dstar))):
            raise InconsistentTorsionError(
                "tau = -*d*phi fails tau wedge phi = d*phi along the flow")
        tau_nsq = float(tau @ gram_np(ginv, 2) @ tau)
        if tau_nsq > BLOWUP_TAU_SQ:
            raise _Blowup("torsion blow-up")
        return tau, tau_nsq, volc

    def rhs(self, y):
        tau, _, _ = self.torsion(y)
        return self.d2 @ tau

    def closedness_residual(self, y) -> float:
        return float(np.max(np.abs(self.d3 @ y)))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowSample:
    t: float
    phi: KForm
    tau_norm_sq: float
    scal: float


@dataclass(frozen=True)
class FlowTrajectory:
    algebra: LieAlgebra
    samples: tuple
    status: str  # "completed" | "blowup-approach"
    config: dict

    @property
    def times(self):
        return [s.t for s in self.samples]

    def final(self) -> FlowSample:
        return self.samples[-1]


def _rk4_step(f, y, h, k1=None):
    if k1 is None:
        k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def laplacian_flow(start: G2Structure, t_end: float, dt0: float = 1e-3,
                   tol: float = 1e-9) -> FlowTrajectory:
    """Integrate d phi/dt = Delta phi from a closed positive structure.

    Local error per step is estimated by comparing one full step against two
    half steps and kept below tol * h (tol is per unit time); both start from
    the right-hand side at the accepted state, computed once with its sample.
    The integrator stops early with status "blowup-approach" when |tau|^2
    exceeds 1e12 or positivity fails inside a step.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    struct = start.to_float()
    if not struct.is_closed(1e-10):
        raise NotClosedError("initial form is not closed")
    kernel = FlowKernel(struct.algebra)
    y = struct.phi.np_coeffs
    t = 0.0
    h = float(dt0)
    status = "completed"
    samples = []

    def record(t_now, y_now):
        residual = kernel.closedness_residual(y_now)
        if residual > 1e-8 * max(1.0, float(np.max(np.abs(y_now)))):
            raise ArithmeticError("closedness lost along the flow")
        tau, tau_nsq, _ = kernel.torsion(y_now)
        samples.append(FlowSample(
            t=t_now,
            phi=KForm(7, 3, y_now, FLOAT),
            tau_norm_sq=tau_nsq,
            scal=0.0 - 0.5 * tau_nsq,  # +0.0, not -0.0, at zero torsion
        ))
        return kernel.d2 @ tau  # f(y_now), the next step's k1

    k1 = record(t, y)
    stalled = False
    just_rejected = False
    try:
        while t < t_end - 1e-15:
            h = min(h, t_end - t)
            if h < 1e-13:
                stalled = True
                break
            try:
                full = _rk4_step(kernel.rhs, y, h, k1)
                half = _rk4_step(kernel.rhs, y, 0.5 * h, k1)
                half = _rk4_step(kernel.rhs, half, 0.5 * h)
            except _Blowup:
                # positivity lost inside a trial: may be pure overshoot, so
                # treat it as a rejected step; the guards on accepted states
                # decide whether this is a genuine blow-up approach
                h *= 0.1
                just_rejected = True
                if h < 1e-13:
                    stalled = True
                    break
                continue
            err = float(np.max(np.abs(full - half))) / 15.0
            bound = tol * h
            if err <= bound:
                y = half
                t = t + h
                k1 = record(t, y)
                growth = 1.0 if just_rejected else 2.0
                factor = growth if err == 0 \
                    else min(growth, 0.9 * (bound / err) ** 0.25)
                h *= max(factor, 0.1)
                just_rejected = False
            else:
                h *= max(0.1, 0.9 * (bound / err) ** 0.25)
                just_rejected = True
                if h < 1e-13:
                    stalled = True
                    break
    except _Blowup:
        status = "blowup-approach"
    if stalled:
        # the step size underflows exactly when the right-hand side becomes
        # singular at the requested tolerance: approaching finite-time blow-up
        grew = samples[-1].tau_norm_sq > max(10.0 * samples[0].tau_norm_sq, 1.0)
        if grew:
            status = "blowup-approach"
        else:
            raise FlowStalled("step size underflow at t=%g without torsion "
                              "growth" % t)
    return FlowTrajectory(
        algebra=struct.algebra,
        samples=tuple(samples),
        status=status,
        config={"t_end": t_end, "dt0": dt0, "tol": tol},
    )


def trajectory_to_csv(traj: FlowTrajectory, path):
    """CSV with one column per lexicographic 3-form monomial."""
    header = ["t"] + ["e%d%d%d" % (i + 1, j + 1, k + 1) for (i, j, k) in LAMBDA3]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for s in traj.samples:
            row = [_fmt(s.t)] + [_fmt(c) for c in s.phi.coeffs]
            fh.write(",".join(row) + "\n")


def derived_series_to_csv(traj: FlowTrajectory, path):
    """Companion CSV with |tau|^2 and the scalar curvature."""
    with open(path, "w", newline="") as fh:
        fh.write("t,tau_norm_sq,scal\n")
        for s in traj.samples:
            fh.write("%s,%s,%s\n" % (_fmt(s.t), _fmt(s.tau_norm_sq), _fmt(s.scal)))


def _fmt(x) -> str:
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# closed-form reference solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfSimilarExponents:
    lam: float
    q1: float
    q2: float
    q3: float
    t_min: float
    t_max: float


def lauret_exponents(a) -> SelfSimilarExponents:
    """Exponent data of the closed-form solution on the one-parameter family."""
    a = float(Fraction(a) if not isinstance(a, float) else a)
    if a < 0.25:
        raise ValueError("parameter must satisfy a >= 1/4")
    if a == 1.0:
        raise ValueError("a = 1 is the steady case; the power-law form degenerates")
    lam = 8.0 * a * a - 4.0 * a - 4.0
    q1 = 3.0 * a / (2.0 * (2.0 * a + 1.0))
    q2 = 3.0 * (2.0 * a - 1.0) / (8.0 * (a - 1.0))
    q3 = 9.0 / (8.0 * (2.0 * a + 1.0) * (a - 1.0))
    boundary = -3.0 / (2.0 * lam)
    if lam < 0:
        return SelfSimilarExponents(lam, q1, q2, q3, -math.inf, boundary)
    return SelfSimilarExponents(lam, q1, q2, q3, boundary, math.inf)


def lauret_solution(a, t: float) -> KForm:
    """Closed-form flow solution on the one-parameter extension family.

    phi(t) = A^q1 e^127 + A^q2 e^347 + A^q3 (e^567 + e^135 - e^146 - e^236 - e^245)
    with A = (2/3) lambda t + 1 and lambda = 8a^2 - 4a - 4.
    """
    data = lauret_exponents(a)
    if not (data.t_min < t < data.t_max):
        raise ValueError("t=%g outside the maximal interval (%g, %g)"
                         % (t, data.t_min, data.t_max))
    big_a = (2.0 / 3.0) * data.lam * t + 1.0
    c1 = big_a ** data.q1
    c2 = big_a ** data.q2
    c3 = big_a ** data.q3
    return KForm.from_terms(
        7, 3,
        {(1, 2, 7): c1, (3, 4, 7): c2, (5, 6, 7): c3,
         (1, 3, 5): c3, (1, 4, 6): -c3, (2, 3, 6): -c3, (2, 4, 5): -c3},
        FLOAT,
    )


def gabk_max_time(b) -> float:
    b = float(Fraction(b) if not isinstance(b, float) else b)
    if b == 0:
        raise ValueError("b must be nonzero")
    return 3.0 / (8.0 * b * b)


def gabk_solution(b, t: float):
    """Coefficients (C1, C2, C3) of the closed-form solution on the solvable family.

    C2 = (1 - (8/3) b^2 t)^(-9/8), C1 = C2^(-1/3), C3 = 1; defined for
    t < 3/(8 b^2).
    """
    t_max = gabk_max_time(b)
    if t >= t_max:
        raise ValueError("t=%g outside the maximal interval (-inf, %g)" % (t, t_max))
    b = float(Fraction(b) if not isinstance(b, float) else b)
    c2 = (1.0 - (8.0 / 3.0) * b * b * t) ** (-9.0 / 8.0)
    return (c2 ** (-1.0 / 3.0), c2, 1.0)


def gabk_phi(b, t: float) -> KForm:
    """The 3-form with ansatz coefficients given by gabk_solution."""
    c1, c2, c3 = gabk_solution(b, t)
    return ansatz_phi((c1, c2, c3, c2, c2, c2, c2))


# ---------------------------------------------------------------------------
# the 7-coefficient ansatz
# ---------------------------------------------------------------------------

ANSATZ_MONOMIALS = ((1, 2, 7), (3, 4, 7), (5, 6, 7),
                    (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
ANSATZ_SIGNS = (1, 1, 1, 1, -1, -1, -1)


@dataclass(frozen=True)
class AnsatzCoefficients:
    c: tuple
    closed_reduction: bool  # C7 = C6 = C5 = C4 = C2


def ansatz_phi(coeffs, backend=FLOAT) -> KForm:
    terms = {m: s * c for m, s, c in zip(ANSATZ_MONOMIALS, ANSATZ_SIGNS, coeffs)}
    return KForm.from_terms(7, 3, terms, backend)


def ansatz_coefficients(phi: KForm) -> Optional[AnsatzCoefficients]:
    """Extract (C1..C7) if phi is supported exactly on the ansatz monomials."""
    if phi.n != 7 or phi.k != 3:
        return None
    positions = [  # lexicographic positions of the ansatz monomials
        index_of(m) for m in ANSATZ_MONOMIALS
    ]
    scale = max(1.0, float(phi.max_abs()))
    off_tol = 0.0 if phi.backend == RATIONAL else 1e-12 * scale
    for pos, c in enumerate(phi.coeffs):
        if pos not in positions and abs(float(c)) > off_tol:
            return None
    cs = tuple(s * phi.coeffs[p] for p, s in zip(positions, ANSATZ_SIGNS))
    c2, c4, c5, c6, c7 = cs[1], cs[3], cs[4], cs[5], cs[6]
    if phi.backend == RATIONAL:
        closed = c2 == c4 == c5 == c6 == c7
    else:
        ref = max(1.0, abs(float(c2)))
        closed = all(abs(float(x - c2)) <= 1e-9 * ref for x in (c4, c5, c6, c7))
    return AnsatzCoefficients(c=cs, closed_reduction=closed)


def index_of(monomial) -> int:
    from .exterior import index_position

    return index_position(7, 3)[tuple(i - 1 for i in monomial)]


# ---------------------------------------------------------------------------
# algebraic solitons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolitonSolution:
    feasible: bool
    lam: Optional[object]
    derivation: Optional[Endo]
    residual: float
    residual_ratio: float
    character: Optional[str]
    structure: G2Structure
    coefficients: Optional[tuple] = None

    def __repr__(self):
        if not self.feasible:
            return "SolitonSolution(infeasible, ratio=%.3g)" % self.residual_ratio
        return "SolitonSolution(lambda=%s, %s)" % (self.lam, self.character)


def _character(lam, backend) -> str:
    if backend == RATIONAL:
        if lam < 0:
            return "shrinking"
        if lam > 0:
            return "expanding"
        return "steady"
    if lam < -1e-9:
        return "shrinking"
    if lam > 1e-9:
        return "expanding"
    return "steady"


def algebraic_soliton_solve(struct: G2Structure) -> SolitonSolution:
    """Least-squares solve of d tau = lambda phi + (B act phi) over Der.

    Feasible when the residual is below 1e-8 |d tau|, infeasible above
    1e-6 |d tau|; the band in between raises AmbiguousResidualError so no
    false soliton claim can slip through.
    """
    tor = torsion(struct)
    der = derivation_space(struct.algebra)
    basis = der.basis
    target_norm = tor.dtau.norm_l2()
    if struct.backend == RATIONAL:
        cols = [list(struct.phi.coeffs)]
        for b in basis:
            cols.append(list(endo_action(b, struct.phi).coeffs))
        a = [[cols[j][i] for j in range(len(cols))] for i in range(35)]
        x, res_sq = linalg.lstsq(a, list(tor.dtau.coeffs))
        residual = math.sqrt(float(res_sq))
        lam = x[0]
        coeffs = tuple(x[1:])
    else:
        cols = [struct.phi.np_coeffs]
        for b in basis:
            cols.append(endo_action(b.to_float(), struct.phi).np_coeffs)
        a = np.array(cols).T
        x, *_ = np.linalg.lstsq(a, tor.dtau.np_coeffs, rcond=None)
        residual = float(np.linalg.norm(a @ x - tor.dtau.np_coeffs))
        lam = float(x[0])
        coeffs = tuple(float(c) for c in x[1:])
    if target_norm == 0.0:
        ratio = 0.0
    else:
        ratio = residual / target_norm
    if target_norm > 0.0 and ratio >= INFEASIBLE_RATIO:
        return SolitonSolution(feasible=False, lam=None, derivation=None,
                               residual=residual, residual_ratio=ratio,
                               character=None, structure=struct)
    if target_norm > 0.0 and ratio >= FEASIBLE_RATIO:
        raise AmbiguousResidualError(
            "soliton residual ratio %.3g lies in the ambiguous band [1e-8, 1e-6)"
            % ratio)
    b_total = Endo.zero(7, struct.backend)
    for c, b in zip(coeffs, basis):
        member = b if struct.backend == RATIONAL else b.to_float()
        b_total = b_total + c * member
    return SolitonSolution(feasible=True, lam=lam, derivation=b_total,
                           residual=residual, residual_ratio=ratio,
                           character=_character(lam, struct.backend),
                           structure=struct, coefficients=coeffs)


# ---------------------------------------------------------------------------
# self-similarity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfSimilarReport:
    max_soliton_residual: float
    max_volume_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.max_soliton_residual, self.max_volume_deviation)


def self_similar_check(traj: FlowTrajectory, sol: SolitonSolution,
                       max_samples: int = 60) -> SelfSimilarReport:
    """Verify that a trajectory is the self-similar evolution of a soliton.

    At each sampled time the identity Delta phi = lambda(t) phi + B(t) act phi
    must hold with lambda(t) = lambda/(1 + (2/3) lambda t) and
    B(t) = B/(1 + (2/3) lambda t), and the volume must scale as
    (1 + (2/3) lambda t)^(7/2 + 3 tr B/(2 lambda)) (exp(t tr B) when steady).
    The scaling law is validated against the closed-form one-parameter
    solution in the test suite before being trusted elsewhere.
    """
    if sol.lam is None or sol.derivation is None:
        raise ValueError("mismatched inputs: candidate has no (lambda, B)")
    if any(x != y for x, y in zip(traj.algebra.d1, sol.structure.algebra.d1)):
        raise ValueError("mismatched inputs: trajectory and candidate live on "
                         "different algebras")
    start = traj.samples[0].phi
    ref = sol.structure.phi.to_float()
    if float((start - ref).max_abs()) > 1e-9 * max(1.0, float(ref.max_abs())):
        raise ValueError("mismatched inputs: trajectory does not start at the soliton")
    lam = float(sol.lam)
    b = sol.derivation.to_float()
    tr_b = float(b.trace())
    kernel = FlowKernel(traj.algebra)
    vol0 = kernel.metric(start.np_coeffs)[2]

    picks = traj.samples
    if len(picks) > max_samples:
        stride = max(1, len(picks) // max_samples)
        picks = picks[::stride] + (traj.samples[-1],)

    worst_res = 0.0
    worst_vol = 0.0
    for sample in picks:
        scale = 1.0 + (2.0 / 3.0) * lam * sample.t
        if scale <= 0:
            raise ValueError("sample outside the soliton's maximal interval")
        y = sample.phi.np_coeffs
        tau, _, volc = kernel.torsion(y)
        lhs = kernel.d2 @ tau - (lam / scale) * y \
            - endo_action((1.0 / scale) * b, sample.phi).np_coeffs
        worst_res = max(worst_res, float(np.max(np.abs(lhs))))
        if lam != 0.0:
            expected = scale ** (3.5 + 1.5 * tr_b / lam)
        else:
            expected = math.exp(sample.t * tr_b)
        vol_ratio = volc / vol0
        worst_vol = max(worst_vol, abs(vol_ratio - expected) / max(1.0, expected))
    return SelfSimilarReport(max_soliton_residual=worst_res,
                             max_volume_deviation=worst_vol)
