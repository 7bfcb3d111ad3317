"""Laplacian flow of closed G2-structures and algebraic soliton solving.

The flow evolves the 35 coefficients of a closed 3-form by
d phi/dt = Delta_phi phi = d tau(phi); the right-hand side is exact, so the
closed cone is preserved.  FlowKernel evaluates it in numpy with g2.metric_np,
the one float metric (positive by linalg.positive_det_np), and the torsion
identity tau = -*d*phi, guarded by tau wedge phi = d*phi.  Both stars come
from W, which metric_np returns with g, and Lambda^2 g, gathered from g by one
constant index table, without an inverse (see FlowKernel.torsion).
Integration uses the Dormand-Prince 8(5,3) pair: the 8th-order solution
advances, its embedded 5th- and 3rd-order solutions give the error estimate
that controls the step, and the last stage, taken at the new state, is the
next step's first (FSAL), so a step costs
twelve evaluations.  Unless a first step is given, it is chosen from f(phi_0)
and one more evaluation at an Euler point (Hairer's starting step, as in
dop853.f), and after each accepted step the next is the smaller of the
classic proposal and Gustafsson's predictive one from the last two accepted
steps (as in radau5.f), so a run neither ramps up from a tiny step nor
overshoots repeatedly as the fitting step shrinks toward a blow-up.

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
from functools import lru_cache
from typing import Optional

import numpy as np

from . import linalg
from .exterior import (
    Endo,
    KForm,
    basis_indices,
    complement_table,
    endo_action,
    index_position,
)
from .g2 import (
    ANSATZ_MONOMIALS,
    ANSATZ_SIGNS,
    G2Structure,
    InconsistentTorsionError,
    NotClosedError,
    NotPositiveError,
    ansatz_phi,
    metric_np,
    torsion,
)
from .liealg import LieAlgebra, derivation_space
from .scalars import FLOAT, RATIONAL, negligible, zero

LAMBDA3 = tuple(basis_indices(7, 3))

#: |tau|^2 beyond which the integrator reports an approaching blow-up
BLOWUP_TAU_SQ = 1e12

#: The Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving Ordinary
#: Differential Equations I, 2nd ed., II.10, and their code dop853.f), as the
#: 30-digit decimals published there: the nodes involve sqrt 6, so most
#: entries are irrational.  Row i of the stage matrix holds a_ij for j < i;
#: its last row is the weights b of the 8th-order solution, so the last stage
#: is f at the new state (FSAL).  DOP853_BHAT3 are the weights of the embedded
#: 3rd-order solution and DOP853_E5 the error weights of the embedded
#: 5th-order one; both weigh the first twelve stages only.
DOP853_A = (
    "",
    "5.26001519587677318785587544488e-2",
    "1.97250569845378994544595329183e-2 5.91751709536136983633785987549e-2",
    "2.95875854768068491816892993775e-2 0 8.87627564304205475450678981324e-2",
    "2.41365134159266685502369798665e-1 0 -8.84549479328286085344864962717e-1"
    " 9.24834003261792003115737966543e-1",
    "3.7037037037037037037037037037e-2 0 0 1.70828608729473871279604482173e-1"
    " 1.25467687566822425016691814123e-1",
    "3.7109375e-2 0 0 1.70252211019544039314978060272e-1"
    " 6.02165389804559606850219397283e-2 -1.7578125e-2",
    "3.70920001185047927108779319836e-2 0 0 1.70383925712239993810214054705e-1"
    " 1.07262030446373284651809199168e-1 -1.53194377486244017527936158236e-2"
    " 8.27378916381402288758473766002e-3",
    "6.24110958716075717114429577812e-1 0 0 -3.36089262944694129406857109825"
    " -8.68219346841726006818189891453e-1 2.75920996994467083049415600797e1"
    " 2.01540675504778934086186788979e1 -4.34898841810699588477366255144e1",
    "4.77662536438264365890433908527e-1 0 0 -2.48811461997166764192642586468"
    " -5.90290826836842996371446475743e-1 2.12300514481811942347288949897e1"
    " 1.52792336328824235832596922938e1 -3.32882109689848629194453265587e1"
    " -2.03312017085086261358222928593e-2",
    "-9.3714243008598732571704021658e-1 0 0 5.18637242884406370830023853209"
    " 1.09143734899672957818500254654 -8.14978701074692612513997267357"
    " -1.85200656599969598641566180701e1 2.27394870993505042818970056734e1"
    " 2.49360555267965238987089396762 -3.0467644718982195003823669022",
    "2.27331014751653820792359768449 0 0 -1.05344954667372501984066689879e1"
    " -2.00087205822486249909675718444 -1.79589318631187989172765950534e1"
    " 2.79488845294199600508499808837e1 -2.85899827713502369474065508674"
    " -8.87285693353062954433549289258 1.23605671757943030647266201528e1"
    " 6.43392746015763530355970484046e-1",
    "5.42937341165687622380535766363e-2 0 0 0 0 4.45031289275240888144113950566"
    " 1.89151789931450038304281599044 -5.8012039600105847814672114227"
    " 3.1116436695781989440891606237e-1 -1.52160949662516078556178806805e-1"
    " 2.01365400804030348374776537501e-1 4.47106157277725905176885569043e-2",
)
DOP853_BHAT3 = ("0.244094488188976377952755905512 0 0 0 0 0 0 0"
                " 0.733846688281611857341361741547 0 0"
                " 0.220588235294117647058823529412e-1")
DOP853_E5 = ("0.1312004499419488073250102996e-1 0 0 0 0"
             " -0.1225156446376204440720569753e+1 -0.4957589496572501915214079952"
             " 0.1664377182454986536961530415e+1 -0.3503288487499736816886487290"
             " 0.3341791187130174790297318841 0.8192320648511571246570742613e-1"
             " -0.2235530786388629525884427845e-1")
_A = np.array([[float(x) for x in row.split()] + [0.0] * (12 - i)
               for i, row in enumerate(DOP853_A)])
#: rows: the error weights of the embedded 5th- and 3rd-order solutions
_E53 = np.array([[float(x) for x in DOP853_E5.split()],
                 _A[-1] - [float(x) for x in DOP853_BHAT3.split()]])

#: soliton feasibility thresholds relative to |d tau|
FEASIBLE_RATIO = 1e-8
INFEASIBLE_RATIO = 1e-6


class AmbiguousResidualError(ArithmeticError):
    """Soliton residual falls between the feasible and infeasible thresholds."""


class FlowStalled(ArithmeticError):
    """Adaptive step size underflowed before reaching the target time."""


# ---------------------------------------------------------------------------
# numpy kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _torsion_gathers():
    """The constant index tables of FlowKernel.torsion, shared by every kernel."""
    # Lambda^2 g: entry (ij, ab), i < j and a < b, is g_ia g_jb - g_ib g_ja,
    # the products of the pairs of one gather from the flattened g
    i, j = np.triu_indices(7, 1)
    lam2_idx = np.array([[7 * i[:, None] + i, 7 * j[:, None] + j],
                         [7 * i[:, None] + j, 7 * j[:, None] + i]]).reshape(2, 2, 441)
    # *phi at i < j < a < b: the flat positions (ij, ab) of a 21 x 21 matrix
    pos = index_position(7, 2)
    star = [21 * pos[q[:2]] + pos[q[2:]] for q in basis_indices(7, 4)]
    cpos, sign = np.array(complement_table(7, 5)).T  # S_5 as a signed permutation
    src = np.argsort(cpos)  # the 5-form rows of d by the 2-form position of S_5
    return lam2_idx, star, src, sign[src]


class FlowKernel:
    """Vectorised evaluation of phi -> d tau(phi) on a fixed 7-dim algebra."""

    def __init__(self, alg: LieAlgebra):
        if alg.n != 7:
            raise ValueError("flow needs a 7-dimensional algebra")
        self.algebra = alg
        self.d2, self.d3, self.d4 = ds = (np.zeros((35, 21)), np.zeros((35, 35)),
                                          np.zeros((21, 35)))
        # filled from the sparse columns: np.array(alg.d_matrix(k), float) also
        # converts every zero Fraction, 1.3 ms against 0.08 ms per kernel, and
        # laplacian_flow builds one kernel per run (~20 % of a 6.7 ms t = 0.3 run)
        for k, m in zip((2, 3, 4), ds):
            for j, col in enumerate(alg.d_columns(k)):
                for r, c in col:
                    m[r, j] = c
        self.lam2_idx, star, src, sign = _torsion_gathers()
        # x = S_5 d *phi as one product with the flattened Lambda^2 g W Lambda^2 g
        self.dstar = np.zeros((21, 441))
        self.dstar[:, star] = self.d4[src] * sign[:, None]

    def metric(self, y):
        """g, the volume coefficient and W at phi = y (g2.metric_np)."""
        return metric_np(y)

    def torsion(self, y):
        """tau = -*d*phi, |tau|^2 and the volume coefficient at phi = y.

        Both stars come from the 21 x 21 matrix Lambda^2 g of g on 2-vectors,
        with no inverse.  W, the matrix of the 2-forms alpha, beta ->
        top(alpha ^ beta ^ phi), comes with g from the one product of y that
        gives b (metric), and alpha ^ beta ^ phi = <alpha ^ beta, *phi> vol gives
        *phi = Lambda^2 g W Lambda^2 g / vol at i < j < a < b.  On 5-forms
        * = (*_2)^-1 sends d*phi to -tau = Lambda^2 g x / vol, x = S_5 d*phi;
        and |tau|^2 vol = tau ^ *tau = -tau . x.  W is also the matrix of
        tau -> S_5 (tau ^ phi), so the guard tau ^ phi = d*phi reuses it; it
        is checked after S_5, which keeps its norms."""
        g, volc, w = self.metric(y)
        pairs = g.ravel()[self.lam2_idx]
        lam2 = (pairs[0, 0] * pairs[0, 1] - pairs[1, 0] * pairs[1, 1]).reshape(21, 21)
        dot = np.dot  # on these small operands ~1 us cheaper per product than @
        x = dot(self.dstar, dot(dot(lam2, w), lam2).ravel()) / volc
        tau = dot(lam2, x) / -volc
        res = dot(w, tau) - x
        if math.sqrt(dot(res, res)) > 1e-9 * max(1.0, math.sqrt(dot(x, x))):
            raise InconsistentTorsionError(
                "tau = -*d*phi fails tau wedge phi = d*phi along the flow")
        return tau, 0.0 - float(dot(tau, x)) / volc, volc  # +0.0 at zero torsion

    def rhs(self, y):
        """d tau at phi = y, and |tau|^2 for the sample taken there."""
        tau, tau_nsq, _ = self.torsion(y)
        return np.dot(self.d2, tau), tau_nsq

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
class FlowStats:
    """What the integrator did: steps, right-hand sides, step sizes, drift."""
    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float  # smallest and largest accepted step; the last is cut to t_end
    h_max: float
    max_closedness_drift: float  # max |d phi| over the samples


@dataclass(frozen=True)
class FlowTrajectory:
    algebra: LieAlgebra
    samples: tuple
    status: str  # "completed" | "blowup-approach"
    config: dict
    stats: FlowStats

    @property
    def times(self):
        return [s.t for s in self.samples]

    def final(self) -> FlowSample:
        return self.samples[-1]


def laplacian_flow(start: G2Structure, t_end: float, dt0: Optional[float] = None,
                   tol: float = 1e-9) -> FlowTrajectory:
    """Integrate d phi/dt = Delta phi from a closed positive structure.

    Each step is one Dormand-Prince 8(5,3) step of twelve new right-hand
    sides, the last at the new state, where it gives the sample its |tau|^2
    and is the next step's first stage (FSAL); the 8th-order solution
    advances.  With e5 and e3 the max norms of the gaps to the embedded 5th-
    and 3rd-order solutions per unit step, Hairer's combined estimate
    h e5^2 / sqrt(e5^2 + e3^2 / 100) is kept below tol * h, so tol bounds
    the error per unit time.  The estimate over h is O(h^7): with
    q = estimate / (tol h), an accepted step proposes the smaller of the
    factors 0.9 q^(-1/7) and Gustafsson's predictive
    0.9 (h / h_acc) (q_acc / q^2)^(1/7), (h_acc, q_acc) the previous accepted
    step with q_acc floored at 1e-2; a rejected step retries with
    0.9 q^(-1/7), and the step after a rejection does not grow.
    dt0 is the first step tried.  dt0=None chooses it from f_0 = f(phi_0):
    with h0 = min(0.01 |phi_0| / |f_0|, t_end) (max norms) and f_1 = f at
    phi_0 + h0 f_0, m = max(|f_0|, |f_1 - f_0| / h0) and the first step is
    min(100 h0, (0.01 tol / m)^(1/8)) (Hairer's starting step, order 8).  A
    probe point that is not positive shrinks h0 tenfold; every probe counts
    in rhs_evals.  A start with f_0 = 0 is a fixed point and steps straight
    to t_end.  Positivity lost inside a step rejects it, and the stages it
    took still count in rhs_evals.  The integrator stops early with status
    "blowup-approach" when |tau|^2 exceeds 1e12 at an accepted state, or when
    the step size underflows (h < 1e-13 max(1, t)) after the torsion grew; an
    underflow without torsion growth raises FlowStalled.  The last step, cut
    to reach t_end, is exempt from the underflow test, and the run ends once
    t is within 4 ulps of t_end.
    t_end, tol and a given dt0 must be finite and positive.
    """
    if not all(0 < x < math.inf for x in (t_end, tol, 1.0 if dt0 is None else dt0)):
        raise ValueError("t_end, dt0 and tol must be finite and positive")
    if not start.is_closed():  # exactly for a rational start
        raise NotClosedError("initial form is not closed")
    kernel = FlowKernel(start.algebra)
    y = start.phi.np_coeffs
    t = 0.0
    status = "completed"
    samples = []
    steps = []
    drift = 0.0

    def record(t_now, y_now, tau_nsq):
        nonlocal drift
        resid = kernel.closedness_residual(y_now)
        if not negligible(resid, np.max(np.abs(y_now)), 1e-8):
            raise ArithmeticError("closedness lost along the flow")
        drift = max(drift, resid)
        samples.append(FlowSample(
            t=t_now,
            phi=KForm(7, 3, y_now, FLOAT),
            tau_norm_sq=tau_nsq,
            scal=0.0 - 0.5 * tau_nsq,  # +0.0, not -0.0, at zero torsion
        ))

    k = np.empty((13, 35))  # the stages; k[0] is f at the accepted state
    k[0], tau_nsq = kernel.rhs(y)
    record(t, y, tau_nsq)
    evals, rejected = 1, 0
    if dt0 is not None:
        h = float(dt0)
    elif not k[0].any():
        h = t_end  # tau = 0: phi is a fixed point
    else:
        d1 = float(np.max(np.abs(k[0])))
        h0 = min(0.01 * float(np.max(np.abs(y))) / d1, t_end)
        while True:
            evals += 1
            try:
                f1 = kernel.rhs(y + h0 * k[0])[0]
                break
            except NotPositiveError:
                h0 *= 0.1
        m = max(d1, float(np.max(np.abs(f1 - k[0]))) / h0)
        h = min(100.0 * h0, (0.01 * tol / m) ** (1 / 8))
    just_rejected = False
    h_acc = q_acc = None  # the previous accepted step and its error ratio
    while t_end - t > 4 * math.ulp(t_end) and tau_nsq <= BLOWUP_TAU_SQ:
        if h < min(1e-13 * max(1.0, t), t_end - t):
            # the step size underflows exactly when the right-hand side becomes
            # singular at the requested tolerance: approaching finite-time blow-up;
            # relative to t, or a long run stalls on steps that no longer move t
            if samples[-1].tau_norm_sq <= max(10.0 * samples[0].tau_norm_sq, 1.0):
                raise FlowStalled("step size underflow at t=%g without torsion "
                                  "growth" % t)
            status = "blowup-approach"
            break
        h = min(h, t_end - t)
        try:
            for i in range(1, 13):
                # at i = 12 this is the 8th-order solution: the last row of A is b
                y_new = y + h * (_A[i, :i] @ k[:i])
                k[i], tau_new = kernel.rhs(y_new)
        except NotPositiveError:
            err = math.inf  # may be pure overshoot: a rejected step
        else:
            e5, e3 = np.abs(_E53 @ k[:12]).max(axis=1).tolist()
            # h e5^2 / sqrt(e5^2 + e3^2 / 100), without overflow or 0 / 0
            err = h * e5 / math.hypot(1.0, 0.1 * e3 / e5) if e5 else 0.0
        evals += i  # stages 1..i were evaluated
        q = err / (tol * h)
        if q <= 1.0:
            y, t, tau_nsq = y_new, t + h, tau_new
            if tau_nsq > BLOWUP_TAU_SQ:
                break  # the torsion guard reads the accepted state
            k[0] = k[12]
            record(t, y, tau_nsq)
            steps.append(h)
            factor = 1.0 if just_rejected else 2.0
            if q:
                factor = min(factor, 0.9 * q ** (-1 / 7))
                if h_acc is not None:  # Gustafsson's predictive controller
                    factor = min(factor, 0.9 * (h / h_acc) * (q_acc / q / q) ** (1 / 7))
            h_acc, q_acc = h, max(q, 1e-2)
            just_rejected = False
        else:
            factor = 0.9 * q ** (-1 / 7)
            rejected += 1
            just_rejected = True
        h *= max(factor, 0.1)
    if tau_nsq > BLOWUP_TAU_SQ:
        status = "blowup-approach"
    return FlowTrajectory(
        algebra=start.algebra,
        samples=tuple(samples),
        status=status,
        config={"t_end": t_end, "dt0": dt0, "tol": tol},
        stats=FlowStats(accepted=len(steps), rejected=rejected, rhs_evals=evals,
                        h_min=min(steps, default=0.0), h_max=max(steps, default=0.0),
                        max_closedness_drift=drift),
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
    c3 = big_a ** data.q3
    return ansatz_phi((big_a ** data.q1, big_a ** data.q2, c3, c3, c3, c3, c3))


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

@dataclass(frozen=True)
class AnsatzCoefficients:
    c: tuple
    closed_reduction: bool  # C7 = C6 = C5 = C4 = C2


def ansatz_coefficients(phi: KForm) -> Optional[AnsatzCoefficients]:
    """Extract (C1..C7) if phi is supported exactly on the ansatz monomials."""
    if phi.n != 7 or phi.k != 3:
        return None
    positions = [  # lexicographic positions of the ansatz monomials
        index_of(m) for m in ANSATZ_MONOMIALS
    ]
    scale = phi.max_abs()
    for pos, c in enumerate(phi.coeffs):
        if pos not in positions and not negligible(c, scale, 1e-12):
            return None
    cs = tuple(s * phi.coeffs[p] for p, s in zip(positions, ANSATZ_SIGNS))
    c2 = cs[1]
    closed = all(negligible(x - c2, c2) for x in cs[3:])
    return AnsatzCoefficients(c=cs, closed_reduction=closed)


def index_of(monomial) -> int:
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


def _character(lam) -> str:
    if negligible(lam):
        return "steady"
    return "shrinking" if lam < 0 else "expanding"


def algebraic_soliton_solve(struct: G2Structure) -> SolitonSolution:
    """Least-squares solve of d tau = lambda phi + (B act phi) over Der.

    In the rational backend the least-squares residual is exact, and the
    soliton is feasible exactly when it is zero.  In floats it is feasible
    when the residual is below 1e-8 |d tau|, infeasible above 1e-6 |d tau|,
    and the band in between raises AmbiguousResidualError so no false
    soliton claim can slip through.
    """
    tor = torsion(struct)
    basis = derivation_space(struct.algebra).basis
    if tor.dtau.is_zero():
        # the minimum-norm solution of A x = 0 is x = 0: steady, with B = 0
        lam = zero(struct.backend)
        return SolitonSolution(feasible=True, lam=lam,
                               derivation=Endo.zero(7, struct.backend),
                               residual=0.0, residual_ratio=0.0,
                               character=_character(lam), structure=struct,
                               coefficients=(lam,) * len(basis))
    target_norm = tor.dtau.norm_l2()
    if struct.backend == RATIONAL:
        cols = [struct.phi.coeffs] + [endo_action(b, struct.phi).coeffs for b in basis]
        x, res_sq = linalg.lstsq(linalg.transpose(cols), list(tor.dtau.coeffs))
        residual = math.sqrt(float(res_sq))
    else:
        basis = [b.to_float() for b in basis]
        a = np.array([struct.phi.np_coeffs]
                     + [endo_action(b, struct.phi).np_coeffs for b in basis]).T
        x, *_ = np.linalg.lstsq(a, tor.dtau.np_coeffs, rcond=None)
        residual = float(np.linalg.norm(a @ x - tor.dtau.np_coeffs))
        x = [float(c) for c in x]
    ratio = residual / target_norm if target_norm else 0.0
    if struct.backend == RATIONAL:
        feasible = res_sq == 0
    elif FEASIBLE_RATIO <= ratio < INFEASIBLE_RATIO:
        raise AmbiguousResidualError(
            "soliton residual ratio %.3g lies in the ambiguous band [1e-8, 1e-6)"
            % ratio)
    else:
        feasible = ratio < FEASIBLE_RATIO
    if not feasible:
        return SolitonSolution(feasible=False, lam=None, derivation=None,
                               residual=residual, residual_ratio=ratio,
                               character=None, structure=struct)
    lam, coeffs = x[0], tuple(x[1:])
    b_total = sum((c * b for c, b in zip(coeffs, basis) if c), Endo.zero(7, struct.backend))
    return SolitonSolution(feasible=True, lam=lam, derivation=b_total,
                           residual=residual, residual_ratio=ratio,
                           character=_character(lam),
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
    vol0 = kernel.metric(start.np_coeffs)[1]

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
