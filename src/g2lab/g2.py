"""Closed G2-structures on seven-dimensional Lie algebras.

A positive 3-form phi induces a metric and volume via
    g(X,Y) dV = (1/6) i_X phi wedge i_Y phi wedge phi,
and, when d phi = 0, an intrinsic torsion 2-form tau characterised by
    d(*phi) = tau wedge phi,   tau in the 14-dimensional component of Lambda^2.
With this module's convention Lambda^2_14 = {alpha : alpha wedge phi = -*alpha}
and ** = 1 in dimension 7, so tau is given by the closed identity
    tau = -*d*phi
(Bryant, "Some remarks on G2-structures", 2005), and the torsion equation
tau wedge phi = d*phi is kept as a guard.  From tau one gets the Ricci
tensor, the scalar curvature -|tau|^2/2, the Hodge Laplacian d tau of phi,
and the extremally-Ricci-pinched diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .exterior import (
    KForm,
    MetricData,
    basis_indices,
    basis_vector,
    hodge,
    interior,
    norm_sq,
    wedge,
)
from .liealg import LieAlgebra, ce_differential
from .scalars import FLOAT, RATIONAL, ExactBackendUnavailable, rational_nth_root

CHOLESKY_PIVOT_TOL = 1e-12


class NotPositiveError(ValueError):
    """The 3-form is not a positive G2-form."""


class NotClosedError(ValueError):
    """The operation requires a closed G2-structure."""


class InconsistentTorsionError(ArithmeticError):
    """tau = -*d*phi fails the torsion equation tau wedge phi = d*phi."""


class NotERPError(ValueError):
    """The structure is not extremally Ricci pinched."""


def adapted_phi(backend=RATIONAL) -> KForm:
    """The standard positive 3-form; its induced metric is the identity."""
    return KForm.from_terms(
        7, 3,
        {(1, 2, 7): 1, (3, 4, 7): 1, (5, 6, 7): 1,
         (1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1},
        backend,
    )


def _np_bilinear_tables():
    """Cached numpy tables for the fast float path of induced_bilinear."""
    if not hasattr(_np_bilinear_tables, "_cache"):
        from .exterior import interior_table, wedge_tensor

        mats = []
        table = interior_table(7, 3)
        for i in range(7):
            m = np.zeros((21, 35))
            for pos_in, pos_out, sign in table[i]:
                m[pos_out, pos_in] = sign
            mats.append(m)
        _np_bilinear_tables._cache = (
            np.stack(mats), wedge_tensor(7, 2, 2), wedge_tensor(7, 4, 3)[:, :, 0])
    return _np_bilinear_tables._cache


def induced_bilinear_np(y: np.ndarray) -> np.ndarray:
    """Float-backend induced bilinear form from a coefficient vector."""
    mats, w22, w43 = _np_bilinear_tables()
    iphi = mats @ y                          # (7, 21)
    q = np.einsum("abc,c->ab", w22, w43 @ y)  # (21, 21)
    b = (iphi @ q @ iphi.T) / 6.0
    return (b + b.T) / 2.0


def induced_bilinear(phi: KForm):
    """The symmetric bilinear form b with b_ij e^{1..7} = (1/6) i_i phi ^ i_j phi ^ phi."""
    if phi.n != 7 or phi.k != 3:
        raise ValueError("expected a 3-form on R^7")
    if phi.backend == FLOAT:
        return [list(row) for row in induced_bilinear_np(phi.np_coeffs).tolist()]
    iphi = [interior(basis_vector(7, i + 1, phi.backend), phi) for i in range(7)]
    b = [[None] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            top = wedge(wedge(iphi[i], iphi[j]), phi)
            c = top.coeffs[0] / 6
            b[i][j] = c
            b[j][i] = c
    return b


def positive_det_np(b: np.ndarray) -> Optional[float]:
    """det b if the float bilinear form b is positive-definite, else None.

    The float positivity rule: det b > 0, then a Cholesky factor L exists
    with min L_ii^2 > CHOLESKY_PIVOT_TOL * max(1, max |b_ii|).  The cheap
    determinant test comes first; it rejects most random search draws.
    """
    det_b = float(np.linalg.det(b))
    if det_b <= 0:
        return None
    try:
        l = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return None
    scale = max(1.0, float(np.max(np.abs(np.diagonal(b)))))
    if float(np.min(np.diagonal(l))) ** 2 <= CHOLESKY_PIVOT_TOL * scale:
        return None
    return det_b


def is_positive(alg_or_n, phi: KForm) -> bool:
    """True iff phi induces a positive-definite metric in the fixed orientation."""
    if phi.k != 3 or phi.n != 7:
        return False
    if phi.is_zero():
        return False
    if phi.backend == FLOAT:
        return positive_det_np(induced_bilinear_np(phi.np_coeffs)) is not None
    b = induced_bilinear(phi)
    return linalg.positive_det(b) is not None


def metric_from_phi(alg_or_n, phi: KForm) -> MetricData:
    """Metric and volume induced by a positive 3-form.

    Writes b_ij for the induced bilinear coefficients; the metric is
    (det b)^(-1/9) b and the volume coefficient (det b)^(1/9).  In the
    rational backend the ninth root must be exact, otherwise
    ExactBackendUnavailable asks the caller to convert to floats.
    """
    if phi.backend == RATIONAL:
        b = induced_bilinear(phi)
        det_b = linalg.positive_det(b)
        if det_b is None:
            raise NotPositiveError("not a positive 3-form")
        root = rational_nth_root(det_b, 9)
        if root is None:
            raise ExactBackendUnavailable(
                "(det b)^(1/9) is irrational; convert the form with to_float()")
        g = [[x / root for x in row] for row in b]
        vol = KForm.monomial(7, tuple(range(1, 8)), root)
        return MetricData(g, vol)
    b = induced_bilinear_np(phi.np_coeffs)
    det_b = positive_det_np(b)
    if det_b is None:
        raise NotPositiveError("not a positive 3-form")
    root = det_b ** (1.0 / 9.0)
    vol = KForm.monomial(7, tuple(range(1, 8)), root, backend=FLOAT)
    return MetricData((b / root).tolist(), vol)


@dataclass(frozen=True)
class TorsionData:
    tau: KForm
    tau_norm_sq: object
    dtau: KForm


@dataclass(frozen=True)
class CurvatureData:
    ric: tuple
    scal: object
    ric_eigenvalues: tuple


@dataclass(frozen=True)
class ERPDiagnostics:
    residual: float
    tau_norm_sq: float
    tau_cubed_zero: bool
    tau_tau_closed: bool
    star_tau_tau_closed: bool
    tau_tau_simple: bool
    annihilator_dim: int
    ric_matches_j_formula: bool
    ric_eigenvalue_pattern: bool

    @property
    def passed(self) -> bool:
        return (self.tau_cubed_zero and self.tau_tau_closed
                and self.star_tau_tau_closed and self.tau_tau_simple
                and self.ric_matches_j_formula and self.ric_eigenvalue_pattern)


class G2Structure:
    """A positive 3-form on a 7-dimensional Lie algebra with derived metric.

    The metric and volume are built at construction; the Hodge Gram tables
    are cached by the metric on first use.
    """

    def __init__(self, algebra: LieAlgebra, phi: KForm):
        if algebra.n != 7:
            raise ValueError("G2-structures need a 7-dimensional algebra")
        if phi.n != 7 or phi.k != 3:
            raise ValueError("phi must be a 3-form on R^7")
        self.algebra = algebra
        self.phi = phi
        self.metric = metric_from_phi(algebra, phi)
        self._torsion: Optional[TorsionData] = None

    @property
    def backend(self):
        return self.phi.backend

    def star(self, form: KForm) -> KForm:
        return hodge(self.metric, form)

    def d(self, form: KForm) -> KForm:
        return ce_differential(self.algebra, form)

    def closedness_residual(self):
        return self.d(self.phi).max_abs()

    def is_closed(self, tol=1e-10) -> bool:
        if self.backend == RATIONAL:
            return self.closedness_residual() == 0
        return self.closedness_residual() < tol

    def to_float(self) -> "G2Structure":
        if self.backend == FLOAT:
            return self
        return G2Structure(self.algebra, self.phi.to_float())

    def __repr__(self):
        return "G2Structure(%r, closed=%s)" % (self.algebra, self.is_closed())


# ---------------------------------------------------------------------------
# 2-form decomposition
# ---------------------------------------------------------------------------

def project_14(struct: G2Structure, alpha: KForm) -> KForm:
    """Projection of a 2-form onto the 14-dimensional component.

    Fixed points satisfy alpha wedge phi = -*alpha; the 7-dimensional
    complement (spanned by contractions of phi) has *(alpha wedge phi) = 2 alpha.
    """
    if alpha.k != 2 or alpha.n != 7:
        raise ValueError("expected a 2-form on R^7")
    star_part = struct.star(wedge(alpha, struct.phi))
    third = Fraction(1, 3) if struct.backend == RATIONAL else (1.0 / 3.0)
    return third * (2 * alpha - star_part)


def torsion_form(struct: G2Structure) -> TorsionData:
    """The intrinsic torsion 2-form of a closed structure.

    tau = -*d*phi.  The guard tau wedge phi = d*phi, exact in the rational
    backend and to 1e-9 relative l2 error in float, confirms both the
    torsion equation and tau in Lambda^2_14 (alpha wedge phi = -*alpha):
    a failure raises InconsistentTorsionError.
    """
    if struct.backend == RATIONAL:
        if struct.closedness_residual() != 0:
            raise NotClosedError("structure is not closed")
    elif struct.closedness_residual() >= 1e-10:
        raise NotClosedError("structure is not closed")
    dstar = struct.d(struct.star(struct.phi))
    tau = -struct.star(dstar)
    gap = wedge(tau, struct.phi) - dstar
    if struct.backend == RATIONAL:
        consistent = gap.is_zero()
    else:
        consistent = gap.norm_l2() <= 1e-9 * max(1.0, dstar.norm_l2())
    if not consistent:
        raise InconsistentTorsionError("tau = -*d*phi fails tau wedge phi = d*phi")
    tau_nsq = norm_sq(struct.metric, tau)
    return TorsionData(tau=tau, tau_norm_sq=tau_nsq, dtau=struct.d(tau))


def torsion(struct: G2Structure) -> TorsionData:
    if struct._torsion is None:
        struct._torsion = torsion_form(struct)
    return struct._torsion


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def j_map(struct: G2Structure, gamma: KForm):
    """Symmetric tensor j(gamma)(X,Y) = *(i_X phi wedge i_Y phi wedge gamma)."""
    if gamma.k != 3 or gamma.n != 7:
        raise ValueError("expected a 3-form on R^7")
    volc = struct.metric.vol_coeff
    iphi = [interior(basis_vector(7, i + 1, struct.backend), struct.phi)
            for i in range(7)]
    rows = [[None] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            top = wedge(wedge(iphi[i], iphi[j]), gamma)
            val = top.coeffs[0] / volc
            rows[i][j] = val
            rows[j][i] = val
    return tuple(tuple(r) for r in rows)


def _generalized_eigenvalues(ric, g) -> tuple:
    a = np.array([[float(x) for x in row] for row in ric])
    b = np.array([[float(x) for x in row] for row in g])
    l = np.linalg.cholesky(b)
    linv = np.linalg.inv(l)
    m = linv @ a @ linv.T
    return tuple(sorted(np.linalg.eigvalsh(m).tolist()))


def curvature(struct: G2Structure) -> CurvatureData:
    """Ricci tensor and scalar curvature of a closed structure.

    Ric = |tau|^2/4 g - (1/4) j(d tau - (1/2) *(tau wedge tau)); the scalar
    curvature is computed independently as -|tau|^2/2 and checked against the
    metric trace of Ric.
    """
    tor = torsion(struct)
    half = Fraction(1, 2) if struct.backend == RATIONAL else 0.5
    quarter = Fraction(1, 4) if struct.backend == RATIONAL else 0.25
    tt = wedge(tor.tau, tor.tau)
    arg = tor.dtau - half * struct.star(tt)
    j = j_map(struct, arg)
    g = struct.metric.g
    ric = tuple(
        tuple(quarter * tor.tau_norm_sq * g[i][k] - quarter * j[i][k]
              for k in range(7))
        for i in range(7)
    )
    scal = 0 - half * tor.tau_norm_sq  # not -half * x: zero torsion gives +0.0
    ginv = struct.metric.g_inv()
    trace = sum(ginv[i][k] * ric[i][k] for i in range(7) for k in range(7))
    tol = 1e-8 * max(1.0, abs(float(scal)))
    if abs(float(trace - scal)) > tol:
        raise ArithmeticError(
            "trace of Ric (%s) disagrees with -|tau|^2/2 (%s)" % (trace, scal))
    return CurvatureData(ric=ric, scal=scal,
                         ric_eigenvalues=_generalized_eigenvalues(ric, g))


def erp_residual(struct: G2Structure) -> float:
    """g-norm of d tau - (|tau|^2/6) phi - (1/6) *(tau wedge tau)."""
    tor = torsion(struct)
    sixth = Fraction(1, 6) if struct.backend == RATIONAL else (1.0 / 6.0)
    r = tor.dtau - (sixth * tor.tau_norm_sq) * struct.phi \
        - sixth * struct.star(wedge(tor.tau, tor.tau))
    return math.sqrt(float(norm_sq(struct.metric, r)))


def erp_diagnostics(struct: G2Structure) -> ERPDiagnostics:
    """Structural checks for extremally-Ricci-pinched structures.

    Requires a nonzero torsion form and a vanishing ERP residual.  Verifies
    that tau^3 = 0, that tau wedge tau and its star are closed, that
    tau wedge tau is simple (3-dimensional annihilator), that
    Ric = (1/12) j(*(tau wedge tau)), and the eigenvalue pattern
    (-|tau|^2/6 three times, 0 four times).
    """
    tor = torsion(struct)
    res = erp_residual(struct)
    if float(tor.tau_norm_sq) <= 1e-12 or res >= 1e-8:
        raise NotERPError("not ERP")
    tol = 1e-9
    tt = wedge(tor.tau, tor.tau)
    ttt = wedge(tt, tor.tau)
    star_tt = struct.star(tt)
    d_tt = struct.d(tt)
    d_star_tt = struct.d(star_tt)
    cols = []
    for i in range(7):
        cols.append(interior(basis_vector(7, i + 1, struct.backend), tt).coeffs)
    if struct.backend == RATIONAL:
        ann_dim = 7 - linalg.rank(linalg.transpose(cols))
    else:
        ann_dim = 7 - int(np.linalg.matrix_rank(np.array(cols, dtype=float).T,
                                                tol=1e-10))
    cur = curvature(struct)
    twelfth = Fraction(1, 12) if struct.backend == RATIONAL else (1.0 / 12.0)
    j_alt = j_map(struct, star_tt)
    ric_match = max(
        abs(float(cur.ric[i][k] - twelfth * j_alt[i][k]))
        for i in range(7) for k in range(7)
    ) < 1e-8
    lam = -float(tor.tau_norm_sq) / 6.0
    eigs = cur.ric_eigenvalues
    pattern = (all(abs(e - lam) < 1e-7 for e in eigs[:3])
               and all(abs(e) < 1e-7 for e in eigs[3:]))
    return ERPDiagnostics(
        residual=res,
        tau_norm_sq=float(tor.tau_norm_sq),
        tau_cubed_zero=float(ttt.max_abs()) < tol,
        tau_tau_closed=float(d_tt.max_abs()) < tol,
        star_tau_tau_closed=float(d_star_tt.max_abs()) < tol,
        tau_tau_simple=(ann_dim == 3),
        annihilator_dim=ann_dim,
        ric_matches_j_formula=ric_match,
        ric_eigenvalue_pattern=pattern,
    )


def hodge_laplacian_closed(struct: G2Structure) -> KForm:
    """Hodge Laplacian of a closed structure: d tau, checked against -d*d*phi."""
    tor = torsion(struct)
    alt = -1 * struct.d(struct.star(struct.d(struct.star(struct.phi))))
    diff = (tor.dtau - alt).max_abs()
    scale = max(1.0, float(tor.dtau.max_abs()))
    if float(diff) > 1e-9 * scale:
        raise ArithmeticError("d tau and -d*d*phi disagree: %s" % diff)
    return tor.dtau


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def closed_3form_basis(alg: LieAlgebra):
    """Exact basis of the kernel of d on 3-forms."""
    null = linalg.nullspace(alg.d_matrix(3), ncols=len(basis_indices(alg.n, 3)))
    return [KForm(alg.n, 3, v, RATIONAL) for v in null]


def search_closed_positive(alg: LieAlgebra, attempts=10000, seed=0,
                           initial: Optional[KForm] = None) -> Optional[KForm]:
    """Randomized search for a closed positive 3-form.

    Samples standard-normal coefficient combinations of a basis of ker(d)
    with a seeded generator and returns the first positive sample as a
    float-backend form, or None.  An optional initial candidate is tried
    first and returned unchanged.
    """
    if alg.n != 7:
        raise ValueError("search needs a 7-dimensional algebra")
    if initial is not None:
        closed = ce_differential(alg, initial).max_abs()
        ok = closed == 0 if initial.backend == RATIONAL else float(closed) < 1e-10
        if ok and is_positive(alg, initial):
            return initial
    kernel = closed_3form_basis(alg)
    if not kernel:
        return None
    rng = np.random.default_rng(seed)
    kernel_np = np.array([f.np_coeffs for f in kernel])
    for _ in range(attempts):
        y = kernel_np.T @ rng.standard_normal(len(kernel))
        if positive_det_np(induced_bilinear_np(y)) is not None:
            return KForm(7, 3, y, FLOAT)
    return None
