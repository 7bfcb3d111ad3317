"""Closed G2-structures on seven-dimensional Lie algebras.

A positive 3-form phi induces a metric and volume via
    g(X,Y) dV = (1/6) i_X phi wedge i_Y phi wedge phi,
that is Omega W Omega^T / 6 (rows of Omega: i_{e_i} phi; W: alpha, beta ->
top(alpha wedge beta wedge phi)), both gathered from phi by one signed table: in
floats by one take, exactly by a sparse sum that also gives j(gamma) for the Ricci
tensor and the diagonal cubics that screen the search (_wedge_table).  When
d phi = 0 there is an intrinsic torsion 2-form tau characterised by
    d(*phi) = tau wedge phi,   tau in the 14-dimensional component of Lambda^2.
With this module's convention Lambda^2_14 = {alpha : alpha wedge phi = -*alpha}
and ** = 1 in dimension 7, so tau is given by the closed identity
    tau = -*d*phi
(Bryant, "Some remarks on G2-structures", 2005), and the torsion equation
tau wedge phi = d*phi is kept as a guard: exactly for rationals, and to 1e-9
relative l2 error in FlowKernel.torsion, the one float torsion kernel, which
the flow also runs on (no inverse, no determinant).  From tau one gets the Ricci
tensor, the scalar curvature -|tau|^2/2, the Hodge Laplacian d tau of phi,
and the extremally-Ricci-pinched diagnostics.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Optional

import numpy as np

from . import linalg
from .exterior import (
    KForm,
    MetricData,
    basis_indices,
    basis_vector,
    complement_table,
    hodge,
    identity_holds,
    index_position,
    interior,
    interior_table,
    norm_sq,
    wedge,
    wedge_pairs,
)
from .liealg import LieAlgebra, ce_differential
from .linalg import CHOLESKY_PIVOT_TOL, positive_det_np  # noqa: F401 (re-exported)
from .scalars import (
    FLOAT,
    RATIONAL,
    ExactBackendUnavailable,
    negligible,
    rational_nth_root,
    require_same_backend,
)

#: search draws in the first block of search_closed_positive; later blocks double
SEARCH_BLOCK = 256


class NotPositiveError(ValueError):
    """The 3-form is not a positive G2-form."""


class NotClosedError(ValueError):
    """The operation requires a closed G2-structure."""


class InconsistentTorsionError(ArithmeticError):
    """tau = -*d*phi fails the torsion equation tau wedge phi = d*phi."""


class NotERPError(ValueError):
    """The structure is not extremally Ricci pinched."""


#: the monomials and signs of the standard 3-form omega ^ e^7 + psi
ANSATZ_MONOMIALS = ((1, 2, 7), (3, 4, 7), (5, 6, 7),
                    (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
ANSATZ_SIGNS = (1, 1, 1, 1, -1, -1, -1)


def ansatz_phi(coeffs, backend=FLOAT) -> KForm:
    """sum C_i s_i e^{m_i} over the ANSATZ_MONOMIALS m_i and ANSATZ_SIGNS s_i."""
    terms = {m: s * c for m, s, c in zip(ANSATZ_MONOMIALS, ANSATZ_SIGNS, coeffs)}
    return KForm.from_terms(7, 3, terms, backend)


def adapted_phi(backend=RATIONAL) -> KForm:
    """The standard positive 3-form; its induced metric is the identity."""
    return ansatz_phi((1,) * 7, backend)


@lru_cache(maxsize=None)
def _wedge_table():
    """(src, sign): entry m of W (0-440, the 21 x 21 W[r, a] = top(e^r ^ e^a ^ phi))
    and Omega (441-587, the 7 x 21 matrix of rows i_{e_i} phi) of the 3-form y is
    sign[m] * y[src[m]]; 315 entries are nonzero, and src is 0 where sign is."""
    src, sign = np.zeros(588, int), np.zeros(588)
    cpos, csign = np.array(complement_table(7, 5)).T  # e^c ^ e^{c'} = csign[c] vol
    for (a, q), (c, s) in wedge_pairs(7, 2, 3).items():
        src[21 * cpos[c] + a], sign[21 * cpos[c] + a] = q, s * csign[c]
    a, q, s = np.array(interior_table(7, 3)).transpose(2, 0, 1)  # i_i e^a = s e^q
    m = 441 + 21 * np.arange(7)[:, None] + q
    src[m], sign[m] = a, s
    src.flags.writeable = sign.flags.writeable = False  # shared by every caller
    return src, sign


@lru_cache(maxsize=None)
def _wedge_terms():
    """Per coefficient a of y, its nonzero entries of _wedge_table as Python ints
    (row, column, sign): those of W in the first list, of Omega in the second."""
    src, sign = _wedge_table()
    terms = [[] for _ in range(35)], [[] for _ in range(35)]
    for m in np.flatnonzero(sign).tolist():
        terms[m >= 441][src[m]].append((*divmod(m % 441, 21), int(sign[m])))
    return terms


#: per (i, j), the flat position of entry (min(i, j), max(i, j)) of a 7 x 7 matrix
_UPPER = np.array([7 * min(i, j) + max(i, j) for i in range(7) for j in range(7)])


def _wedge_and_bilinear(y):
    """W and b = Omega W Omega^T / 6 of the 3-form y, from one gather of
    _wedge_table; b is read from its upper triangle, so it is exactly symmetric."""
    src, sign = _wedge_table()
    wo = y.take(src) * sign
    w, om = wo[:441].reshape(21, 21), wo[441:].reshape(7, 21)
    b = np.dot(np.dot(om, w), om.T) / 6
    return w, b.take(_UPPER).reshape(7, 7)


def induced_bilinear_np(y: np.ndarray) -> np.ndarray:
    """Float induced bilinear form of the 3-form with coefficients y: (35,) -> (7, 7).

    b_ij vol = (1/6) i_i phi ^ i_j phi ^ phi = (1/6) Omega_i W Omega_j^T, with W
    and Omega gathered from y by _wedge_table.  On 300 GL(7) images A* phi_std at
    cond(A) = 1e4 its worst error is 2.2e-10 of max |b|.
    """
    return _wedge_and_bilinear(y)[1]


def _sandwich(y, z, scale, backend):
    """The symmetric rows of Omega(y) W(z) Omega(y)^T / scale (_wedge_terms), walking
    only nonzero (q, r) pairs: M = Omega W takes each nonzero Omega_iq along the
    nonzero W_qr of row q, then entry (i, j), i <= j, sums M_ir Omega_jr over the
    nonzero Omega_jr (float sums run in the order of y's nonzeros).  Exact
    rationals are Python ints over one common denominator, the lcm of each form's
    denominators, folded into scale."""
    exact = backend == RATIONAL
    ys, zs = ([(a, x) for a, x in enumerate(f) if x] for f in (y, z))
    if exact:
        dens = [math.lcm(*(x.denominator for _, x in f)) for f in (ys, zs)]
        ys, zs = ([(a, x.numerator * (d // x.denominator)) for a, x in f]
                  for f, d in zip((ys, zs), dens))
        scale = Fraction(scale) * dens[0] ** 2 * dens[1]
    w_terms, om_terms = _wedge_terms()
    w = [[] for _ in range(21)]  # per row q, the nonzero (r, W_qr)
    for a, x in zs:
        for q, r, s in w_terms[a]:
            w[q].append((r, s * x))
    om = [(i, q, s * x) for a, x in ys for i, q, s in om_terms[a]]
    m = [[0] * 21 for _ in range(7)]  # Omega W
    for i, q, x in om:
        for r, u in w[q]:
            m[i][r] += x * u
    out = [[0] * 7 for _ in range(7)]
    for j, r, x in om:
        for i in range(j + 1):
            out[i][j] += m[i][r] * x
    for i in range(7):
        for j in range(i, 7):
            t = out[i][j]  # t / scale; a Fraction is normalised once, by the constructor
            out[i][j] = out[j][i] = (Fraction(t * scale.denominator, scale.numerator)
                                     if exact else t / scale)
    return out


def induced_bilinear(phi: KForm):
    """The symmetric bilinear form b with b_ij e^{1..7} = (1/6) i_i phi ^ i_j phi ^ phi."""
    if phi.n != 7 or phi.k != 3:
        raise ValueError("expected a 3-form on R^7")
    return _sandwich(phi.coeffs, phi.coeffs, 6, phi.backend)


def metric_np(y: np.ndarray):
    """The float metric b / (det b)^(1/9), the volume coefficient (det b)^(1/9)
    and W of the 3-form with coefficients y, from one gather (_wedge_table);
    NotPositiveError unless the form is positive."""
    w, b = _wedge_and_bilinear(y)
    det_b = positive_det_np(b)
    if det_b is None:
        raise NotPositiveError("not a positive 3-form")
    volc = det_b ** (1.0 / 9.0)
    return b / volc, volc, w


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
    g, volc, _ = metric_np(phi.np_coeffs)
    return MetricData(g.tolist(), KForm.monomial(7, tuple(range(1, 8)), volc, backend=FLOAT))


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

    @cached_property
    def _star_tau_tau(self) -> KForm:
        """*(tau ^ tau), computed once like torsion(self)."""
        tau = torsion(self).tau
        return self.star(wedge(tau, tau))

    def closedness_residual(self):
        return self.d(self.phi).max_abs()

    def is_closed(self, tol=1e-10) -> bool:
        """d phi = 0: exactly, or max |d phi| <= tol max(1, max |phi|) in float."""
        return negligible(self.closedness_residual(), self.phi.max_abs(), tol)

    def to_float(self) -> "G2Structure":
        if self.backend == FLOAT:
            return self
        return G2Structure(self.algebra, self.phi.to_float())

    def __repr__(self):
        return "G2Structure(%r, closed=%s)" % (self.algebra, self.is_closed())


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
    """Vectorised evaluation of phi -> d tau(phi) on a fixed 7-dim algebra; its
    torsion is the float tau of torsion_form as well as of the flow."""

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
        """g, the volume coefficient and W at phi = y (metric_np)."""
        return metric_np(y)

    def torsion(self, y):
        """tau = -*d*phi, |tau|^2 and the volume coefficient at phi = y.

        Both stars come from the 21 x 21 matrix Lambda^2 g of g on 2-vectors,
        with no inverse.  W, the matrix of the 2-forms alpha, beta ->
        top(alpha ^ beta ^ phi), comes with g from the one gather of y that
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
                "tau = -*d*phi fails tau wedge phi = d*phi")
        return tau, 0.0 - float(dot(tau, x)) / volc, volc  # +0.0 at zero torsion

    def rhs(self, y):
        """d tau at phi = y, and |tau|^2 for the sample taken there."""
        tau, tau_nsq, _ = self.torsion(y)
        return np.dot(self.d2, tau), tau_nsq

    def closedness_residual(self, y) -> float:
        return float(np.max(np.abs(self.d3 @ y)))


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
    return Fraction(1, 3) * (2 * alpha - star_part)


def torsion_form(struct: G2Structure) -> TorsionData:
    """The intrinsic torsion 2-form of a closed structure.

    tau = -*d*phi.  The guard tau wedge phi = d*phi confirms both the
    torsion equation and tau in Lambda^2_14 (alpha wedge phi = -*alpha): a
    failure raises InconsistentTorsionError.  Exact structures take the stars,
    the guard (exact) and |tau|^2 from the metric; float ones take tau and
    |tau|^2 from FlowKernel.torsion, the flow's kernel, whose guard allows
    1e-9 relative l2 error.
    """
    if not struct.is_closed():
        raise NotClosedError("structure is not closed")
    if struct.backend == FLOAT:
        tau, tau_nsq, _ = FlowKernel(struct.algebra).torsion(struct.phi.np_coeffs)
        tau = KForm(7, 2, tau, FLOAT)
    else:
        dstar = struct.d(struct.star(struct.phi))
        tau = -struct.star(dstar)
        if not identity_holds(wedge(tau, struct.phi) - dstar, dstar):
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
    return tuple(map(tuple, _sandwich(struct.phi.coeffs, gamma.coeffs, struct.metric.vol_coeff,
                                      require_same_backend(struct.backend, gamma.backend))))


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
    metric trace of Ric, exactly in the rational backend.
    """
    tor = torsion(struct)
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    arg = tor.dtau - half * struct._star_tau_tau
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
    if not negligible(trace - scal, scal, 1e-8):
        raise ArithmeticError(
            "trace of Ric (%s) disagrees with -|tau|^2/2 (%s)" % (trace, scal))
    return CurvatureData(ric=ric, scal=scal,
                         ric_eigenvalues=_generalized_eigenvalues(ric, g))


def erp_residual(struct: G2Structure) -> float:
    """g-norm of d tau - (|tau|^2/6) phi - (1/6) *(tau wedge tau)."""
    tor = torsion(struct)
    sixth = Fraction(1, 6)
    r = tor.dtau - (sixth * tor.tau_norm_sq) * struct.phi \
        - sixth * struct._star_tau_tau
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
    tt = wedge(tor.tau, tor.tau)
    ttt = wedge(tt, tor.tau)
    star_tt = struct._star_tau_tau
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
    j_alt = j_map(struct, star_tt)
    ric_match = all(negligible(cur.ric[i][k] - Fraction(1, 12) * j_alt[i][k], tol=1e-8)
                    for i in range(7) for k in range(7))
    lam = -float(tor.tau_norm_sq) / 6.0
    eigs = cur.ric_eigenvalues
    pattern = (all(abs(e - lam) < 1e-7 for e in eigs[:3])
               and all(abs(e) < 1e-7 for e in eigs[3:]))
    return ERPDiagnostics(
        residual=res,
        tau_norm_sq=float(tor.tau_norm_sq),
        tau_cubed_zero=negligible(ttt.max_abs()),
        tau_tau_closed=negligible(d_tt.max_abs()),
        star_tau_tau_closed=negligible(d_star_tt.max_abs()),
        tau_tau_simple=(ann_dim == 3),
        annihilator_dim=ann_dim,
        ric_matches_j_formula=ric_match,
        ric_eigenvalue_pattern=pattern,
    )


def hodge_laplacian_closed(struct: G2Structure) -> KForm:
    """Hodge Laplacian of a closed structure: d tau, checked against -d*d*phi
    (exactly in the rational backend)."""
    tor = torsion(struct)
    alt = -1 * struct.d(struct.star(struct.d(struct.star(struct.phi))))
    diff = (tor.dtau - alt).max_abs()
    if not negligible(diff, tor.dtau.max_abs()):
        raise ArithmeticError("d tau and -d*d*phi disagree: %s" % diff)
    return tor.dtau


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def closed_3form_basis(alg: LieAlgebra):
    """Exact basis of the kernel of d on 3-forms, from the sparse rows of d."""
    rows = [{} for _ in basis_indices(alg.n, 4)]
    for col, entries in enumerate(alg.d_columns(3)):
        for r, c in entries:
            rows[r][col] = c
    null = linalg.nullspace(rows, ncols=len(basis_indices(alg.n, 3)))
    return [KForm(alg.n, 3, v, RATIONAL) for v in null]


@lru_cache(maxsize=None)
def _diagonal_terms():
    """The 105 terms (i, a, b, c, k), a <= b <= c, of b_ii = sum k y_a y_b y_c, 15
    per i, k = +-1: sum_qr Omega_iq W_qr Omega_ir / 6 from _wedge_table, merged
    per (i, a, b, c) in lexicographic order."""
    src, sign = (x.tolist() for x in _wedge_table())
    sums = Counter()
    for i, q, r in np.ndindex(7, 21, 21):
        m = (441 + 21 * i + q, 21 * q + r, 441 + 21 * i + r)  # Omega_iq, W_qr, Omega_ir
        sums[(i, *sorted(src[x] for x in m))] += int(sign[m[0]] * sign[m[1]] * sign[m[2]])
    return tuple((*key, Fraction(k, 6)) for key, k in sorted(sums.items()) if k)


def _search_cubics(alg: LieAlgebra):
    """(float kernel rows, cubics, stages) of the search, built once per algebra.

    cubics[i] = {(k1, k2, k3): Fraction}, k1 <= k2 <= k3, is p_i(x) = b_ii(sum_k x_k v_k)
    over the closed_3form_basis v: the 105 terms of _diagonal_terms expanded over
    the kernel columns.  stages are the nonzero p_i, sparsest first, as
    ((k1, k2, k3) index arrays, float coefficients).
    """
    if alg._search_cubics is None:
        kernel = closed_3form_basis(alg)
        cols = [[(m, v.coeffs[a]) for m, v in enumerate(kernel) if v.coeffs[a]]
                for a in range(35)]
        cubics = [Counter() for _ in range(7)]
        for i, a, b, c, k in _diagonal_terms():
            for m1, v1 in cols[a]:
                for m2, v2 in cols[b]:
                    for m3, v3 in cols[c]:
                        cubics[i][tuple(sorted((m1, m2, m3)))] += k * v1 * v2 * v3
        cubics = [{key: c for key, c in p.items() if c} for p in cubics]
        stages = [(np.array(list(p)).T, np.array(list(p.values()), float))
                  for p in sorted(filter(None, cubics), key=len)]
        alg._search_cubics = (np.array([f.np_coeffs for f in kernel]), cubics, stages)
    return alg._search_cubics


def search_closed_positive(alg: LieAlgebra, attempts=10000, seed=0,
                           initial: Optional[KForm] = None) -> Optional[KForm]:
    """Randomized search for a closed positive 3-form.

    Samples standard-normal coefficient combinations x of a basis of ker(d)
    with a seeded generator and returns the first positive sample as a
    float-backend form, or None.  An optional initial candidate is tried
    first and returned unchanged.  If a diagonal cubic p_i = b_ii on ker d
    (_search_cubics) is zero, no closed form is positive: None, without drawing.
    Otherwise draws come in blocks of SEARCH_BLOCK, doubling up to
    8 * SEARCH_BLOCK; each p_i in turn drops a draw only if
    p_i(x) < -1e-8 * 15 K^3 |x|_inf^3, K = max_a sum_k |kernel_ka|, a bound on the
    |terms| of b_ii both in x and in y = kernel^T x, so a form the serial rule
    accepts (b_ii > 0) is kept up to rounding near 1e-15 of it.  The survivors
    are tested in draw order with the serial rule positive_det_np, so the first
    hit is the one a draw-by-draw loop returns.
    """
    if alg.n != 7:
        raise ValueError("search needs a 7-dimensional algebra")
    if initial is not None:
        residual = ce_differential(alg, initial).max_abs()
        if negligible(residual, initial.max_abs(), 1e-10) and is_positive(alg, initial):
            return initial
    kernel, cubics, stages = _search_cubics(alg)
    if len(stages) < 7:
        logging.getLogger(__name__).debug(
            "%s: b_ii is zero on ker d for i in %s, so no closed form is positive",
            alg.name, [i for i, p in enumerate(cubics) if not p])
        return None
    rng = np.random.default_rng(seed)
    bound = 1e-8 * 15 * np.abs(kernel).sum(axis=0).max() ** 3
    start, size = 0, SEARCH_BLOCK
    while start < attempts:
        xs = rng.standard_normal((min(size, attempts - start), len(kernel)))
        start, size = start + len(xs), min(2 * size, 8 * SEARCH_BLOCK)
        # |x|_inf by columns: half the time of np.abs(xs).max(axis=1) on 2048-draw blocks
        margin = -bound * reduce(np.maximum, map(np.abs, xs.T)) ** 3
        for (a, b, c), coef in stages:
            keep = (xs[:, a] * xs[:, b] * xs[:, c]) @ coef >= margin
            xs, margin = xs[keep], margin[keep]
        for x in xs:
            y = kernel.T @ x
            if positive_det_np(induced_bilinear_np(y)) is not None:
                return KForm(7, 3, y, FLOAT)
    return None
