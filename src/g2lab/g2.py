"""Closed G2-structures on seven-dimensional Lie algebras.

A positive 3-form phi induces a metric and volume via
    g(X,Y) dV = (1/6) i_X phi wedge i_Y phi wedge phi,
a cubic form in the coefficients of phi kept once, as one table of signed
monomials that also gives j(gamma) for the Ricci tensor and the diagonal cubics
that screen the search (_cubic_table), and, when d phi = 0, an intrinsic torsion
2-form tau characterised by
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

import logging
import math
from collections import Counter, namedtuple
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
    hodge,
    identity_holds,
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
    zero,
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


_CubicTable = namedtuple("_CubicTable", "j b idx coef starts sym")


@lru_cache(maxsize=None)
def _cubic_table() -> _CubicTable:
    """The one table of b and j, summed from the interior and wedge tables.

    j lists the 2 205 terms (i, j, a, b, c, k), i <= j, a <= b, k = +-1, +-2, of
    top(i_i phi ^ i_j phi ^ gamma) = sum k y_a y_b gamma_c.  b lists the 735 terms of
    b_ij = sum k y_a y_b y_c, a <= b <= c, k = +-1, +-1/2: j at gamma = phi over 6,
    summed over the orderings of (a, b, c); the 105 diagonal (Pfaffian) terms come
    first, 15 per i, then 30 per i < j.  As arrays, idx (3, 735) and coef hold b's
    (a, b, c) and k, starts the first row of each entry i <= j, and sym (49,) the
    entry of each (i, j).
    """
    a, q, s = np.array(interior_table(7, 3)).transpose(2, 0, 1)  # (7, 15) each
    at, st = np.zeros((2, 7, 21), int)  # i_i phi = sum s y_a e^q: a and s at [i, q]
    at[np.arange(7)[:, None], q], st[np.arange(7)[:, None], q] = a, s
    top = {r: (c, s) for (r, c), (_, s) in wedge_pairs(7, 4, 3).items()}
    q1, q2, c, k = np.array([(q1, q2, top[r][0], s * top[r][1])
                             for (q1, q2), (r, s) in wedge_pairs(7, 2, 2).items()]).T
    i, j = (x[:, None] for x in np.triu_indices(7))
    k = k * st[i, q1] * st[j, q2]  # one term per entry i <= j and pair (q1, q2)
    a1, a2 = at[i, q1], at[j, q2]

    def summed(*key):  # the nonzero sums of k per key, keys in lexicographic order
        dims = (7, 7, 35, 35, 35)
        key, inverse = np.unique(np.ravel_multi_index(key, dims), return_inverse=True)
        sums = np.bincount(inverse.ravel(), k.ravel()).astype(int)
        key = np.unravel_index(key[sums != 0], dims)
        return np.transpose(key).tolist(), sums[sums != 0].tolist()

    jt = summed(i, j, np.minimum(a1, a2), np.maximum(a1, a2), c)
    bt = summed(i, j, *np.sort(np.broadcast_arrays(a1, a2, c), axis=0))
    sixths = {x: Fraction(x, 6) for x in set(bt[1])}
    b = sorted(((*key, sixths[x]) for key, x in zip(*bt)), key=lambda t: t[0] != t[1])
    ij = [t[:2] for t in b]
    cells = list(dict.fromkeys(ij))  # the 28 entries i <= j in table order
    coef = np.array([t[5] for t in b], float)
    table = _CubicTable(
        tuple((*key, x) for key, x in zip(*jt)), tuple(b),
        np.array([t[2:5] for t in b]).T, coef, np.array([ij.index(e) for e in cells]),
        np.array([cells.index((min(i, j), max(i, j))) for i in range(7) for j in range(7)]))
    for array in table[2:]:
        array.flags.writeable = False  # shared by every caller of the cache
    return table


def induced_bilinear_np(y: np.ndarray) -> np.ndarray:
    """Float induced bilinear form of the 3-form with coefficients y: (35,) -> (7, 7).

    The 735 terms k y_a y_b y_c of _cubic_table by one gather, summed per entry
    in table order by np.add.reduceat; that order sets the rounding, which
    matters because b's entries cancel to 1e-14 of their terms.
    """
    table = _cubic_table()
    a, b, c = table.idx
    entries = np.add.reduceat(y[a] * y[b] * y[c] * table.coef, table.starts)
    return entries[table.sym].reshape(7, 7)


def _contract(terms, y, z, acc):
    """The symmetric rows acc + sum k y_a y_b z_c over (i, j, a, b, c, k) terms of
    _cubic_table whose a, b and c index nonzeros of y and z."""
    rows = [[acc] * 7 for _ in range(7)]
    ny = {a for a, x in enumerate(y) if x}
    nz = {c for c, x in enumerate(z) if x}
    for i, j, a, b, c, k in terms:
        if a in ny and b in ny and c in nz:
            rows[i][j] += k * y[a] * y[b] * z[c]
    return [[rows[min(i, j)][max(i, j)] for j in range(7)] for i in range(7)]


def induced_bilinear(phi: KForm):
    """The symmetric bilinear form b with b_ij e^{1..7} = (1/6) i_i phi ^ i_j phi ^ phi."""
    if phi.n != 7 or phi.k != 3:
        raise ValueError("expected a 3-form on R^7")
    return _contract(_cubic_table().b, phi.coeffs, phi.coeffs, zero(phi.backend))


def metric_np(y: np.ndarray):
    """The float metric b / (det b)^(1/9) and volume coefficient (det b)^(1/9)
    of the 3-form with coefficients y; NotPositiveError unless it is positive."""
    b = induced_bilinear_np(y)
    det_b = positive_det_np(b)
    if det_b is None:
        raise NotPositiveError("not a positive 3-form")
    volc = det_b ** (1.0 / 9.0)
    return b / volc, volc


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
    g, volc = metric_np(phi.np_coeffs)
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

    tau = -*d*phi.  The guard tau wedge phi = d*phi, exact in the rational
    backend and to 1e-9 relative l2 error in float, confirms both the
    torsion equation and tau in Lambda^2_14 (alpha wedge phi = -*alpha):
    a failure raises InconsistentTorsionError.
    """
    if not struct.is_closed():
        raise NotClosedError("structure is not closed")
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
    rows = _contract(_cubic_table().j, struct.phi.coeffs, gamma.coeffs,
                     zero(require_same_backend(struct.backend, gamma.backend)))
    return tuple(tuple(x / struct.metric.vol_coeff for x in r) for r in rows)


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


def _search_cubics(alg: LieAlgebra):
    """(float kernel rows, cubics, stages) of the search, built once per algebra.

    cubics[i] = {(k1, k2, k3): Fraction}, k1 <= k2 <= k3, is p_i(x) = b_ii(sum_k x_k v_k)
    over the closed_3form_basis v: the 105 diagonal rows of _cubic_table expanded
    over the kernel columns.  stages are the nonzero p_i, sparsest first, as
    ((k1, k2, k3) index arrays, float coefficients).
    """
    if alg._search_cubics is None:
        kernel = closed_3form_basis(alg)
        cols = [[(m, v.coeffs[a]) for m, v in enumerate(kernel) if v.coeffs[a]]
                for a in range(35)]
        cubics = [Counter() for _ in range(7)]
        for i, _, a, b, c, k in _cubic_table().b[:105]:
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
