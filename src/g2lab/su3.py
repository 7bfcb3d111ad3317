"""SU(3)-structures on six-dimensional Lie algebras.

An SU(3)-structure is determined by a non-degenerate 2-form omega and a
stable 3-form psi subject to compatibility (omega wedge psi = 0) and the
normalisation 3 psi wedge psi_hat = 2 omega^3.  The almost-complex structure
J is reconstructed from psi alone via its quadratic invariant, psi_hat is the
imaginary counterpart of psi, and g = omega(., J.).

Torsion classes handled here: symplectic half-flat (d omega = 0 = d psi),
coupled (d omega = c psi with c != 0), generic otherwise.  For coupled and
half-flat structures the remaining torsion is the primitive (1,1)-form w2
with d psi_hat = -(2c/3) omega^2 + w2 wedge omega.

Rank-one extensions by a derivation D carry the 3-form
phi = omega wedge eta + psi, which is a closed G2-structure precisely when
d omega = -(D act psi) and d psi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .exterior import (
    Endo,
    KForm,
    MetricData,
    basis_indices,
    basis_vector,
    endo_action,
    interior,
    norm_sq,
    wedge,
)
from .g2 import G2Structure
from .liealg import (
    LieAlgebra,
    _extension_structure,
    ce_differential,
    derivation_equations,
    is_derivation,
    rank_one_extension,
)
from .scalars import FLOAT, RATIONAL, ExactBackendUnavailable, rational_nth_root

ZERO = Fraction(0)


class SU3ConstructionError(ValueError):
    """The pair (omega, psi) does not define an SU(3)-structure."""


def adapted_su3_pair(backend=RATIONAL):
    """The standard pair: omega = e^12+e^34+e^56, psi = Re of the (3,0)-form."""
    omega = KForm.from_terms(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1}, backend)
    psi = KForm.from_terms(
        6, 3, {(1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1}, backend)
    return omega, psi


def adapted_psi_hat(backend=RATIONAL) -> KForm:
    return KForm.from_terms(
        6, 3, {(1, 3, 6): 1, (1, 4, 5): 1, (2, 3, 5): 1, (2, 4, 6): -1}, backend)


def stable_form_endomorphism(psi: KForm):
    """Matrix K with K(X) = A(i_X psi wedge psi), A the canonical 5-form/vector pairing.

    The quadratic invariant of psi is lam = tr(K^2)/6; psi is stable with
    complex type iff lam < 0, in which case K^2 = lam * Id and J = K/sqrt(-lam).
    """
    if psi.n != 6 or psi.k != 3:
        raise ValueError("expected a 3-form on R^6")
    comp5 = [tuple(j for j in range(6) if j != i) for i in range(6)]
    rows = [[None] * 6 for _ in range(6)]
    for i in range(6):
        rho = wedge(interior(basis_vector(6, i + 1, psi.backend), psi), psi)
        for j in range(6):
            c = rho.coeff(tuple(x + 1 for x in comp5[j]))
            rows[j][i] = ((-1) ** j) * c
    return rows


def reconstruct_su3(alg: LieAlgebra, omega: KForm, psi: KForm) -> "SU3Structure":
    """Build the full SU(3)-structure determined by (omega, psi).

    Raises SU3ConstructionError with one of the messages "omega degenerate",
    "psi not stable", "incompatible pair", "metric not positive".
    """
    if omega.n != 6 or omega.k != 2 or psi.n != 6 or psi.k != 3:
        raise ValueError("expected a 2-form and a 3-form on R^6")
    backend = omega.backend
    if backend != psi.backend:
        raise ValueError("omega and psi must share a backend")
    om3 = wedge(wedge(omega, omega), omega)
    if _is_small(om3.coeffs[0], backend):
        raise SU3ConstructionError("omega degenerate")

    k = stable_form_endomorphism(psi)
    if backend == RATIONAL:
        ksq = linalg.matmul(k, k)
        lam = sum((ksq[i][i] for i in range(6)), ZERO) / 6
        if lam >= 0 or any(ksq[i][j] != (lam if i == j else 0)
                           for i in range(6) for j in range(6)):
            raise SU3ConstructionError("psi not stable")
        root = rational_nth_root(-lam, 2)
        if root is None:
            raise ExactBackendUnavailable(
                "sqrt(-lambda) is irrational; convert the pair with to_float()")
        j_rows = [[k[i][m] / root for m in range(6)] for i in range(6)]
    else:
        karr = np.array(k, dtype=float)
        ksq = karr @ karr
        lam = float(np.trace(ksq)) / 6.0
        scale = max(1.0, float(np.max(np.abs(ksq))))
        if lam >= -1e-12 * scale or np.max(np.abs(ksq - lam * np.eye(6))) > 1e-9 * scale:
            raise SU3ConstructionError("psi not stable")
        j_rows = (karr / np.sqrt(-lam)).tolist()

    if not _form_small(wedge(omega, psi), backend):
        raise SU3ConstructionError("incompatible pair")

    omega_matrix = [[omega.value((i + 1, m + 1)) for m in range(6)] for i in range(6)]
    g_rows = linalg.matmul(omega_matrix, j_rows) if backend == RATIONAL else \
        (np.array(omega_matrix, dtype=float) @ np.array(j_rows)).tolist()
    sign = _definiteness_sign(g_rows, backend)
    if sign == 0:
        raise SU3ConstructionError("metric not positive")
    if sign < 0:
        j_rows = [[-x for x in row] for row in j_rows]
        g_rows = [[-x for x in row] for row in g_rows]
    j_endo = Endo(j_rows, backend)

    psi_hat = _apply_j_first_slot(psi, j_rows, backend)
    lhs = 3 * wedge(psi, psi_hat)
    rhs = 2 * om3
    if not _form_small(lhs - rhs, backend, scale=float(rhs.max_abs())):
        raise SU3ConstructionError("incompatible pair")
    if not _form_small(wedge(omega, psi_hat), backend):
        raise SU3ConstructionError("incompatible pair")

    six = Fraction(6) if backend == RATIONAL else 6.0
    vol = (1 / six if backend == RATIONAL else 1.0 / six) * om3
    try:
        metric = MetricData(g_rows, vol)
    except ValueError as exc:
        raise SU3ConstructionError("metric not positive") from exc
    return SU3Structure(alg, omega, psi, psi_hat, j_endo, metric)


def _apply_j_first_slot(psi, j_rows, backend):
    """psi_hat(X,Y,Z) = -psi(JX, Y, Z), computed coefficientwise."""
    coeffs = {}
    for idx in basis_indices(6, 3):
        i, a, b = idx
        total = ZERO if backend == RATIONAL else 0.0
        for m in range(6):
            jm = j_rows[m][i]
            if jm == 0:
                continue
            total += jm * psi.value((m + 1, a + 1, b + 1))
        if total != 0:
            coeffs[(i + 1, a + 1, b + 1)] = -total
    return KForm.from_terms(6, 3, coeffs, backend)


def _is_small(x, backend, scale=1.0) -> bool:
    if backend == RATIONAL:
        return x == 0
    return abs(float(x)) <= 1e-9 * max(1.0, scale)


def _form_small(form: KForm, backend, scale=1.0) -> bool:
    return _is_small(form.max_abs(), backend, scale)


def _definiteness_sign(g_rows, backend) -> int:
    """+1 if positive definite, -1 if negative definite, 0 otherwise."""
    if backend == RATIONAL:
        m = [list(r) for r in g_rows]
        if linalg.positive_det(m) is not None:
            return 1
        if linalg.positive_det([[-x for x in row] for row in m]) is not None:
            return -1
        return 0
    arr = np.array(g_rows, dtype=float)
    eigs = np.linalg.eigvalsh((arr + arr.T) / 2)
    if eigs[0] > 0:
        return 1
    if eigs[-1] < 0:
        return -1
    return 0


class SU3Structure:
    """(omega, psi, psi_hat, J, g) on a six-dimensional Lie algebra."""

    def __init__(self, algebra: LieAlgebra, omega, psi, psi_hat, j: Endo,
                 metric: MetricData):
        if algebra.n != 6:
            raise ValueError("SU(3)-structures need a 6-dimensional algebra")
        self.algebra = algebra
        self.omega = omega
        self.psi = psi
        self.psi_hat = psi_hat
        self.j = j
        self.metric = metric

    @property
    def backend(self):
        return self.omega.backend

    def d(self, form: KForm) -> KForm:
        return ce_differential(self.algebra, form)

    def to_float(self) -> "SU3Structure":
        return SU3Structure(self.algebra, self.omega.to_float(),
                            self.psi.to_float(), self.psi_hat.to_float(),
                            self.j.to_float(), self.metric.to_float())

    def to_json_dict(self):
        return {
            "omega": self.omega.to_json_dict(),
            "psi": self.psi.to_json_dict(),
            "psi_hat": self.psi_hat.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, alg: LieAlgebra, data) -> "SU3Structure":
        """Rebuild from {"omega": ..., "psi": ..., "psi_hat"?: ...}.

        A missing psi_hat triggers full reconstruction; a present one is
        checked against the reconstructed value.
        """
        omega = KForm.from_json_dict(data["omega"])
        psi = KForm.from_json_dict(data["psi"])
        struct = reconstruct_su3(alg, omega, psi)
        if "psi_hat" in data:
            stated = KForm.from_json_dict(data["psi_hat"])
            diff = (stated - struct.psi_hat).max_abs()
            ok = diff == 0 if struct.backend == RATIONAL \
                else float(diff) < 1e-9 * max(1.0, float(stated.max_abs()))
            if not ok:
                raise SU3ConstructionError(
                    "stated psi_hat disagrees with the reconstruction")
        return struct

    def __repr__(self):
        return "SU3Structure(%r)" % (self.algebra,)


# ---------------------------------------------------------------------------
# torsion classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorsionClass:
    kind: str  # "symplectic_half_flat" | "coupled" | "generic"
    c: Optional[object] = None


@dataclass(frozen=True)
class CoupledData:
    c: object
    w2: KForm


@dataclass(frozen=True)
class Proportionality:
    proportional: bool
    factor: Optional[object] = None


def _proportionality(target: KForm, model: KForm):
    """Least-squares fit target = factor * model on coefficient vectors."""
    denom = sum((c * c for c in model.coeffs),
                ZERO if model.backend == RATIONAL else 0.0)
    if denom == 0:
        return None, target
    num = sum((a * b for a, b in zip(target.coeffs, model.coeffs)),
              ZERO if model.backend == RATIONAL else 0.0)
    factor = num / denom
    residual = target - factor * model
    return factor, residual


def su3_torsion_class(struct: SU3Structure) -> TorsionClass:
    """Classify: symplectic half-flat, coupled (d omega = c psi), or generic."""
    dom = struct.d(struct.omega)
    dpsi = struct.d(struct.psi)
    backend = struct.backend
    if _form_small(dom, backend) and _form_small(dpsi, backend):
        return TorsionClass(kind="symplectic_half_flat", c=None)
    factor, residual = _proportionality(dom, struct.psi)
    scale = max(1.0, float(dom.max_abs()))
    small = residual.max_abs() == 0 if backend == RATIONAL \
        else float(residual.max_abs()) <= 1e-10 * scale
    nonzero = factor != 0 if backend == RATIONAL else abs(float(factor)) > 1e-12
    if factor is not None and small and nonzero:
        return TorsionClass(kind="coupled", c=factor)
    return TorsionClass(kind="generic", c=None)


def primitive_11_basis(struct: SU3Structure):
    """Exact basis of J-invariant 2-forms alpha with alpha wedge omega^2 = 0."""
    backend = struct.backend
    idxs = basis_indices(6, 2)
    j = struct.j.rows
    rows = []
    # J-invariance: alpha(J e_i, J e_j) = alpha(e_i, e_j) for basis pairs
    for pos, (i, jdx) in enumerate(idxs):
        row = [ZERO if backend == RATIONAL else 0.0] * len(idxs)
        for qpos, (m, n) in enumerate(idxs):
            # coefficient of alpha_{mn} in alpha(J e_i, J e_j)
            val = j[m][i] * j[n][jdx] - j[n][i] * j[m][jdx]
            if val != 0:
                row[qpos] += val
        row[pos] -= 1
        if any(x != 0 for x in row):
            rows.append(row)
    om2 = wedge(struct.omega, struct.omega)
    wedge_row = []
    for (m, n) in idxs:
        mono = KForm.monomial(6, (m + 1, n + 1), backend=backend)
        wedge_row.append(wedge(mono, om2).coeffs[0])
    rows.append(wedge_row)
    if backend == RATIONAL:
        null = linalg.nullspace(rows, ncols=len(idxs))
    else:
        arr = np.array(rows, dtype=float)
        _, s, vt = np.linalg.svd(arr)
        tolerance = 1e-10 * (s[0] if len(s) else 1.0)
        rank = int(np.sum(s > tolerance))
        null = [tuple(v) for v in vt[rank:]]
    return [KForm(6, 2, v, backend) for v in null]


def w2_of(struct: SU3Structure, c=None) -> CoupledData:
    """The primitive (1,1) torsion form solving
    d psi_hat = -(2c/3) omega^2 + w2 wedge omega.

    For symplectic half-flat structures pass (or infer) c = 0.
    """
    backend = struct.backend
    if c is None:
        tc = su3_torsion_class(struct)
        c = tc.c if tc.kind == "coupled" else 0
        if tc.kind == "generic":
            raise ValueError("w2 extraction needs a coupled or half-flat structure")
    if backend == RATIONAL:
        c = Fraction(c)
    else:
        c = float(c)
    basis = primitive_11_basis(struct)
    if len(basis) != 8:
        raise ArithmeticError("primitive (1,1) space has dimension %d != 8"
                              % len(basis))
    om2 = wedge(struct.omega, struct.omega)
    two_thirds = Fraction(2, 3) if backend == RATIONAL else (2.0 / 3.0)
    rhs = struct.d(struct.psi_hat) + (two_thirds * c) * om2
    cols = [wedge(b, struct.omega).coeffs for b in basis]
    a = [[cols[j][i] for j in range(len(cols))] for i in range(len(rhs.coeffs))]
    if backend == RATIONAL:
        if linalg.rank(a) != 8:
            raise ArithmeticError("wedge-by-omega map is not injective on (1,1)")
        x, res_sq = linalg.lstsq(a, list(rhs.coeffs))
        if res_sq != 0:
            raise ArithmeticError("inconsistent")
        w2 = KForm.zero(6, 2)
        for coef, b in zip(x, basis):
            w2 = w2 + coef * b
    else:
        arr = np.array(a, dtype=float)
        if np.linalg.matrix_rank(arr, tol=1e-10) != 8:
            raise ArithmeticError("wedge-by-omega map is not injective on (1,1)")
        x, *_ = np.linalg.lstsq(arr, rhs.np_coeffs, rcond=None)
        res = float(np.linalg.norm(arr @ x - rhs.np_coeffs))
        if res > 1e-9 * max(1.0, float(np.linalg.norm(rhs.np_coeffs))):
            raise ArithmeticError("inconsistent")
        w2 = KForm(6, 2, np.array([b.np_coeffs for b in basis]).T @ x, FLOAT)
    return CoupledData(c=c, w2=w2)


def check_dw2_prop_psi(struct: SU3Structure, w2: KForm) -> Proportionality:
    """Test d w2 = mu psi; proportional cases must satisfy mu = |w2|^2/4."""
    dw2 = struct.d(w2)
    if _form_small(dw2, struct.backend) and _form_small(w2, struct.backend):
        return Proportionality(proportional=True, factor=0)
    factor, residual = _proportionality(dw2, struct.psi)
    scale = max(1.0, float(dw2.max_abs()))
    if struct.backend == RATIONAL:
        proportional = residual.max_abs() == 0
    else:
        proportional = float(residual.max_abs()) <= 1e-10 * scale
    if not proportional:
        return Proportionality(proportional=False, factor=None)
    w2_nsq = norm_sq(struct.metric, w2)
    quarter = w2_nsq / 4
    if abs(float(factor - quarter)) > 1e-8 * max(1.0, abs(float(quarter))):
        raise ArithmeticError(
            "proportionality factor %s differs from |w2|^2/4 = %s"
            % (factor, quarter))
    return Proportionality(proportional=True, factor=factor)


# ---------------------------------------------------------------------------
# compatible derivations and extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivationFamily:
    """Affine subspace {particular + span(directions)} inside Der(L)."""
    particular: Optional[Endo]
    directions: tuple
    dim: int

    @property
    def empty(self) -> bool:
        return self.particular is None

    def element(self, *coeffs) -> Endo:
        if self.particular is None:
            raise ValueError("empty family")
        out = self.particular
        for c, d in zip(coeffs, self.directions):
            out = out + Fraction(c) * d
        return out

    def contains(self, endo: Endo) -> bool:
        if self.particular is None:
            return False
        n = endo.n
        target = [endo.rows[i][j] - self.particular.rows[i][j]
                  for i in range(n) for j in range(n)]
        if not self.directions:
            return all(x == 0 for x in target)
        cols = [[d.rows[i][j] for d in self.directions]
                for i in range(n) for j in range(n)]
        return linalg.solve(cols, target) is not None


def find_compatible_derivations(alg: LieAlgebra, struct: SU3Structure,
                                c) -> DerivationFamily:
    """Solve D in Der(alg) with (D act psi) = -c psi, as an affine subspace."""
    if struct.backend != RATIONAL:
        raise ValueError("derivation solving requires the rational backend")
    c = Fraction(c)
    n = alg.n
    rows = derivation_equations(alg)
    rhs = [ZERO] * len(rows)
    unit_actions = []
    for r in range(n):
        for col in range(n):
            unit = Endo([[1 if (i, j) == (r, col) else 0 for j in range(n)]
                         for i in range(n)])
            unit_actions.append(endo_action(unit, struct.psi).coeffs)
    for pos in range(len(basis_indices(6, 3))):
        row = [unit_actions[e][pos] for e in range(n * n)]
        target = -c * struct.psi.coeffs[pos]
        if any(x != 0 for x in row) or target != 0:
            rows.append(row)
            rhs.append(target)
    particular, null = linalg.solve_affine(rows, rhs)
    directions = tuple(
        Endo([v[i * n:(i + 1) * n] for i in range(n)]) for v in null)
    if particular is None:
        return DerivationFamily(particular=None, directions=directions, dim=-1)
    part = Endo([particular[i * n:(i + 1) * n] for i in range(n)])
    return DerivationFamily(particular=part, directions=directions,
                            dim=len(directions))


@dataclass(frozen=True)
class ExtensionResult:
    structure: G2Structure
    closed: bool
    algebra: LieAlgebra


def g2_from_extension(struct: SU3Structure, d: Endo) -> ExtensionResult:
    """The 3-form omega wedge eta + psi on the rank-one extension by D.

    Closedness is reported from d omega = -(D act psi) and d psi = 0 and
    cross-checked against the direct differential on the extension.  The
    endomorphism need not be a derivation: the closedness conditions make
    sense formally for any D, but only derivations produce an actual Lie
    algebra (for other D the returned structure equations violate Jacobi).
    """
    alg = struct.algebra
    if is_derivation(alg, d):
        ext = rank_one_extension(alg, d,
                                 name=(alg.name + "+R") if alg.name else "ext")
    else:
        ext = _extension_structure(alg, d,
                                   name=(alg.name + "+R") if alg.name else "ext")
    eta = KForm.monomial(7, (7,), backend=struct.backend)
    phi = wedge(struct.omega.embedded(7), eta) + struct.psi.embedded(7)
    dpsi = struct.d(struct.psi)
    action = endo_action(d if struct.backend == RATIONAL else d.to_float(),
                         struct.psi)
    cond = _form_small(struct.d(struct.omega) + action, struct.backend) \
        and _form_small(dpsi, struct.backend)
    direct = _form_small(ce_differential(ext, phi), struct.backend)
    if cond != direct:
        raise ArithmeticError("closedness criteria disagree with direct d phi")
    return ExtensionResult(structure=G2Structure(ext, phi), closed=direct,
                           algebra=ext)
