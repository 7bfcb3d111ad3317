"""SU(3)-structures on six-dimensional Lie algebras.

An SU(3)-structure is determined by a non-degenerate 2-form omega and a
stable 3-form psi subject to compatibility (omega wedge psi = 0) and the
normalisation 3 psi wedge psi_hat = 2 omega^3.  The almost-complex structure
is J = -K/sqrt(-lam), with K and its quadratic invariant lam read from psi
alone (Hitchin, Stable forms and special metrics, 2001); this K orients J
against e^{1..6}.  The metric g = omega(., J.) and the volume omega^3/6 pass
one positivity check, MetricData, which rejects the pair when g is not
positive definite or omega^3 < 0.  Since psi has type (3,0)+(0,3), its
imaginary counterpart psi_hat = -psi(J., ., .) is -(1/3) J.psi, with J
acting as a derivation.

Torsion classes handled here: symplectic half-flat (d omega = 0 = d psi),
coupled (d omega = c psi with c != 0), generic otherwise.  For coupled and
half-flat structures the remaining torsion is the primitive (1,1)-form w2
with d psi_hat = -(2c/3) omega^2 + w2 wedge omega, computed by the closed
identity w2 = -*(d psi_hat + (2c/3) omega^2) and guarded by that equation.

Rank-one extensions by a derivation D carry the 3-form
phi = omega wedge eta + psi, which is a closed G2-structure precisely when
d omega = -(D act psi) and d psi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import linalg
from .exterior import (
    Endo,
    KForm,
    MetricData,
    basis_vector,
    endo_action,
    hodge,
    identity_holds,
    interior,
    norm_sq,
    wedge,
)
from .g2 import G2Structure
from .liealg import (
    DerivationSpace,
    LieAlgebra,
    _extension_structure,
    _jacobi_checked,
    ce_differential,
    derivation_space,
    is_derivation,
)
from .scalars import (
    RATIONAL,
    ExactBackendUnavailable,
    negligible,
    rational_nth_root,
    zero,
)


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
    complex type iff lam < 0, in which case K^2 = lam * Id.  The 5-form
    e^{1..6} without e^j sits at position 5 - j.
    """
    if psi.n != 6 or psi.k != 3:
        raise ValueError("expected a 3-form on R^6")
    cols = []
    for i in range(6):
        rho = wedge(interior(basis_vector(6, i + 1, psi.backend), psi), psi)
        cols.append([(-1) ** j * rho.coeffs[5 - j] for j in range(6)])
    return linalg.transpose(cols)


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
    if negligible(om3.coeffs[0]):
        raise SU3ConstructionError("omega degenerate")

    k = stable_form_endomorphism(psi)
    ksq = linalg.matmul(k, k)
    lam = sum(ksq[i][i] for i in range(6)) / 6
    scale = max(abs(x) for row in ksq for x in row)
    if lam >= 0 or negligible(lam, scale, 1e-12) or not all(
            negligible(ksq[i][j] - (lam if i == j else 0), scale)
            for i in range(6) for j in range(6)):
        raise SU3ConstructionError("psi not stable")
    root = rational_nth_root(-lam, 2) if backend == RATIONAL else math.sqrt(-lam)
    if root is None:
        raise ExactBackendUnavailable(
            "sqrt(-lambda) is irrational; convert the pair with to_float()")

    if not negligible(wedge(omega, psi).max_abs()):
        raise SU3ConstructionError("incompatible pair")

    # K orients J against e^{1..6}, so omega(., J.) is positive definite only
    # for J = -K/sqrt(-lam), and only when omega^3 > 0
    j_endo = Endo([[-x / root for x in row] for row in k], backend)
    omega_matrix = [[omega.value((i + 1, m + 1)) for m in range(6)] for i in range(6)]
    try:
        metric = MetricData(linalg.matmul(omega_matrix, j_endo.rows),
                            Fraction(1, 6) * om3)
    except ValueError as exc:
        raise SU3ConstructionError("metric not positive") from exc

    # psi is of type (3,0)+(0,3), so psi(JX, Y, Z) = (1/3)(J.psi)(X, Y, Z);
    # omega ^ psi = 0 made omega of type (1,1), so omega ^ psi_hat = 0 too
    psi_hat = endo_action(j_endo, psi) / -3
    rhs = 2 * om3
    if not negligible((3 * wedge(psi, psi_hat) - rhs).max_abs(), rhs.max_abs()):
        raise SU3ConstructionError("incompatible pair")
    return SU3Structure(alg, omega, psi, psi_hat, j_endo, metric)


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

    @cached_property
    def torsion_class(self) -> "TorsionClass":
        return su3_torsion_class(self)

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
            if not negligible((stated - struct.psi_hat).max_abs(), stated.max_abs()):
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
    """The factor of target = factor * model, or None when they are not proportional.

    The factor is the least-squares fit on coefficient vectors; it counts when
    the residual is exactly zero, or at most 1e-10 max(1, max |target|) in float.
    """
    denom = sum((c * c for c in model.coeffs), zero(model.backend))
    if denom == 0:
        return None
    factor = sum((a * b for a, b in zip(target.coeffs, model.coeffs)),
                 zero(model.backend)) / denom
    residual = (target - factor * model).max_abs()
    return factor if negligible(residual, target.max_abs(), 1e-10) else None


def su3_torsion_class(struct: SU3Structure) -> TorsionClass:
    """Classify: symplectic half-flat, coupled (d omega = c psi), or generic."""
    dom = struct.d(struct.omega)
    dpsi = struct.d(struct.psi)
    if negligible(dom.max_abs()) and negligible(dpsi.max_abs()):
        return TorsionClass(kind="symplectic_half_flat", c=None)
    factor = _proportionality(dom, struct.psi)
    if factor is not None and not negligible(factor, tol=1e-12):
        return TorsionClass(kind="coupled", c=factor)
    return TorsionClass(kind="generic", c=None)


def w2_of(struct: SU3Structure, c=None) -> CoupledData:
    """The primitive (1,1) torsion form solving
    d psi_hat = -(2c/3) omega^2 + w2 wedge omega.

    On R^6, *(alpha wedge omega) = -alpha for primitive (1,1)-forms alpha
    (Chiossi-Salamon 2002), so w2 = -*(d psi_hat + (2c/3) omega^2).  The
    map *(. wedge omega) acts as 2, 1 and -1 on <omega>, [[Lambda^{2,0}]] and
    Lambda^{1,1}_0, so the guard w2 wedge omega = d psi_hat + (2c/3) omega^2
    holds exactly when w2 is primitive of type (1,1); it fails for a wrong c
    or a generic structure and raises ArithmeticError.

    For symplectic half-flat structures pass (or infer) c = 0.
    """
    backend = struct.backend
    if c is None:
        tc = struct.torsion_class
        c = tc.c if tc.kind == "coupled" else 0
        if tc.kind == "generic":
            raise ValueError("w2 extraction needs a coupled or half-flat structure")
    c = Fraction(c) if backend == RATIONAL else float(c)
    rhs = struct.d(struct.psi_hat) \
        + (Fraction(2, 3) * c) * wedge(struct.omega, struct.omega)
    w2 = -hodge(struct.metric, rhs)
    if not identity_holds(wedge(w2, struct.omega) - rhs, rhs):
        raise ArithmeticError("inconsistent")
    return CoupledData(c=c, w2=w2)


def check_dw2_prop_psi(struct: SU3Structure, w2: KForm) -> Proportionality:
    """Test d w2 = mu psi; proportional cases must satisfy mu = |w2|^2/4
    (exactly in the rational backend)."""
    dw2 = struct.d(w2)
    if negligible(dw2.max_abs()) and negligible(w2.max_abs()):
        return Proportionality(proportional=True, factor=0)
    factor = _proportionality(dw2, struct.psi)
    if factor is None:
        return Proportionality(proportional=False, factor=None)
    w2_nsq = norm_sq(struct.metric, w2)
    quarter = w2_nsq / 4
    if not negligible(factor - quarter, quarter, 1e-8):
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
        return sum((Fraction(c) * d for c, d in zip(coeffs, self.directions) if c),
                   self.particular)

    def contains(self, endo: Endo) -> bool:
        if self.particular is None:
            return False
        return DerivationSpace(self.directions, self.dim).contains(endo - self.particular)


def find_compatible_derivations(alg: LieAlgebra, struct: SU3Structure,
                                c) -> DerivationFamily:
    """Solve D in Der(alg) with (D act psi) = -c psi, as an affine subspace.

    The unknowns are the coordinates x of D = sum x_i B_i in the basis B of
    ``derivation_space``, so the system is sum x_i (B_i act psi) = -c psi:
    one action per basis derivation and one solve.
    """
    if struct.backend != RATIONAL:
        raise ValueError("derivation solving requires the rational backend")
    basis = derivation_space(alg).basis
    actions = linalg.transpose([endo_action(b, struct.psi).coeffs for b in basis])
    x, null = linalg.solve_affine(actions, [-Fraction(c) * p for p in struct.psi.coeffs])
    directions = tuple(sum((vi * b for vi, b in zip(v, basis) if vi), Endo.zero(alg.n))
                       for v in null)
    if x is None:
        return DerivationFamily(particular=None, directions=directions, dim=-1)
    return DerivationFamily(
        particular=sum((xi * b for xi, b in zip(x, basis) if xi), Endo.zero(alg.n)),
        directions=directions, dim=len(directions))


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
    D is tested as a derivation once; a derivation's extension is then
    checked against Jacobi, as ``rank_one_extension`` does.
    """
    alg = struct.algebra
    derivation = is_derivation(alg, d)
    ext = _extension_structure(alg, d, name=(alg.name + "+R") if alg.name else "ext")
    if derivation:
        _jacobi_checked(ext)
    eta = KForm.monomial(7, (7,), backend=struct.backend)
    phi = wedge(struct.omega.embedded(7), eta) + struct.psi.embedded(7)
    dpsi = struct.d(struct.psi)
    action = endo_action(d if struct.backend == RATIONAL else d.to_float(),
                         struct.psi)
    cond = negligible((struct.d(struct.omega) + action).max_abs()) \
        and negligible(dpsi.max_abs())
    direct = negligible(ce_differential(ext, phi).max_abs())
    if cond != direct:
        raise ArithmeticError("closedness criteria disagree with direct d phi")
    return ExtensionResult(structure=G2Structure(ext, phi), closed=direct,
                           algebra=ext)
