"""Lie algebras presented by structure equations.

An n-dimensional Lie algebra is stored as the degree-1 part of its
Chevalley-Eilenberg differential: the list (de^1, ..., de^n) of 2-forms.
The bracket is recovered through de^k(e_i, e_j) = -e^k([e_i, e_j]), and the
Jacobi identity is equivalent to d o d = 0.

Everything structural (ranks, series, radicals, derivation spaces) is
computed over exact rationals; parameters must be rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .exterior import Endo, KForm, basis_indices, index_position, wedge, wedge_pairs
from .scalars import RATIONAL, as_rational

ZERO = Fraction(0)


class InvalidStructureError(ValueError):
    """Structure equations do not define a Lie algebra (Jacobi fails)."""


class LieAlgebra:
    """Lie algebra given by the 2-forms (de^1, ..., de^n)."""

    def __init__(self, d1, name="", params=None, check=False):
        d1 = tuple(d1)
        n = len(d1)
        for f in d1:
            if not isinstance(f, KForm) or f.k != 2 or f.n != n:
                raise ValueError("structure equations must be n 2-forms on R^n")
            if f.backend != RATIONAL:
                raise ValueError("structure equations must be exact-rational")
        self.n = n
        self.d1 = d1
        self.name = name
        self.params = dict(params or {})
        # bracket table: [e_i, e_j] = -sum_k de^k(e_i, e_j) e_k
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                v = tuple(-d1[k].value((i + 1, j + 1)) for k in range(n))
                table[(i, j)] = v
        self._brackets = table
        self._d_matrices = {}
        self._d_matrices_np = {}
        if check and check_jacobi(self) != 0:
            raise InvalidStructureError("structure equations violate the Jacobi identity")

    # -- bracket -------------------------------------------------------------

    def bracket_basis(self, i: int, j: int):
        """[e_i, e_j] for 0-based basis indices, as a coefficient tuple."""
        if i == j:
            return (ZERO,) * self.n
        if i < j:
            return self._brackets[(i, j)]
        return tuple(-c for c in self._brackets[(j, i)])

    def bracket(self, x, y):
        """Bracket of two coefficient vectors (exact)."""
        x = [as_rational(v) for v in x]
        y = [as_rational(v) for v in y]
        out = [ZERO] * self.n
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0 or i == j:
                    continue
                for k, c in enumerate(self.bracket_basis(i, j)):
                    if c != 0:
                        out[k] += xi * yj * c
        return tuple(out)

    def ad(self, i: int):
        """Matrix of ad_{e_i} acting on coefficient vectors."""
        cols = [self.bracket_basis(i, j) for j in range(self.n)]
        return [[cols[j][k] for j in range(self.n)] for k in range(self.n)]

    # -- differential ----------------------------------------------------------

    def d_matrix(self, k: int):
        """Exact matrix of d: degree k -> degree k+1 (rows = target basis).

        Column e^I is d e^I = sum_p (-1)^p de^{I_p} ^ e^{I - I_p}.
        """
        if k not in self._d_matrices:
            n = self.n
            src = basis_indices(n, k)
            m = [[ZERO] * len(src) for _ in basis_indices(n, k + 1)]  # [] for k >= n
            if 0 < k < n:  # d of constants vanishes
                pairs, rest_pos = wedge_pairs(n, 2, k - 1), index_position(n, k - 1)
                terms = [[(pos, c) for pos, c in enumerate(f.coeffs) if c != 0]
                         for f in self.d1]
                for col, idx in enumerate(src):
                    for p, i in enumerate(idx):
                        rest = rest_pos[idx[:p] + idx[p + 1:]]
                        for pos, c in terms[i]:
                            hit = pairs.get((pos, rest))
                            if hit is not None:
                                m[hit[0]][col] += (-1) ** p * hit[1] * c
            self._d_matrices[k] = m
        return self._d_matrices[k]

    def d_matrix_np(self, k: int) -> np.ndarray:
        if k not in self._d_matrices_np:
            m = self.d_matrix(k)
            rows = len(basis_indices(self.n, k + 1)) if k < self.n else 0
            cols = len(basis_indices(self.n, k))
            arr = np.zeros((rows, cols))
            for i, row in enumerate(m):
                for j, c in enumerate(row):
                    if c != 0:
                        arr[i, j] = float(c)
            self._d_matrices_np[k] = arr
        return self._d_matrices_np[k]

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self):
        return {
            "n": self.n,
            "d": [f.to_json_dict() for f in self.d1],
            "name": self.name,
            "params": {k: str(v) for k, v in self.params.items()},
        }

    @classmethod
    def from_json_dict(cls, data):
        d1 = [KForm.from_json_dict(f, backend=RATIONAL) for f in data["d"]]
        params = {k: Fraction(v) for k, v in data.get("params", {}).items()}
        return cls(d1, name=data.get("name", ""), params=params)

    def __repr__(self):
        label = self.name or "liealg"
        return "LieAlgebra(%s, n=%d)" % (label, self.n)


def abelian(n: int, name="abelian") -> LieAlgebra:
    return LieAlgebra([KForm.zero(n, 2) for _ in range(n)], name=name)


def from_structure_equations(n, equations, name="", params=None) -> LieAlgebra:
    """Build from {k: {(i,j): c}} giving de^k = sum c e^{ij} (1-based)."""
    d1 = []
    for k in range(1, n + 1):
        d1.append(KForm.from_terms(n, 2, equations.get(k, {}), RATIONAL))
    return LieAlgebra(d1, name=name, params=params)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential and cohomology
# ---------------------------------------------------------------------------

def ce_differential(alg: LieAlgebra, gamma: KForm) -> KForm:
    """Extend (de^1, ..., de^n) to an antiderivation on all degrees.

    For a top-degree input the differential is the zero map; the zero form of
    top degree is returned so callers can still test for vanishing.
    """
    if gamma.n != alg.n:
        raise ValueError("form lives on the wrong space")
    n, k = alg.n, gamma.k
    if k >= n:
        return KForm.zero(n, n, gamma.backend)
    if gamma.backend == RATIONAL:
        m = alg.d_matrix(k)
        out = linalg.matvec(m, list(gamma.coeffs))
    else:
        out = alg.d_matrix_np(k) @ gamma.np_coeffs
    return KForm(n, k + 1, out, gamma.backend)


def check_jacobi(alg: LieAlgebra) -> Fraction:
    """Largest |coefficient| of d(de^k) over all k; zero iff Jacobi holds."""
    worst = ZERO
    for f in alg.d1:
        ddf = ce_differential(alg, f)
        worst = max(worst, ddf.max_abs())
    return worst


def betti(alg: LieAlgebra, k: int) -> int:
    """dim H^k of the Chevalley-Eilenberg complex, by exact ranks."""
    if not (0 <= k <= alg.n):
        raise ValueError("degree out of range")
    dim_k = len(basis_indices(alg.n, k))
    rank_k = linalg.rank(alg.d_matrix(k)) if k < alg.n else 0
    rank_km1 = linalg.rank(alg.d_matrix(k - 1)) if k >= 1 else 0
    return dim_k - rank_k - rank_km1


def is_unimodular(alg: LieAlgebra) -> bool:
    """True iff tr(ad_X) = 0 for every basis vector X."""
    for i in range(alg.n):
        tr = ZERO
        for j in range(alg.n):
            tr += alg.bracket_basis(i, j)[j]
        if tr != 0:
            return False
    return True


# -- structural classification ----------------------------------------------

@dataclass(frozen=True)
class StructureFlags:
    solvable: bool
    nilpotent: bool
    nilpotent_step: Optional[int]
    derived_series_dims: tuple
    lower_central_dims: tuple
    radical_dim: int
    semisimple_dim: int
    levi_type: Optional[str]  # "sl2R", "su2", or None

    @property
    def semisimple(self) -> bool:
        return self.radical_dim == 0


def _span(vectors, n):
    """Canonical basis (rref rows) of the span of the given vectors."""
    rows = [list(v) for v in vectors if any(c != 0 for c in v)]
    if not rows:
        return []
    red, pivots = linalg.rref(rows)
    return [red[r] for r in range(len(pivots))]


def _bracket_span(alg, ubasis, vbasis):
    prods = [alg.bracket(u, v) for u in ubasis for v in vbasis]
    return _span(prods, alg.n)


def _trace_form(ads):
    """[[tr(a_i a_j)]] = [[sum_{a,b} a_i[a][b] a_j[b][a]]] over the nonzero a_i[a][b]."""
    m = len(ads)
    out = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        nonzero = [(a, b, x) for a, row in enumerate(ads[i])
                   for b, x in enumerate(row) if x != 0]
        for j in range(i, m):
            adj = ads[j]
            out[i][j] = out[j][i] = sum((x * adj[b][a] for a, b, x in nonzero), ZERO)
    return out


def killing_matrix(alg: LieAlgebra):
    return _trace_form([alg.ad(i) for i in range(alg.n)])


def radical_basis(alg: LieAlgebra):
    """Exact basis of the radical: the Killing-orthogonal of [g, g]."""
    n = alg.n
    full = [[Fraction(1) if i == j else ZERO for j in range(n)] for i in range(n)]
    kil = killing_matrix(alg)
    derived = _bracket_span(alg, full, full)
    if not derived:
        return [tuple(row) for row in full]
    constraint = [linalg.matvec(kil, b) for b in derived]
    return [tuple(v) for v in _span(linalg.nullspace(constraint, ncols=n), n)]


def structure_flags(alg: LieAlgebra) -> StructureFlags:
    """Solvability, nilpotency, radical and Levi-quotient type.

    The radical is computed as the Killing-orthogonal complement of the
    derived algebra.  When the semisimple quotient is 3-dimensional, its
    Killing signature distinguishes sl(2,R) (indefinite) from su(2)
    (negative-definite).
    """
    n = alg.n
    full = [[Fraction(1) if i == j else ZERO for j in range(n)] for i in range(n)]

    derived_dims = []
    cur = full
    while True:
        nxt = _bracket_span(alg, cur, cur)
        derived_dims.append(len(nxt))
        if len(nxt) == len(cur) or len(nxt) == 0:
            break
        cur = nxt
    solvable = derived_dims[-1] == 0

    lcs_dims = []
    cur = full
    while True:
        nxt = _bracket_span(alg, full, cur)
        lcs_dims.append(len(nxt))
        if len(nxt) == len(cur) or len(nxt) == 0:
            break
        cur = nxt
    nilpotent = lcs_dims[-1] == 0
    step = len(lcs_dims) if nilpotent else None

    radical = [list(v) for v in radical_basis(alg)]
    rad_dim = len(radical)
    ss_dim = n - rad_dim

    levi_type = None
    if ss_dim == 3:
        levi_type = _levi3_type(alg, radical)

    return StructureFlags(
        solvable=solvable,
        nilpotent=nilpotent,
        nilpotent_step=step,
        derived_series_dims=tuple(derived_dims),
        lower_central_dims=tuple(lcs_dims),
        radical_dim=rad_dim,
        semisimple_dim=ss_dim,
        levi_type=levi_type,
    )


def _levi3_type(alg, radical):
    """Type of the 3-dim semisimple quotient g/rad from its Killing form K.

    "su2" when K is negative definite, "sl2R" when det K < 0 (exactly one
    negative square), otherwise None.  The standard vectors on the non-pivot
    columns of rref(radical) complete the radical to a basis of g.
    """
    n = alg.n
    red, pivots = linalg.rref([list(b) for b in radical])
    free = [c for c in range(n) if c not in pivots]

    def quotient_coords(vec):
        # vec = sum_r vec[p_r] red_r + sum_c beta_c e_c; read beta off the free columns
        return [vec[c] - sum((vec[p] * red[r][c] for r, p in enumerate(pivots)), ZERO)
                for c in free]

    comp = [tuple(Fraction(int(i == c)) for i in range(n)) for c in free]
    structure = [[quotient_coords(alg.bracket(u, v)) for v in comp] for u in comp]
    q = len(comp)
    ad_q = [[[structure[i][j][k] for j in range(q)] for k in range(q)]
            for i in range(q)]
    kil = _trace_form(ad_q)
    if linalg.positive_det([[-x for x in row] for row in kil]) is not None:
        return "su2"
    if linalg.det(kil) < 0:
        return "sl2R"
    return None


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivationSpace:
    basis: tuple
    dim: int

    def contains(self, endo: Endo) -> bool:
        """Exact membership of an endomorphism in the span of the basis."""
        cols = [[b.rows[i][j] for b in self.basis]
                for i in range(endo.n) for j in range(endo.n)]
        target = [as_rational(endo.rows[i][j])
                  for i in range(endo.n) for j in range(endo.n)]
        return linalg.solve(cols, target) is not None


def derivation_residual(alg: LieAlgebra, d: Endo):
    """Max |D[x,y] - [Dx,y] - [x,Dy]| over basis pairs (exact)."""
    worst = ZERO
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            v = alg.bracket_basis(i, j)
            lhs = d.apply(v)
            di = d.apply(tuple(Fraction(1) if t == i else ZERO for t in range(alg.n)))
            dj = d.apply(tuple(Fraction(1) if t == j else ZERO for t in range(alg.n)))
            rhs1 = alg.bracket(di, tuple(Fraction(1) if t == j else ZERO
                                         for t in range(alg.n)))
            rhs2 = alg.bracket(tuple(Fraction(1) if t == i else ZERO
                                     for t in range(alg.n)), dj)
            for a, b, c in zip(lhs, rhs1, rhs2):
                worst = max(worst, abs(a - b - c))
    return worst


def is_derivation(alg: LieAlgebra, d: Endo) -> bool:
    return derivation_residual(alg, d) == 0


def derivation_equations(alg: LieAlgebra):
    """Rows of the homogeneous linear system cutting out Der(alg).

    Unknowns are the n^2 entries of D in row-major order.
    """
    n = alg.n
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            v = alg.bracket_basis(i, j)
            for k in range(n):
                row = [ZERO] * (n * n)
                # D[e_i,e_j]_k = sum_m D[k][m] v_m
                for m in range(n):
                    if v[m] != 0:
                        row[k * n + m] += v[m]
                # -[De_i, e_j]_k = -sum_m D[m][i] [e_m, e_j]_k
                for m in range(n):
                    c = alg.bracket_basis(m, j)[k]
                    if c != 0:
                        row[m * n + i] -= c
                # -[e_i, De_j]_k = -sum_m D[m][j] [e_i, e_m]_k
                for m in range(n):
                    c = alg.bracket_basis(i, m)[k]
                    if c != 0:
                        row[m * n + j] -= c
                if any(x != 0 for x in row):
                    rows.append(row)
    return rows


def derivation_space(alg: LieAlgebra) -> DerivationSpace:
    """Exact basis of Der(alg) as the nullspace of the derivation equations."""
    n = alg.n
    rows = derivation_equations(alg)
    null = linalg.nullspace(rows, ncols=n * n)
    basis = tuple(
        Endo([v[i * n:(i + 1) * n] for i in range(n)]) for v in null
    )
    return DerivationSpace(basis=basis, dim=len(basis))


# ---------------------------------------------------------------------------
# rank-one extensions
# ---------------------------------------------------------------------------

def _extension_structure(alg: LieAlgebra, d: Endo, name=None) -> LieAlgebra:
    """Structure equations of the one-generator extension, without checks."""
    n = alg.n
    eta = KForm.monomial(n + 1, (n + 1,))
    new_d1 = []
    for i in range(n):
        base = alg.d1[i].embedded(n + 1)
        one_form = KForm.from_terms(
            n, 1, {(j + 1,): d.rows[i][j] for j in range(n)})
        # degree k = 1: sign (-1)^(k+1) = +1
        new_d1.append(base + wedge(one_form.embedded(n + 1), eta))
    new_d1.append(KForm.zero(n + 1, 2))
    return LieAlgebra(new_d1, name=name or (alg.name + "+R" if alg.name else ""),
                      params=dict(alg.params))


def rank_one_extension(alg: LieAlgebra, d: Endo, name=None) -> LieAlgebra:
    """Extension of alg by one generator using a derivation D.

    On the enlarged space with extra covector eta = e^{n+1}, the differential
    of a form gamma pulled back from alg is
    d gamma = d_alg gamma + (-1)^(k+1) (D act gamma) wedge eta, and d eta = 0.
    """
    if d.n != alg.n:
        raise ValueError("derivation has wrong dimension")
    if d.backend != RATIONAL:
        raise ValueError("derivation must be exact-rational")
    if not is_derivation(alg, d):
        raise ValueError("endomorphism is not a derivation of the algebra")
    out = _extension_structure(alg, d, name=name)
    residual = check_jacobi(out)
    if residual != 0:
        raise InvalidStructureError(
            "extension violates Jacobi (residual %s); derivation check is broken"
            % residual)
    return out
