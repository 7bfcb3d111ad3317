"""Exterior algebra of alternating forms on R^n, 3 <= n <= 8.

A k-form is stored as one coefficient per strictly increasing multi-index,
with multi-indices ordered lexicographically.  The orientation is fixed once
and for all by e^{1...n}.  Degree-0 forms are scalars with a single
coefficient, degree-n forms are volume multiples.

Supported operations: wedge product, interior product, the derivation-type
action of an endomorphism, metric-induced inner products on each degree, and
the Hodge star.  The multilinear operations work in either scalar backend;
the metric-dependent ones work with whatever backend the metric carries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import linalg
from .scalars import (
    FLOAT,
    RATIONAL,
    BackendMismatch,
    as_rational,
    backend_of,
    coerce,
    negligible,
    require_same_backend,
    zero,
)

MAX_DIM = 8
MIN_DIM = 3
#: binary64 unit roundoff, for the float volume check of MetricData
EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# multi-index tables (0-based internally; the public API is 1-based)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def basis_indices(n: int, k: int):
    """All strictly increasing k-tuples from range(n), lexicographic."""
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def index_position(n: int, k: int):
    return {idx: p for p, idx in enumerate(basis_indices(n, k))}


@lru_cache(maxsize=None)
def wedge_pairs(n: int, p: int, q: int):
    """dict (pos_p, pos_q) -> (pos_{p+q}, sign) for nonzero basis wedges."""
    out_pos = index_position(n, p + q)
    table = {}
    for ip, i_idx in enumerate(basis_indices(n, p)):
        for jp, j_idx in enumerate(basis_indices(n, q)):
            if not set(i_idx) & set(j_idx):
                merged = i_idx + j_idx
                table[(ip, jp)] = (out_pos[tuple(sorted(merged))], _permutation_sign(merged))
    return table


@lru_cache(maxsize=None)
def interior_table(n: int, k: int):
    """For each ambient index i: list of (pos_k, pos_{k-1}, sign)."""
    out_pos = index_position(n, k - 1)
    table = [[] for _ in range(n)]
    for p, idx in enumerate(basis_indices(n, k)):
        for slot, i in enumerate(idx):
            rest = idx[:slot] + idx[slot + 1:]
            table[i].append((p, out_pos[rest], (-1) ** slot))
    return tuple(tuple(rows) for rows in table)


@lru_cache(maxsize=None)
def complement_table(n: int, k: int):
    """For each I in basis(n,k): (position of complement, sign of (I, I^c))."""
    out_pos = index_position(n, n - k)
    table = []
    for idx in basis_indices(n, k):
        comp = tuple(i for i in range(n) if i not in idx)
        table.append((out_pos[comp], _permutation_sign(idx + comp)))
    return tuple(table)


# ---------------------------------------------------------------------------
# KForm
# ---------------------------------------------------------------------------

class KForm:
    """Alternating k-form with one coefficient per increasing multi-index."""

    __slots__ = ("n", "k", "coeffs", "backend")

    def __init__(self, n, k, coeffs, backend=None):
        if not (MIN_DIM <= n <= MAX_DIM):
            raise ValueError("ambient dimension must be in [%d, %d]" % (MIN_DIM, MAX_DIM))
        if not (0 <= k <= n):
            raise ValueError("degree must be in [0, n]")
        coeffs = tuple(coeffs)
        if len(coeffs) != len(basis_indices(n, k)):
            raise ValueError(
                "expected %d coefficients for a %d-form on R^%d, got %d"
                % (len(basis_indices(n, k)), k, n, len(coeffs))
            )
        if backend is None:
            backend = backend_of(coeffs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", coerce(coeffs, backend))
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, *_):
        raise AttributeError("KForm is immutable")

    def __reduce__(self):
        return (KForm, (self.n, self.k, self.coeffs, self.backend))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, k, backend=RATIONAL):
        return cls(n, k, [zero(backend)] * len(basis_indices(n, k)), backend)

    @classmethod
    def from_terms(cls, n, k, terms, backend=None):
        """Build from {(i_1,...,i_k): coefficient} with 1-based indices.

        Indices need not be sorted; the sign applies to the backend's scalar.
        """
        terms = terms if backend is None else dict(zip(terms, coerce(terms.values(), backend)))
        vals = {}
        for idx, c in terms.items():
            if len(idx) != k:
                raise ValueError("index %r has wrong length for a %d-form" % (idx, k))
            zero_based = tuple(i - 1 for i in idx)
            if any(i < 0 or i >= n for i in zero_based):
                raise ValueError("index %r out of range for R^%d" % (idx, n))
            if len(set(zero_based)) != k:
                continue  # repeated index wedges to zero
            order = tuple(sorted(zero_based))
            c = c if _permutation_sign(zero_based) > 0 else -c
            vals[order] = vals[order] + c if order in vals else c
        if backend is None:
            backend = backend_of(vals.values())
        fill = zero(backend)
        return cls(n, k, [vals.get(idx, fill) for idx in basis_indices(n, k)], backend)

    @classmethod
    def monomial(cls, n, idx, c=1, backend=None):
        return cls.from_terms(n, len(idx), {tuple(idx): c}, backend)

    # -- views -------------------------------------------------------------

    def terms(self):
        """Nonzero terms as {1-based sorted index tuple: coefficient}."""
        return {
            tuple(i + 1 for i in idx): c
            for idx, c in zip(basis_indices(self.n, self.k), self.coeffs)
            if c != 0
        }

    def coeff(self, idx):
        """Coefficient of a (possibly unsorted) 1-based multi-index."""
        zero_based = tuple(i - 1 for i in idx)
        if len(set(zero_based)) != len(zero_based):
            return zero(self.backend)
        order = tuple(sorted(zero_based))
        sign = _permutation_sign(zero_based)
        return sign * self.coeffs[index_position(self.n, self.k)[order]]

    value = coeff  # evaluation on basis vectors coincides with coefficients

    @property
    def np_coeffs(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs])

    # -- arithmetic ---------------------------------------------------------

    def _require_like(self, other):
        if not isinstance(other, KForm):
            raise TypeError("expected a KForm")
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError("form shape mismatch: (%d,%d) vs (%d,%d)"
                             % (self.n, self.k, other.n, other.k))
        require_same_backend(self.backend, other.backend)

    def __add__(self, other):
        self._require_like(other)
        return KForm(self.n, self.k,
                     [a + b for a, b in zip(self.coeffs, other.coeffs)], self.backend)

    def __sub__(self, other):
        self._require_like(other)
        return KForm(self.n, self.k,
                     [a - b for a, b in zip(self.coeffs, other.coeffs)], self.backend)

    def __neg__(self):
        return KForm(self.n, self.k, [-a for a in self.coeffs], self.backend)

    def __rmul__(self, scalar):
        if isinstance(scalar, float) or isinstance(scalar, np.floating):
            if self.backend == RATIONAL:
                raise BackendMismatch("float scalar on a rational form")
            s = float(scalar)
        else:
            s = as_rational(scalar) if self.backend == RATIONAL else float(scalar)
        return KForm(self.n, self.k, [s * a for a in self.coeffs], self.backend)

    __mul__ = __rmul__

    def __truediv__(self, scalar):
        if self.backend == RATIONAL:
            return self * (1 / as_rational(scalar))
        return self * (1.0 / float(scalar))

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.n, self.k, self.backend) == (other.n, other.k, other.backend) \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.k, self.backend, self.coeffs))

    def is_zero(self, tol=0.0) -> bool:
        return all(abs(c) <= tol for c in self.coeffs)

    def max_abs(self):
        return max((abs(c) for c in self.coeffs if c), default=zero(self.backend))

    def norm_l2(self) -> float:
        return float(np.sqrt(sum(float(c) * float(c) for c in self.coeffs)))

    # -- conversions ---------------------------------------------------------

    def to_float(self) -> "KForm":
        if self.backend == FLOAT:
            return self
        return KForm(self.n, self.k, [float(c) for c in self.coeffs], FLOAT)

    def embedded(self, n_new: int) -> "KForm":
        """The same form viewed on a larger ambient space."""
        if n_new < self.n:
            raise ValueError("embedding must not shrink the ambient space")
        out = dict(self.terms())
        return KForm.from_terms(n_new, self.k, out, self.backend)

    def restricted(self, n_new: int) -> "KForm":
        """Pullback to the subspace spanned by the first n_new basis vectors."""
        if n_new > self.n:
            raise ValueError("restriction must not grow the ambient space")
        out = {idx: c for idx, c in self.terms().items() if max(idx) <= n_new}
        return KForm.from_terms(n_new, self.k, out, self.backend)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        terms = []
        for idx, c in self.terms().items():
            val = str(c) if self.backend == RATIONAL else float(c)
            terms.append({"idx": list(idx), "c": val})
        return {"n": self.n, "k": self.k, "terms": terms}

    @classmethod
    def from_json_dict(cls, data, backend=None):
        terms = {}
        for t in data.get("terms", []):
            c = t["c"]
            if isinstance(c, str):
                c = Fraction(c)
            terms[tuple(t["idx"])] = c
        return cls.from_terms(data["n"], data["k"], terms, backend)

    # -- display -------------------------------------------------------------

    def __repr__(self):
        ts = self.terms()
        if not ts:
            return "0"
        parts = []
        for idx, c in ts.items():
            mono = "e" + "".join(str(i) for i in idx) if idx else "1"
            if c == 1:
                parts.append("+ " + mono)
            elif c == -1:
                parts.append("- " + mono)
            else:
                sign = "-" if (c < 0) else "+"
                parts.append("%s %s*%s" % (sign, abs(c), mono))
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:] if s.startswith("- ") else s


def _permutation_sign(seq) -> int:
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return (-1) ** inv


# ---------------------------------------------------------------------------
# Endomorphisms
# ---------------------------------------------------------------------------

class Endo:
    """Endomorphism of R^n acting on vectors, A e_j = sum_i A[i][j] e_i."""

    __slots__ = ("n", "rows", "backend")

    def __init__(self, rows, backend=None):
        rows = [tuple(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("endomorphism matrix must be square")
        flat = [x for r in rows for x in r]
        if backend is None:
            backend = backend_of(flat)
        flat = coerce(flat, backend)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows",
                           tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, *_):
        raise AttributeError("Endo is immutable")

    def __reduce__(self):
        return (Endo, (self.rows, self.backend))

    @classmethod
    def zero(cls, n, backend=RATIONAL):
        return cls([[0] * n for _ in range(n)], backend)

    @classmethod
    def identity(cls, n, backend=RATIONAL):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], backend)

    @classmethod
    def diag(cls, entries, backend=None):
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)],
                   backend)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        require_same_backend(self.backend, other.backend)
        return Endo([[a + b for a, b in zip(ra, rb)]
                     for ra, rb in zip(self.rows, other.rows)], self.backend)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        s = as_rational(scalar) if self.backend == RATIONAL else float(scalar)
        return Endo([[s * a for a in row] for row in self.rows], self.backend)

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, Endo):
            return NotImplemented
        return self.backend == other.backend and self.rows == other.rows

    def __hash__(self):
        return hash((self.backend, self.rows))

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.n)), zero(self.backend))

    def apply(self, v):
        """Matrix-vector product A v."""
        return tuple(sum(self.rows[i][j] * v[j] for j in range(self.n))
                     for i in range(self.n))

    def to_float(self) -> "Endo":
        if self.backend == FLOAT:
            return self
        return Endo([[float(a) for a in row] for row in self.rows], FLOAT)

    def __repr__(self):
        return "Endo(%r)" % (list(list(r) for r in self.rows),)


# ---------------------------------------------------------------------------
# Metric data
# ---------------------------------------------------------------------------

class MetricData:
    """Inner product g on R^n together with the oriented volume form.

    The volume form must be a positive multiple of e^{1...n} and satisfy
    vol = sqrt(det g) e^{1...n}.  Construction decides positivity and det g by
    the backend's rule, linalg.positive_det or its float twin positive_det_np,
    and compares det g with vol^2: exactly in the rational backend, in floats
    to relative 1e-9 + n eps H, the rounding of a Cholesky det, with
    H = prod g_ii / det g >= 1 the Hadamard ratio.
    """

    __slots__ = ("n", "g", "vol", "backend", "_gram")

    def __init__(self, g, vol: KForm):
        rows = [tuple(r) for r in g]
        n = len(rows)
        flat = [x for r in rows for x in r]
        backend = backend_of(flat)
        require_same_backend(backend, vol.backend)
        if vol.n != n or vol.k != n:
            raise ValueError("volume form must have top degree on the same space")
        rows = [coerce(r, backend) for r in rows]
        if not all(negligible(rows[i][j] - rows[j][i], rows[i][j], 1e-12)
                   for i in range(n) for j in range(i + 1, n)):
            raise ValueError("metric must be symmetric")
        volc = vol.coeffs[0]
        if volc <= 0:
            raise ValueError("volume coefficient must be positive")
        det_g = (linalg.positive_det(rows) if backend == RATIONAL
                 else linalg.positive_det_np(np.array(rows)))
        if det_g is None:
            raise ValueError("metric must be positive-definite")
        # a rational det g is exact; a float one, the product of the Cholesky
        # pivots, is good to about n eps H, H = prod g_ii / det g
        tol = 1e-9 if backend == RATIONAL else \
            1e-9 + n * EPS * math.prod(row[i] for i, row in enumerate(rows)) / det_g
        if not negligible(det_g - volc * volc, volc * volc, tol):
            raise ValueError("volume form inconsistent with det(g)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "g", tuple(rows))
        object.__setattr__(self, "vol", vol)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "_gram", {})

    def __setattr__(self, *_):
        raise AttributeError("MetricData is immutable")

    def __reduce__(self):
        return (MetricData, (self.g, self.vol))

    @classmethod
    def identity(cls, n, backend=RATIONAL):
        one = Fraction(1) if backend == RATIONAL else 1.0
        g = [[one if i == j else 0 * one for j in range(n)] for i in range(n)]
        vol = KForm.monomial(n, tuple(range(1, n + 1)), one, backend)
        return cls(g, vol)

    @property
    def vol_coeff(self):
        return self.vol.coeffs[0]

    def g_inv(self):
        return self.gram(1)

    def gram(self, k: int):
        """Gram matrix Lambda^k g^-1 on degree-k forms, cached per degree; entry
        (I, J) is det g^-1[I, J], and column J is g^-1 e^{j_1} ^ ... ^ g^-1 e^{j_k}.
        Degree 1 is g^-1 itself, by the backend's inverse.  Float: every k x k
        minor by one batched LU determinant.  Rational: Laplace expansion along
        the last column over the cached degree-(k-1) table,
        sum_r (-1)^(k+r) g^-1[i_r, j_k] gram_{k-1}[I - i_r][J - j_k] (r = 1..k)."""
        if k in self._gram:
            return self._gram[k]
        n = self.n
        if k == 1:
            inv = (linalg.inverse(self.g) if self.backend == RATIONAL
                   else np.linalg.inv(np.array(self.g)).tolist())
            gram = tuple(map(tuple, inv))
        elif self.backend == FLOAT:
            idx = basis_indices(n, k)
            idx = np.array(idx, int).reshape(len(idx), k)
            sub = np.array(self.gram(1))[idx[:, None, :, None], idx[None, :, None, :]]
            gram = tuple(tuple(row) for row in np.linalg.det(sub).tolist())  # (N, N) minors
        elif k == 0:
            gram = ((Fraction(1),),)
        else:
            prev, pos, idxs = self.gram(k - 1), index_position(n, k - 1), basis_indices(n, k)
            ends = [[(b, pos[idx[:-1]]) for b, idx in enumerate(idxs) if idx[-1] == j]
                    for j in range(n)]
            support = [[(j, x) for j, x in enumerate(row) if x] for row in self.gram(1)]
            rows = [[Fraction(0)] * len(idxs) for _ in idxs]
            # e^{I - i_r} ^ e^{i_r} = (-1)^(k+r) e^I: one wedge pair per term
            for (p, i), (a, sign) in wedge_pairs(n, k - 1, 1).items():
                for j, gij in support[i]:
                    for b, rest in ends[j]:
                        if prev[p][rest]:
                            rows[a][b] += sign * gij * prev[p][rest]
            gram = tuple(map(tuple, rows))
        self._gram[k] = gram
        return gram

    def to_float(self) -> "MetricData":
        if self.backend == FLOAT:
            return self
        return MetricData([[float(x) for x in row] for row in self.g],
                          self.vol.to_float())


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def wedge(alpha: KForm, beta: KForm) -> KForm:
    """Wedge product; graded-commutative, coefficient-exact over rationals."""
    if alpha.n != beta.n:
        raise ValueError("ambient dimension mismatch")
    backend = require_same_backend(alpha.backend, beta.backend)
    p, q = alpha.k, beta.k
    if p + q > alpha.n:
        raise ValueError("degree %d + %d exceeds ambient dimension" % (p, q))
    if p == 0:
        return alpha.coeffs[0] * beta
    if q == 0:
        return beta.coeffs[0] * alpha
    out = [zero(backend)] * len(basis_indices(alpha.n, p + q))
    pairs = wedge_pairs(alpha.n, p, q)
    for ip, a in enumerate(alpha.coeffs):
        if a == 0:
            continue
        for jp, b in enumerate(beta.coeffs):
            if b == 0:
                continue
            hit = pairs.get((ip, jp))
            if hit is None:
                continue
            op, sign = hit
            out[op] += sign * a * b
    return KForm(alpha.n, p + q, out, backend)


def interior(vector, alpha: KForm) -> KForm:
    """Interior product (contraction in the first slot) of a vector field."""
    if alpha.k < 1:
        raise ValueError("interior product needs degree >= 1")
    vector = tuple(vector)
    if len(vector) != alpha.n:
        raise ValueError("vector length mismatch")
    backend = require_same_backend(backend_of(vector), alpha.backend)
    vector = coerce(vector, backend)
    out = [zero(backend)] * len(basis_indices(alpha.n, alpha.k - 1))
    table = interior_table(alpha.n, alpha.k)
    for i, x in enumerate(vector):
        if x == 0:
            continue
        for pos_in, pos_out, sign in table[i]:
            c = alpha.coeffs[pos_in]
            if c != 0:
                out[pos_out] += sign * x * c
    return KForm(alpha.n, alpha.k - 1, out, backend)


def basis_vector(n: int, i: int, backend=RATIONAL):
    """The i-th standard basis vector (1-based)."""
    one = Fraction(1) if backend == RATIONAL else 1.0
    return tuple(one if j == i - 1 else 0 * one for j in range(n))


def endo_action(a: Endo, gamma: KForm) -> KForm:
    """Derivation action: sum over slots of gamma(..., A X_i, ...).

    On one-forms this is the transpose action e^i -> sum_j A[i][j] e^j, and it
    extends to higher degree as a derivation of the wedge product:
    A gamma = sum_ij A[i][j] e^j wedge (e_i interior gamma).
    The identity endomorphism acts as multiplication by the degree.
    """
    if a.n != gamma.n:
        raise ValueError("dimension mismatch")
    backend = require_same_backend(a.backend, gamma.backend)
    n, k = gamma.n, gamma.k
    if k == 0:
        return KForm.zero(n, 0, backend)
    put = wedge_pairs(n, 1, k - 1)
    out = [zero(backend)] * len(gamma.coeffs)
    for i, contractions in enumerate(interior_table(n, k)):
        row = [(j, aij) for j, aij in enumerate(a.rows[i]) if aij != 0]
        for p, q, s in contractions:
            c = gamma.coeffs[p]
            if c == 0:
                continue
            for j, aij in row:
                hit = put.get((j, q))
                if hit is not None:
                    out[hit[0]] += (s * hit[1]) * aij * c
    return KForm(n, k, out, backend)


def _raised(metric: MetricData, gamma: KForm):
    """Coefficients of Lambda^k g^-1 gamma: sum_J gram[I][J] gamma_J in index
    order, over the nonzero gamma_J and the nonzero Gram entries only."""
    support = [(j, c) for j, c in enumerate(gamma.coeffs) if c != 0]
    return [sum(row[j] * c for j, c in support if row[j]) for row in metric.gram(gamma.k)]


def inner(metric: MetricData, alpha: KForm, beta: KForm):
    """Metric inner product on degree-k forms: alpha . Lambda^k g^-1 . beta."""
    if (alpha.n, alpha.k) != (beta.n, beta.k):
        raise ValueError("form shape mismatch")
    require_same_backend(metric.backend, alpha.backend, beta.backend)
    total = zero(metric.backend)
    for a, s in zip(alpha.coeffs, _raised(metric, beta)):
        if a != 0:
            total += a * s
    return total


def norm_sq(metric: MetricData, alpha: KForm):
    return inner(metric, alpha, alpha)


def identity_holds(gap: KForm, ref: KForm) -> bool:
    """Guard of a closed identity lhs = ref, given gap = lhs - ref.

    Exact in the rational backend; in float the l2 norm of the gap is at
    most 1e-9 * max(1, |ref|_2).
    """
    if gap.backend == RATIONAL:
        return gap.is_zero()
    return gap.norm_l2() <= 1e-9 * max(1.0, ref.norm_l2())


def hodge(metric: MetricData, gamma: KForm) -> KForm:
    """Hodge star: alpha wedge (star gamma) = <alpha, gamma> vol for all alpha."""
    if metric.n != gamma.n:
        raise ValueError("dimension mismatch")
    require_same_backend(metric.backend, gamma.backend)
    n, k = gamma.n, gamma.k
    out = [zero(metric.backend)] * len(basis_indices(n, n - k))
    for (cpos, sign), s in zip(complement_table(n, k), _raised(metric, gamma)):
        if s != 0:
            out[cpos] += sign * s * metric.vol_coeff
    return KForm(n, n - k, out, metric.backend)
