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
    require_same_backend,
)

MAX_DIM = 8
MIN_DIM = 3


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


def merge_sign(i_idx, j_idx):
    """Sign and sorted union of two disjoint increasing tuples, or None."""
    if set(i_idx) & set(j_idx):
        return None
    inv = 0
    for a in i_idx:
        for b in j_idx:
            if a > b:
                inv += 1
    merged = tuple(sorted(i_idx + j_idx))
    return (-1) ** inv, merged


@lru_cache(maxsize=None)
def wedge_pairs(n: int, p: int, q: int):
    """dict (pos_p, pos_q) -> (pos_{p+q}, sign) for nonzero basis wedges."""
    out_pos = index_position(n, p + q)
    table = {}
    for ip, i_idx in enumerate(basis_indices(n, p)):
        for jp, j_idx in enumerate(basis_indices(n, q)):
            ms = merge_sign(i_idx, j_idx)
            if ms is None:
                continue
            sign, merged = ms
            table[(ip, jp)] = (out_pos[merged], sign)
    return table


@lru_cache(maxsize=None)
def wedge_tensor(n: int, p: int, q: int) -> np.ndarray:
    """Dense float sign tensor T with (a wedge b) = einsum('i,j,ijc', a, b, T)."""
    np_, nq, nout = (len(basis_indices(n, d)) for d in (p, q, p + q))
    t = np.zeros((np_, nq, nout))
    for (ip, jp), (op, sign) in wedge_pairs(n, p, q).items():
        t[ip, jp, op] = sign
    return t


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
        sign, _ = merge_sign(idx, comp)
        table.append((out_pos[comp], sign))
    return tuple(table)


@lru_cache(maxsize=None)
def _index_array(n: int, k: int) -> np.ndarray:
    return np.array(basis_indices(n, k))


def gram_np(ginv: np.ndarray, k: int) -> np.ndarray:
    """Float Gram matrix on degree-k forms, k >= 1: the k x k minors of ginv."""
    idx = _index_array(len(ginv), k)
    sub = ginv[idx[:, None, :, None], idx[None, :, None, :]]
    return np.linalg.det(sub) if k > 1 else sub[:, :, 0, 0]


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
        zero = Fraction(0) if backend == RATIONAL else 0.0
        return cls(n, k, [zero] * len(basis_indices(n, k)), backend)

    @classmethod
    def from_terms(cls, n, k, terms, backend=None):
        """Build from {(i_1,...,i_k): coefficient} with 1-based indices.

        Indices need not be sorted; the usual alternating sign is applied.
        """
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
            sign = _permutation_sign(zero_based)
            vals[order] = vals.get(order, 0) + sign * c
        coeffs = [vals.get(idx, 0) for idx in basis_indices(n, k)]
        return cls(n, k, coeffs, backend)

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
            return Fraction(0) if self.backend == RATIONAL else 0.0
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
        return max((abs(c) for c in self.coeffs), default=0)

    def norm_l2(self) -> float:
        return float(np.sqrt(sum(float(c) * float(c) for c in self.coeffs)))

    # -- conversions ---------------------------------------------------------

    def to_float(self) -> "KForm":
        if self.backend == FLOAT:
            return self
        return KForm(self.n, self.k, [float(c) for c in self.coeffs], FLOAT)

    def to_rational(self) -> "KForm":
        """Exact binary-expansion conversion of float coefficients."""
        if self.backend == RATIONAL:
            return self
        return KForm(self.n, self.k, [Fraction(c) for c in self.coeffs], RATIONAL)

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
        return sum((self.rows[i][i] for i in range(self.n)),
                   Fraction(0) if self.backend == RATIONAL else 0.0)

    def apply(self, v):
        """Matrix-vector product A v."""
        return tuple(sum(self.rows[i][j] * v[j] for j in range(self.n))
                     for i in range(self.n))

    def to_float(self) -> "Endo":
        if self.backend == FLOAT:
            return self
        return Endo([[float(a) for a in row] for row in self.rows], FLOAT)

    @property
    def np_matrix(self) -> np.ndarray:
        return np.array([[float(a) for a in row] for row in self.rows])

    def __repr__(self):
        return "Endo(%r)" % (list(list(r) for r in self.rows),)


# ---------------------------------------------------------------------------
# Metric data
# ---------------------------------------------------------------------------

class MetricData:
    """Inner product g on R^n together with the oriented volume form.

    The volume form must be a positive multiple of e^{1...n} and satisfy
    vol = sqrt(det g) e^{1...n}; this is asserted at construction (exactly in
    the rational backend, to relative 1e-9 in floats).
    """

    __slots__ = ("n", "g", "vol", "backend", "_ginv", "_gram")

    def __init__(self, g, vol: KForm):
        rows = [tuple(r) for r in g]
        n = len(rows)
        flat = [x for r in rows for x in r]
        backend = backend_of(flat)
        require_same_backend(backend, vol.backend)
        if vol.n != n or vol.k != n:
            raise ValueError("volume form must have top degree on the same space")
        rows = [coerce(r, backend) for r in rows]
        for i in range(n):
            for j in range(n):
                if backend == RATIONAL:
                    if rows[i][j] != rows[j][i]:
                        raise ValueError("metric must be symmetric")
                elif abs(rows[i][j] - rows[j][i]) > 1e-12 * (1 + abs(rows[i][j])):
                    raise ValueError("metric must be symmetric")
        volc = vol.coeffs[0]
        if volc <= 0:
            raise ValueError("volume coefficient must be positive")
        if backend == RATIONAL:
            det_g = linalg.positive_det([list(r) for r in rows])
            if det_g is None:
                raise ValueError("metric must be positive-definite")
            if det_g != volc * volc:
                raise ValueError("volume form inconsistent with det(g)")
        else:
            arr = np.array(rows)
            try:
                np.linalg.cholesky(arr)
            except np.linalg.LinAlgError:
                raise ValueError("metric must be positive-definite") from None
            if abs(np.linalg.det(arr) - volc * volc) > 1e-9 * max(1.0, volc * volc):
                raise ValueError("volume form inconsistent with det(g)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "g", tuple(rows))
        object.__setattr__(self, "vol", vol)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "_ginv", None)
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
        if self._ginv is None:
            if self.backend == RATIONAL:
                inv = linalg.inverse([list(r) for r in self.g])
                object.__setattr__(self, "_ginv", tuple(tuple(r) for r in inv))
            else:
                inv = np.linalg.inv(np.array(self.g))
                object.__setattr__(self, "_ginv", tuple(tuple(r) for r in inv.tolist()))
        return self._ginv

    def gram(self, k: int):
        """Gram matrix of the induced inner product on degree-k forms."""
        if k in self._gram:
            return self._gram[k]
        ginv = self.g_inv()
        idxs = basis_indices(self.n, k)
        if k == 0:
            gram = ((Fraction(1) if self.backend == RATIONAL else 1.0,),)
        elif self.backend == RATIONAL:
            gram = tuple(
                tuple(
                    linalg.det([[ginv[a][b] for b in j_idx] for a in i_idx])
                    if k > 1 else ginv[i_idx[0]][j_idx[0]]
                    for j_idx in idxs
                )
                for i_idx in idxs
            )
        else:
            gram = tuple(tuple(row) for row in gram_np(np.array(ginv), k).tolist())
        self._gram[k] = gram
        return gram

    def to_float(self) -> "MetricData":
        if self.backend == FLOAT:
            return self
        return MetricData([[float(x) for x in row] for row in self.g],
                          self.vol.to_float())

    @property
    def np_g(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.g])


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
    out = [Fraction(0) if backend == RATIONAL else 0.0] \
        * len(basis_indices(alpha.n, p + q))
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
    out = [Fraction(0) if backend == RATIONAL else 0.0] \
        * len(basis_indices(alpha.n, alpha.k - 1))
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
    extends to higher degree as a derivation of the wedge product.
    The identity endomorphism acts as multiplication by the degree.
    """
    if a.n != gamma.n:
        raise ValueError("dimension mismatch")
    backend = require_same_backend(a.backend, gamma.backend)
    if gamma.k == 0:
        return KForm.zero(gamma.n, 0, backend)
    pos = index_position(gamma.n, gamma.k)
    out = [Fraction(0) if backend == RATIONAL else 0.0] * len(gamma.coeffs)
    for p, idx in enumerate(basis_indices(gamma.n, gamma.k)):
        c = gamma.coeffs[p]
        if c == 0:
            continue
        for slot in range(gamma.k):
            i = idx[slot]
            # replace e^i by A* e^i = sum_j A[i][j] e^j in this slot
            for j in range(gamma.n):
                aij = a.rows[i][j]
                if aij == 0:
                    continue
                new_idx = idx[:slot] + (j,) + idx[slot + 1:]
                if len(set(new_idx)) != gamma.k:
                    continue
                order = tuple(sorted(new_idx))
                sign = _permutation_sign(new_idx)
                out[pos[order]] += sign * aij * c
    return KForm(gamma.n, gamma.k, out, backend)


def inner(metric: MetricData, alpha: KForm, beta: KForm):
    """Metric inner product on degree-k forms (Gram-determinant extension)."""
    if (alpha.n, alpha.k) != (beta.n, beta.k):
        raise ValueError("form shape mismatch")
    require_same_backend(metric.backend, alpha.backend, beta.backend)
    gram = metric.gram(alpha.k)
    total = Fraction(0) if metric.backend == RATIONAL else 0.0
    for i, a in enumerate(alpha.coeffs):
        if a == 0:
            continue
        row = gram[i]
        total += a * sum(row[j] * b for j, b in enumerate(beta.coeffs) if b != 0)
    return total


def norm_sq(metric: MetricData, alpha: KForm):
    return inner(metric, alpha, alpha)


def hodge(metric: MetricData, gamma: KForm) -> KForm:
    """Hodge star: alpha wedge (star gamma) = <alpha, gamma> vol for all alpha."""
    if metric.n != gamma.n:
        raise ValueError("dimension mismatch")
    require_same_backend(metric.backend, gamma.backend)
    n, k = gamma.n, gamma.k
    gram = metric.gram(k)
    volc = metric.vol_coeff
    out = [Fraction(0) if metric.backend == RATIONAL else 0.0] \
        * len(basis_indices(n, n - k))
    comp = complement_table(n, k)
    for i in range(len(gamma.coeffs)):
        s = sum(gram[i][j] * c for j, c in enumerate(gamma.coeffs) if c != 0)
        if s != 0:
            cpos, sign = comp[i]
            out[cpos] += sign * s * volc
    return KForm(n, n - k, out, metric.backend)
