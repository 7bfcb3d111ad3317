"""Lie algebras presented by structure equations.

An n-dimensional Lie algebra is stored as the degree-1 part of its
Chevalley-Eilenberg differential: the list (de^1, ..., de^n) of 2-forms.
d in each degree is kept once, as the sparse columns of d e^I that
``ce_differential`` reads in both scalar backends and ``d_rank`` ranks as
the rows of d^T.  The Jacobi identity
is equivalent to d o d = 0.  The constructor reads the
bracket off de^k(e_i, e_j) = -e^k([e_i, e_j]) once, into one table of the
nonzero structure constants c_ij^k of every ordered pair; brackets,
ad-matrices, unimodularity and the derivation equations read only that
table.  ``is_derivation`` tests D against the derivation equations.
``structure_flags`` builds [g, g] once from the table: it opens both the
derived series and the lower central series, and its Killing-orthogonal is
the radical.

Everything structural (ranks, series, radicals, derivation spaces) is
computed over exact rationals; parameters must be rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .exterior import Endo, KForm, basis_indices, index_position, wedge_pairs
from .scalars import RATIONAL, as_rational, zero

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
        # _sc[i][j]: the (k, c), c != 0, of [e_i, e_j] = sum_k c e_k; c = -de^k(e_i, e_j)
        sc = [[[] for _ in range(n)] for _ in range(n)]
        for k, f in enumerate(d1):
            for (i, j), c in zip(basis_indices(n, 2), f.coeffs):
                if c:
                    sc[i][j].append((k, -c))
                    sc[j][i].append((k, c))
        self._sc = tuple(tuple(tuple(pairs) for pairs in row) for row in sc)
        self._d_columns = {}
        self._d_ranks = {}
        # check_jacobi, _flags_and_radical, g2._search_cubics
        self._jacobi = self._flags = self._search_cubics = None
        if check and check_jacobi(self) != 0:
            raise InvalidStructureError("structure equations violate the Jacobi identity")

    # -- bracket -------------------------------------------------------------

    def bracket_basis(self, i: int, j: int):
        """[e_i, e_j] for 0-based basis indices, as a coefficient tuple."""
        out = [ZERO] * self.n
        for k, c in self._sc[i][j]:
            out[k] = c
        return tuple(out)

    def bracket(self, x, y):
        """Bracket of two coefficient vectors (exact)."""
        x = [as_rational(v) for v in x]
        y = [as_rational(v) for v in y]
        out = [ZERO] * self.n
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj != 0:
                    for k, c in self._sc[i][j]:
                        out[k] += xi * yj * c
        return tuple(out)

    def ad(self, i: int):
        """Matrix of ad_{e_i} acting on coefficient vectors."""
        m = [[ZERO] * self.n for _ in range(self.n)]
        for j, pairs in enumerate(self._sc[i]):
            for k, c in pairs:
                m[k][j] = c
        return m

    # -- differential ----------------------------------------------------------

    def d_columns(self, k: int):
        """Sparse columns of d: degree k -> degree k+1, built once per degree.

        Entry I lists the (row, c), c != 0, of
        d e^I = sum_p (-1)^p de^{I_p} ^ e^{I - I_p}, from +c and -c formed once
        per structure constant c: the first hit on a row is stored as it is.
        """
        if k not in self._d_columns:
            n = self.n
            cols = [{} for _ in basis_indices(n, k)]
            if 0 < k < n:  # d of constants vanishes
                pairs, rest_pos = wedge_pairs(n, 2, k - 1), index_position(n, k - 1)
                terms = [[(pos, (c, -c)) for pos, c in enumerate(f.coeffs) if c]
                         for f in self.d1]
                for col, idx in zip(cols, basis_indices(n, k)):
                    for p, i in enumerate(idx):
                        rest, sign = rest_pos[idx[:p] + idx[p + 1:]], (-1) ** p
                        for pos, pm in terms[i]:
                            hit = pairs.get((pos, rest))
                            if hit is not None:  # +c where the signs agree
                                r, v = hit[0], pm[hit[1] != sign]
                                x = col.get(r)
                                col[r] = v if x is None else x + v
            self._d_columns[k] = tuple(tuple((r, c) for r, c in col.items() if c)
                                       for col in cols)
        return self._d_columns[k]

    def d_matrix(self, k: int):
        """Exact dense matrix of d: degree k -> degree k+1 (rows = target
        basis), assembled afresh from ``d_columns(k)``; [] for k >= n.  A copy
        for callers that want one: the library ranks and solves on the columns."""
        cols = [dict(col) for col in self.d_columns(k)]
        return [[col.get(r, ZERO) for col in cols]
                for r in range(len(basis_indices(self.n, k + 1)))]

    def d_rank(self, k: int) -> int:
        """Exact rank of d: degree k -> degree k+1, computed once per degree as
        the rank of d^T, whose rows are ``d_columns(k)``."""
        if k not in self._d_ranks:
            self._d_ranks[k] = linalg.rank([dict(col) for col in self.d_columns(k)])
        return self._d_ranks[k]

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
    """Extend (de^1, ..., de^n) to an antiderivation on all degrees: the sum
    of c * gamma_I over the nonzero gamma_I and the (row, c) of ``d_columns``,
    exact for a rational gamma and float(c) * gamma_I for a float one.

    For a top-degree input the differential is the zero map; the zero form of
    top degree is returned so callers can still test for vanishing.
    """
    if gamma.n != alg.n:
        raise ValueError("form lives on the wrong space")
    n, k = alg.n, gamma.k
    if k >= n:
        return KForm.zero(n, n, gamma.backend)
    out = [zero(gamma.backend)] * len(basis_indices(n, k + 1))
    for x, col in zip(gamma.coeffs, alg.d_columns(k)):
        if x:
            for r, c in col:
                out[r] += c * x
    return KForm(n, k + 1, out, gamma.backend)


def check_jacobi(alg: LieAlgebra) -> Fraction:
    """Largest |coefficient| of d(de^k) over all k; zero iff Jacobi holds.
    Computed once per algebra."""
    if alg._jacobi is None:
        worst = ZERO
        for f in alg.d1:
            worst = max(worst, ce_differential(alg, f).max_abs())
        alg._jacobi = worst
    return alg._jacobi


def betti(alg: LieAlgebra, k: int) -> int:
    """dim H^k of the Chevalley-Eilenberg complex, by exact ranks."""
    if not (0 <= k <= alg.n):
        raise ValueError("degree out of range")
    dim_k = len(basis_indices(alg.n, k))
    rank_k = alg.d_rank(k) if k < alg.n else 0
    rank_km1 = alg.d_rank(k - 1) if k >= 1 else 0
    return dim_k - rank_k - rank_km1


def is_unimodular(alg: LieAlgebra) -> bool:
    """True iff tr(ad_{e_i}) = sum_j c_ij^j = 0 for every i."""
    return all(sum((c for j, pairs in enumerate(row) for k, c in pairs if k == j), ZERO)
               == 0 for row in alg._sc)


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


def _span(vectors):
    """Canonical basis (rref rows) of the span of the given vectors."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return []
    red, pivots = linalg.rref(rows)
    return [red[r] for r in range(len(pivots))]


def _bracket_span(alg, ubasis, vbasis):
    """Span of the [u, v], summed over the nonzero coordinates of u and v and
    the nonzero structure constants."""
    vs = [[(j, y) for j, y in enumerate(v) if y] for v in vbasis]
    prods = []
    for u in ubasis:
        us = [(i, x) for i, x in enumerate(u) if x]
        for v in vs:
            out = [ZERO] * alg.n
            for i, x in us:
                for j, y in v:
                    for k, c in alg._sc[i][j]:
                        out[k] += x * y * c
            prods.append(out)
    return _span(prods)


def _trace_form(ads):
    """[[tr(a_i a_j)]] = [[sum_{a,b} a_i[a][b] a_j[b][a]]] over the nonzero factors."""
    m = len(ads)
    out = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        nonzero = [(a, b, x) for a, row in enumerate(ads[i])
                   for b, x in enumerate(row) if x]
        for j in range(i, m):
            adj = ads[j]
            out[i][j] = out[j][i] = sum((x * adj[b][a] for a, b, x in nonzero if adj[b][a]),
                                        ZERO)
    return out


def killing_matrix(alg: LieAlgebra):
    return _trace_form([alg.ad(i) for i in range(alg.n)])


def _derived(alg):
    """Canonical basis of [g, g]: the span of the [e_i, e_j], i < j."""
    n = alg.n
    return _span([alg.bracket_basis(i, j) for i in range(n) for j in range(i + 1, n)])


def _series_dims(first, step, n):
    """Dimensions of first, step(first), ... up to and including the first
    repeat or zero; the series opens on g itself, of dimension n."""
    dims, prev, cur = [len(first)], n, first
    while dims[-1] not in (0, prev):
        prev, cur = len(cur), step(cur)
        dims.append(len(cur))
    return dims


def radical_basis(alg: LieAlgebra):
    """Exact basis of the radical, the Killing-orthogonal of [g, g], as the
    canonical rows that ``structure_flags`` reads."""
    return _flags_and_radical(alg)[1]


def structure_flags(alg: LieAlgebra) -> StructureFlags:
    """Solvability, nilpotency, radical and Levi-quotient type.

    One [g, g] opens both the derived series and the lower central series,
    and its Killing-orthogonal complement is the radical.  When the
    semisimple quotient is 3-dimensional, its Killing signature
    distinguishes sl(2,R) (indefinite) from su(2) (negative-definite).
    """
    return _flags_and_radical(alg)[0]


def _flags_and_radical(alg):
    """``structure_flags`` and the canonical radical basis it is read from, as a
    tuple of rows; computed once per algebra."""
    if alg._flags is not None:
        return alg._flags
    n = alg.n
    full = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    derived = _derived(alg)
    derived_dims = _series_dims(derived, lambda cur: _bracket_span(alg, cur, cur), n)
    lcs_dims = _series_dims(derived, lambda cur: _bracket_span(alg, full, cur), n)
    kil = killing_matrix(alg)  # the radical: the Killing-orthogonal of [g, g]
    constraint = [linalg.matvec(kil, b) for b in derived]
    radical = [tuple(v) for v in _span(linalg.nullspace(constraint, ncols=n))]
    ss_dim = n - len(radical)
    alg._flags = StructureFlags(
        solvable=derived_dims[-1] == 0,
        nilpotent=lcs_dims[-1] == 0,
        nilpotent_step=len(lcs_dims) if lcs_dims[-1] == 0 else None,
        derived_series_dims=tuple(derived_dims),
        lower_central_dims=tuple(lcs_dims),
        radical_dim=len(radical),
        semisimple_dim=ss_dim,
        levi_type=_levi3_type(alg, radical) if ss_dim == 3 else None,
    ), tuple(radical)
    return alg._flags


def _levi3_type(alg, radical):
    """Type of the 3-dim semisimple quotient g/rad from its Killing form K.

    A 3-dim semisimple algebra is su(2) or sl(2, R): "su2" when K is negative
    definite, otherwise "sl2R".  ``radical`` is in canonical rref form,
    so its pivots are the leading nonzeros of its rows; the standard vectors
    on the other columns complete the radical to a basis of g.
    """
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in radical]
    free = [c for c in range(alg.n) if c not in pivots]

    def quotient_coords(vec):
        # vec = sum_r vec[p_r] radical_r + sum_c beta_c e_c; read beta off the free columns
        return [vec[c] - sum((vec[p] * radical[r][c] for r, p in enumerate(pivots)), ZERO)
                for c in free]

    # ad_q[i][k][j]: coordinate k of [e_free[i], e_free[j]] modulo the radical
    ad_q = [list(zip(*[quotient_coords(alg.bracket_basis(a, b)) for b in free]))
            for a in free]
    kil = _trace_form(ad_q)
    negative_definite = linalg.positive_det([[-x for x in row] for row in kil]) is not None
    return "su2" if negative_definite else "sl2R"


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


def is_derivation(alg: LieAlgebra, d: Endo) -> bool:
    """True iff D[x, y] = [Dx, y] + [x, Dy]: D solves the derivation equations."""
    if d.n != alg.n:
        raise ValueError("endomorphism has wrong dimension")
    entries = [as_rational(x) for row in d.rows for x in row]
    return not any(sum((c * entries[col] for col, c in eq.items()), ZERO)
                   for eq in _derivation_rows(alg))


def derivation_equations(alg: LieAlgebra):
    """Rows of the homogeneous linear system cutting out Der(alg), dense.

    Unknowns are the n^2 entries of D in row-major order.  Row (i, j, k),
    i < j, is the e_k coefficient of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j];
    all-zero rows are dropped.
    """
    return [[eq.get(col, ZERO) for col in range(alg.n ** 2)] for eq in _derivation_rows(alg)]


def _derivation_rows(alg):
    """The rows of ``derivation_equations`` as {row-major position: coefficient} dicts."""
    n, sc = alg.n, alg._sc
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            eqs = [{} for _ in range(n)]  # per k: {row-major position: coefficient}
            # D[e_i,e_j]_k = sum_m D[k][m] c_ij^m
            for m, c in sc[i][j]:
                for k in range(n):
                    eqs[k][k * n + m] = c
            # -[De_i, e_j]_k - [e_i, De_j]_k = -sum_m (D[m][i] c_mj^k + D[m][j] c_im^k)
            for m in range(n):
                for col, pairs in ((m * n + i, sc[m][j]), (m * n + j, sc[i][m])):
                    for k, c in pairs:
                        eqs[k][col] = eqs[k].get(col, ZERO) - c
            rows += [eq for eq in eqs if any(eq.values())]
    return rows


def derivation_space(alg: LieAlgebra) -> DerivationSpace:
    """Exact basis of Der(alg) as the nullspace of the derivation equations."""
    n = alg.n
    null = linalg.nullspace(_derivation_rows(alg), ncols=n * n)
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
    # de^i + (D act e^i) ^ e^{n+1}, D act e^i = sum_j D_ij e^j; de^{n+1} = 0
    equations = {i + 1: {**f.terms(), **{(j + 1, n + 1): dij for j, dij in enumerate(row)}}
                 for i, (f, row) in enumerate(zip(alg.d1, d.rows))}
    return from_structure_equations(n + 1, equations, params=alg.params,
                                    name=name or (alg.name + "+R" if alg.name else ""))


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
    return _jacobi_checked(_extension_structure(alg, d, name=name))


def _jacobi_checked(ext: LieAlgebra) -> LieAlgebra:
    """``ext``, after checking Jacobi on the extension by a known derivation."""
    residual = check_jacobi(ext)
    if residual != 0:
        raise InvalidStructureError(
            "extension violates Jacobi (residual %s); derivation check is broken"
            % residual)
    return ext
