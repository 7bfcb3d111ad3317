"""Independent brute-force implementations used to cross-check the library.

Everything here is deliberately written without reusing the library's sign
tables: forms are plain dicts {sorted 0-based tuple: Fraction}, the wedge is
the shuffle-sum definition, and ranks come from sympy.  Slow but obviously
correct on the small spaces involved.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np
import sympy


def perm_sign(seq):
    inv = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
              if seq[a] > seq[b])
    return (-1) ** inv


def form_value(terms, indices):
    """Evaluate a form dict on a tuple of (possibly unsorted) 0-based indices."""
    if len(set(indices)) != len(indices):
        return Fraction(0)
    key = tuple(sorted(indices))
    return perm_sign(indices) * terms.get(key, Fraction(0))


def wedge_oracle(a_terms, p, b_terms, q, n):
    """Shuffle-sum wedge: (a^b)(e_I) = sum over (p,q)-shuffles of signs."""
    out = {}
    for idx in combinations(range(n), p + q):
        total = Fraction(0)
        for left in combinations(range(p + q), p):
            right = tuple(i for i in range(p + q) if i not in left)
            shuffle = left + right
            sign = perm_sign(shuffle)
            total += sign * form_value(a_terms, tuple(idx[i] for i in left)) \
                * form_value(b_terms, tuple(idx[i] for i in right))
        if total:
            out[idx] = total
    return out


def interior_oracle(i, terms, k, n):
    """(i_{e_i} a)(X_2..X_k) = a(e_i, X_2..X_k)."""
    out = {}
    for idx in combinations(range(n), k - 1):
        val = form_value(terms, (i,) + idx)
        if val:
            out[idx] = val
    return out


def endo_oracle(rows, terms, k, n):
    """(A act a)(X_1..X_k) = sum_slots a(..., A X_slot, ...)."""
    out = {}
    for idx in combinations(range(n), k):
        total = Fraction(0)
        for slot in range(k):
            for m in range(n):
                coeff = Fraction(rows[m][idx[slot]])
                if coeff:
                    replaced = idx[:slot] + (m,) + idx[slot + 1:]
                    total += coeff * form_value(terms, replaced)
        if total:
            out[idx] = total
    return out


def compatible_derivations_oracle(alg, psi_terms, c):
    """Derivations D with (D act psi) = -c psi, solved in the n^2 entries of D.

    The unknown D[m][j] sits at m * n + j.  The rows are the derivation
    equations, the e_k coefficients of D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j]
    from ``structure_constants_oracle``, and one row per 3-form basis element
    holding the actions of the n^2 unit endomorphisms on psi by ``endo_oracle``.
    sympy solves the system.  Returns (particular, directions) as n x n lists
    of Fractions, with particular None when the system is inconsistent and
    directions a basis of its homogeneous solutions.
    """
    n = alg.n
    brackets = structure_constants_oracle(alg)
    rows, rhs = [], []
    for i, j in combinations(range(n), 2):
        eqs = [[Fraction(0)] * (n * n) for _ in range(n)]
        for m, x in brackets.get((i, j), ()):
            for k in range(n):
                eqs[k][k * n + m] += x
        for m in range(n):
            for k, x in brackets.get((m, j), ()):
                eqs[k][m * n + i] -= x
            for k, x in brackets.get((i, m), ()):
                eqs[k][m * n + j] -= x
        rows += eqs
        rhs += [Fraction(0)] * n
    units = [endo_oracle([[int((a, b) == (r, col)) for b in range(n)] for a in range(n)],
                         psi_terms, 3, n)
             for r in range(n) for col in range(n)]
    for idx in combinations(range(n), 3):
        rows.append([u.get(idx, Fraction(0)) for u in units])
        rhs.append(-Fraction(c) * psi_terms.get(idx, Fraction(0)))
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])

    def square(v):
        return [[Fraction(int(v[a * n + b].p), int(v[a * n + b].q)) for b in range(n)]
                for a in range(n)]

    try:
        sol, free = m.gauss_jordan_solve(sympy.Matrix([sympy.Rational(x) for x in rhs]))
        particular = square(sol.subs({p: 0 for p in free}))
    except ValueError:  # inconsistent
        particular = None
    return particular, [square(v) for v in m.nullspace()]


def kform_to_terms(form):
    """Library KForm -> oracle dict with 0-based keys."""
    return {tuple(i - 1 for i in idx): Fraction(c)
            for idx, c in form.terms().items()}


def terms_match(oracle_terms, form) -> bool:
    return oracle_terms == kform_to_terms(form)


@lru_cache(maxsize=None)
def structure_constants_oracle(alg):
    """{(i, j): [(k, c_ij^k), ...]} of [e_i, e_j] = sum_k c_ij^k e_k over the
    nonzero c_ij^k, i != j, read off c_ij^k = -de^k(e_i, e_j) by form_value."""
    n = alg.n
    de = [kform_to_terms(f) for f in alg.d1]
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = -form_value(de[k], (i, j))
                if c != 0:
                    out.setdefault((i, j), []).append((k, c))
    return out


def ce_differential_oracle(alg, terms, k):
    """Koszul formula on basis vectors:
    d gamma(X_0..X_k) = sum_{i<j} (-1)^(i+j) gamma([X_i, X_j], X_0..^i..^j..X_k)."""
    n = alg.n
    brackets = structure_constants_oracle(alg)
    out = {}
    for idx in combinations(range(n), k + 1):
        total = Fraction(0)
        for a, b in combinations(range(k + 1), 2):
            rest = tuple(x for p, x in enumerate(idx) if p not in (a, b))
            for m, c in brackets.get((idx[a], idx[b]), ()):
                total += (-1) ** (a + b) * c * form_value(terms, (m,) + rest)
        if total:
            out[idx] = total
    return out


def jacobiator_oracle(alg):
    """Largest |coefficient| of [[e_i, e_j], e_k] + cyclic over i < j < k."""
    n, brackets = alg.n, structure_constants_oracle(alg)

    def bracket(x, y):  # x, y: dicts {basis index: coefficient}
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                for k, v in brackets.get((i, j), ()):
                    out[k] = out.get(k, 0) + xi * yj * v
        return out

    worst = Fraction(0)
    for i, j, k in combinations(range(n), 3):
        total = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, v in bracket(bracket({x: 1}, {y: 1}), {z: 1}).items():
                total[m] = total.get(m, 0) + v
        worst = max([worst] + [abs(v) for v in total.values()])
    return worst


def sympy_rank(rows) -> int:
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


def sympy_nullity(rows, ncols) -> int:
    return ncols - sympy_rank(rows)


def series_dims_oracle(alg):
    """Derived-series and lower-central-series dimensions of a Lie algebra.

    The brackets come from c_ij^k = -de^k(e_i, e_j), read off the oracle
    dicts of alg.d1 and scaled to integers (spans do not see the scale).
    Each term is spanned by the brackets of a basis of the previous one (of
    g itself for the lower central series), its dimension is a sympy rank,
    and a series stops at its first zero or repeated dimension.  Returns
    (derived dims, lower central dims).
    """
    n = alg.n
    de = [kform_to_terms(f) for f in alg.d1]
    c = [(i, j, k, -form_value(de[k], (i, j)))
         for i in range(n) for j in range(n) for k in range(n)]
    c = [t for t in c if t[3] != 0]
    scale = math.lcm(*(t[3].denominator for t in c))
    c = [(i, j, k, int(v * scale)) for i, j, k, v in c]

    def bracket(x, y):
        out = [0] * n
        for i, j, k, v in c:
            out[k] += x[i] * y[j] * v
        return out

    def integral(row):
        return [int(x * math.lcm(*(int(y.q) for y in row))) for x in row]

    full = [[int(i == j) for j in range(n)] for i in range(n)]

    def series(step):
        dims, prev, cur = [], n, full
        while True:
            m = sympy.Matrix(step(cur))
            dims.append(m.rank(iszerofunc=lambda x: x == 0))  # exact entries
            if dims[-1] in (0, prev):
                return tuple(dims)
            prev, cur = dims[-1], [integral(row) for row in m.rowspace()]

    derived = series(lambda cur: [bracket(u, v) for a, u in enumerate(cur)
                                  for v in cur[a + 1:]])
    lower = series(lambda cur: [bracket(e, v) for e in full for v in cur])
    return derived, lower


def cubic_table_oracle():
    """The fields of g2._cubic_table by a loop of keyed Counter updates, one per
    term of i_i phi ^ i_j phi ^ phi.  Unlike the rest of this module it reads the
    library's interior and wedge tables, which the oracles above check."""
    from g2lab.exterior import interior_table, wedge_pairs

    iphi = [{q: (a, sign) for a, q, sign in rows} for rows in interior_table(7, 3)]
    top = {r: (c, sign) for (r, c), (_, sign) in wedge_pairs(7, 4, 3).items()}
    jt, bt = Counter(), Counter()
    for (q1, q2), (r, sign) in wedge_pairs(7, 2, 2).items():
        c, sign = top[r][0], sign * top[r][1]
        for i, j in combinations_with_replacement(range(7), 2):
            if q1 in iphi[i] and q2 in iphi[j]:
                (a1, s1), (a2, s2) = iphi[i][q1], iphi[j][q2]
                jt[i, j, min(a1, a2), max(a1, a2), c] += sign * s1 * s2
                bt[(i, j) + tuple(sorted((a1, a2, c)))] += sign * s1 * s2
    b = sorted((key + (Fraction(k, 6),) for key, k in bt.items() if k),
               key=lambda t: (t[0] != t[1], t))
    return tuple(sorted(key + (k,) for key, k in jt.items() if k)), tuple(b)


def gram_minor_oracle(m, k):
    """Lambda^k m by k x k minors: entry (I, J) is det m[I, J], I, J increasing."""
    combos = list(combinations(range(len(m)), k))
    idx = np.array(combos, dtype=int).reshape(len(combos), k)
    sub = np.asarray(m)[idx[:, None, :, None], idx[None, :, None, :]]
    return np.linalg.det(sub)


def positive_det_np_oracle(b, tol):
    """positive_det_np by numpy reductions over the vector of Cholesky pivots:
    None unless every L_ii^2 > tol max |b_ii|, else the numpy product of the L_ii^2."""
    try:
        pivots = np.linalg.cholesky(b).diagonal()
    except np.linalg.LinAlgError:
        return None
    pivots = pivots * pivots
    if not pivots.min() > tol * abs(b.diagonal()).max():
        return None
    return float(pivots.prod())


def star_oracle(g, volc, k):
    """Matrix of the Hodge star on float k-forms, vol S_k Lambda^k g^-1 by minors.

    S_k sends e^I to sign(I, I^c) e^{I^c}, the sign of the concatenated
    permutation (I, I^c).
    """
    n = len(g)
    idx = list(combinations(range(n), k))
    comp = {c: p for p, c in enumerate(combinations(range(n), n - k))}
    s = np.zeros((len(comp), len(idx)))
    for p, i in enumerate(idx):
        rest = tuple(j for j in range(n) if j not in i)
        s[comp[rest], p] = perm_sign(i + rest)
    return volc * s @ gram_minor_oracle(np.linalg.inv(g), k)


def primitive_11_oracle(j_rows, omega_terms, n=6):
    """Basis of the J-invariant 2-forms alpha with alpha ^ omega^2 = 0.

    Rows: alpha(J e_i, J e_k) - alpha(e_i, e_k) = 0 for i < k, where
    J e_i = sum_m j_rows[m][i] e_m, plus the top coefficient of
    alpha ^ omega^2; the kernel comes from sympy.  Returns oracle dicts.
    """
    pairs = list(combinations(range(n), 2))
    j = [[Fraction(x) for x in row] for row in j_rows]
    rows = []
    for i, k in pairs:
        row = []
        for m, p in pairs:
            val = j[m][i] * j[p][k] - j[p][i] * j[m][k]
            row.append(val - 1 if (m, p) == (i, k) else val)
        rows.append(row)
    om2 = wedge_oracle(omega_terms, 2, omega_terms, 2, n)
    top = tuple(range(n))
    rows.append([wedge_oracle({pair: Fraction(1)}, 2, om2, 4, n).get(top, Fraction(0))
                 for pair in pairs])
    kernel = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).nullspace()
    return [{pair: Fraction(int(v[pos].p), int(v[pos].q))
             for pos, pair in enumerate(pairs) if v[pos] != 0}
            for v in kernel]


def levi_civita_ricci(alg, g):
    """Independent Ricci oracle for a left-invariant metric, via Koszul.

    2 <nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y> for left-invariant
    fields; then Ric(X,Y) = sum_{i,j} g^{ij} <R(e_i, X) Y, e_j>.
    """
    n = alg.n
    g = np.array([[float(x) for x in row] for row in g])
    ginv = np.linalg.inv(g)
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            c[i, j] = [float(x) for x in alg.bracket_basis(i, j)]
    nabla = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            rhs = np.zeros(n)
            for k in range(n):
                rhs[k] = 0.5 * (c[i, j] @ g[:, k] - c[j, k] @ g[:, i]
                                + c[k, i] @ g[:, j])
            nabla[i, j] = ginv @ rhs
    ric = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            total = 0.0
            for i in range(n):
                t1 = np.einsum("j,jk->k", nabla[x, y], nabla[i])
                t2 = np.einsum("j,jk->k", nabla[i, y], nabla[x])
                t3 = sum(c[i, x][m] * nabla[m, y] for m in range(n))
                r = t1 - t2 - t3
                for j in range(n):
                    total += ginv[i, j] * (r @ g[:, j])
            ric[x, y] = total
    return ric
