"""Independent numpy references for the benchmark's output checks.

Nothing here calls into g2lab.  The exterior-algebra tables are built from
permutation signs, the closed-form flow solutions are written out from their
formulas, and the search replay re-draws the seeded normal stream.  A
coefficient vector y of a 3-form on R^7 lists the 35 coefficients of e^{abc},
a < b < c, in lexicographic order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

PAIRS = tuple(itertools.combinations(range(7), 2))
TRIPLES = tuple(itertools.combinations(range(7), 3))

#: positive-definiteness threshold on the smallest eigenvalue, relative to
#: max(1, largest diagonal entry); matches the library's Cholesky pivot rule
PIVOT_TOL = 1e-12

#: candidates screened per replay block
REPLAY_BLOCK = 4096


def _sign(seq) -> int:
    inversions = sum(1 for i, j in itertools.combinations(range(len(seq)), 2)
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def _tables():
    """Interior product e_i -| (3-form) and the top-degree pairing 2^2^3."""
    pos2 = {p: i for i, p in enumerate(PAIRS)}
    interior = np.zeros((35, 7, 21))
    for r, (a, b, c) in enumerate(TRIPLES):
        interior[r, a, pos2[(b, c)]] = 1
        interior[r, b, pos2[(a, c)]] = -1
        interior[r, c, pos2[(a, b)]] = 1
    top = np.zeros((35, 21, 21))
    for r, t in enumerate(TRIPLES):
        for p, pair_p in enumerate(PAIRS):
            for q, pair_q in enumerate(PAIRS):
                seq = pair_p + pair_q + t
                if len(set(seq)) == 7:
                    top[r, p, q] = _sign(seq)
    return interior.reshape(35, 147), top.reshape(35, 441)


_INTERIOR, _TOP = _tables()


def bilinear(y: np.ndarray) -> np.ndarray:
    """b_ij = (1/6) (e_i -| phi) ^ (e_j -| phi) ^ phi / e^{1..7}, batched.

    y has shape (B, 35); the result has shape (B, 7, 7).
    """
    a = (y @ _INTERIOR).reshape(-1, 7, 21)
    m = (y @ _TOP).reshape(-1, 21, 21)
    b = a @ m @ a.transpose(0, 2, 1) / 6.0
    return (b + b.transpose(0, 2, 1)) / 2.0


def positive(y: np.ndarray) -> np.ndarray:
    """Whether each row of y is a positive 3-form (b positive definite)."""
    b = bilinear(np.atleast_2d(y))
    scale = np.maximum(1.0, np.abs(np.diagonal(b, axis1=1, axis2=2)).max(axis=1))
    return np.linalg.eigvalsh(b)[:, 0] > PIVOT_TOL * scale


def _tensor3(y: np.ndarray) -> np.ndarray:
    """Fully antisymmetric (7, 7, 7) tensor of a 3-form."""
    t = np.zeros((7, 7, 7))
    for c, (a, b, d) in zip(y, TRIPLES):
        for perm in itertools.permutations((a, b, d)):
            t[perm] = _sign(perm) * c
    return t


def structure_constants(alg) -> np.ndarray:
    """C[i, j, k] = e^k([e_i, e_j]) read from the algebra's bracket table."""
    c = np.zeros((alg.n, alg.n, alg.n))
    for i in range(alg.n):
        for j in range(alg.n):
            c[i, j] = [float(x) for x in alg.bracket_basis(i, j)]
    return c


def d3(consts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Chevalley-Eilenberg d of a 3-form as a (7, 7, 7, 7) tensor.

    d phi(x0, x1, x2, x3) = sum_{i<j} (-1)^(i+j) phi([x_i, x_j], ...).
    """
    t = np.einsum("ijk,kpq->ijpq", consts, _tensor3(y))
    return (-t + np.einsum("acbd->abcd", t) - np.einsum("adbc->abcd", t)
            - np.einsum("bcad->abcd", t) + np.einsum("bdac->abcd", t)
            - np.einsum("cdab->abcd", t))


def closed(consts: np.ndarray, y: np.ndarray, tol=1e-9) -> bool:
    scale = max(1.0, float(np.max(np.abs(y))))
    return float(np.max(np.abs(d3(consts, y)))) <= tol * scale


# ---------------------------------------------------------------------------
# closed-form Laplacian-flow solutions on the 7-coefficient ansatz
# ---------------------------------------------------------------------------

_ANSATZ = ((0, 1, 6), (2, 3, 6), (4, 5, 6), (0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4))
_ANSATZ_SIGNS = (1, 1, 1, 1, -1, -1, -1)


def _ansatz(c1, c2, c3, c4) -> np.ndarray:
    """C1 e^127 + C2 e^347 + C3 e^567 + C4 (e^135 - e^146 - e^236 - e^245)."""
    y = np.zeros(35)
    for mono, sign, c in zip(_ANSATZ, _ANSATZ_SIGNS, (c1, c2, c3, c4, c4, c4, c4)):
        y[TRIPLES.index(mono)] = sign * c
    return y


def soliton_lambda(a) -> Fraction:
    """The soliton constant 8a^2 - 4a - 4 on the one-parameter family g_a."""
    a = Fraction(a)
    return 8 * a * a - 4 * a - 4


def lauret_phi(a, t: float) -> np.ndarray:
    """Self-similar solution on g_a: A^q1 e^127 + A^q2 e^347 + A^q3 (rest)."""
    a = float(a)
    lam = float(soliton_lambda(Fraction(a)))
    big_a = (2.0 / 3.0) * lam * t + 1.0
    q1 = 3.0 * a / (2.0 * (2.0 * a + 1.0))
    q2 = 3.0 * (2.0 * a - 1.0) / (8.0 * (a - 1.0))
    q3 = 9.0 / (8.0 * (2.0 * a + 1.0) * (a - 1.0))
    c3 = big_a ** q3
    return _ansatz(big_a ** q1, big_a ** q2, c3, c3)


def gabk_phi(b, t: float) -> np.ndarray:
    """Solution on g_abk: C2 = (1 - (8/3) b^2 t)^(-9/8), C1 = C2^(-1/3), C3 = 1."""
    b = float(b)
    c2 = (1.0 - (8.0 / 3.0) * b * b * t) ** (-9.0 / 8.0)
    return _ansatz(c2 ** (-1.0 / 3.0), c2, 1.0, c2)


# ---------------------------------------------------------------------------
# search replay
# ---------------------------------------------------------------------------

def replay(kernel: np.ndarray, seed: int, attempts: int):
    """First positive draw of the seeded search stream, or None.

    The search draws x ~ N(0, 1)^dim from numpy.random.default_rng(seed) once
    per attempt and tests y = x @ kernel, where kernel holds the closed-form
    basis as rows.  Returns (index, y) of the first positive draw or
    (None, None) when all attempts miss.
    """
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((attempts, kernel.shape[0]))
    for start in range(0, attempts, REPLAY_BLOCK):
        ys = draws[start:start + REPLAY_BLOCK] @ kernel
        hits = np.flatnonzero(positive(ys))
        if hits.size:
            return start + int(hits[0]), ys[hits[0]]
    return None, None
