"""Scalar backends for all algebraic data in the library.

Every form, matrix and Lie algebra carries exactly one backend:

* ``RATIONAL`` -- exact ``fractions.Fraction`` arithmetic.  Used for all
  purely multilinear work (wedge products, interior products, differentials,
  derivation solving) and, when the induced metric happens to be rational,
  for metric-dependent work as well.
* ``FLOAT`` -- binary64 arithmetic.  Used for metric-dependent work whenever
  exact roots are unavailable, and always for flow integration.

Mixing backends in a single operation is an error; conversions are explicit
(``to_float`` on forms and matrices).

One zero rule serves both backends: ``negligible(x, scale, tol)`` is x == 0
for an exact rational and |x| <= tol * max(1, |scale|) for a float.  The
float (tol, scale) of each of its callers is listed once, in the README's
"zero rule" table.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"


class BackendMismatch(TypeError):
    """Operands of one operation live in different scalar backends."""


class ExactBackendUnavailable(ArithmeticError):
    """An exact-rational result would require an irrational root.

    Convert the input to the float backend (``to_float``) and retry.
    """


def as_rational(x) -> Fraction:
    """Coerce ``x`` to an exact rational.

    Accepts integers, ``Fraction`` and strings like ``"3/8"``.  Floats are
    rejected: converting a float to a rational must be done explicitly by
    the caller.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(
        "expected an exact rational (int, Fraction or 'p/q' string), got %r" % (x,)
    )


def backend_of(values) -> str:
    """Infer the backend of a coefficient sequence.

    Integers count as rational; any float makes the sequence float-backed.
    A mix of ``Fraction`` and float raises ``BackendMismatch``.
    """
    has_rat = False
    has_flt = False
    for v in values:
        if isinstance(v, Fraction):
            has_rat = True
        elif isinstance(v, numbers.Integral):
            pass
        elif isinstance(v, numbers.Real):
            has_flt = True
        else:
            raise TypeError("unsupported scalar %r" % (v,))
    if has_rat and has_flt:
        raise BackendMismatch("cannot mix Fraction and float coefficients")
    return FLOAT if has_flt else RATIONAL


def coerce(values, backend: str):
    """Return ``values`` as a tuple of scalars in the requested backend."""
    if backend == RATIONAL:
        values = tuple(values)  # all Fractions already: returned as they are
        return values if set(map(type, values)) <= {Fraction} else tuple(map(as_rational, values))
    if backend == FLOAT:
        return tuple(float(v) for v in values)
    raise ValueError("unknown backend %r" % (backend,))


def require_same_backend(*backends: str) -> str:
    first = backends[0]
    for b in backends[1:]:
        if b != first:
            raise BackendMismatch(
                "mixed scalar backends %s; convert explicitly" % (backends,)
            )
    return first


def negligible(x, scale=0, tol=1e-9) -> bool:
    """The zero rule: x == 0 for an exact rational, |x| <= tol max(1, |scale|)
    for a float."""
    if isinstance(x, numbers.Rational):
        return x == 0
    return abs(float(x)) <= tol * max(1.0, abs(float(scale)))


def zero(backend: str):
    """The zero scalar of a backend."""
    return Fraction(0) if backend == RATIONAL else 0.0


def int_nth_root(m: int, n: int):
    """Exact n-th root of a non-negative integer, or None if irrational."""
    if m < 0:
        raise ValueError("negative radicand")
    if m in (0, 1):
        return m
    lo, hi = 0, 1
    while hi**n <= m:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**n <= m:
            lo = mid
        else:
            hi = mid
    return lo if lo**n == m else None


def rational_nth_root(x: Fraction, n: int):
    """Exact n-th root of a non-negative rational, or None if irrational."""
    x = Fraction(x)
    p = int_nth_root(x.numerator, n)
    if p is None:
        return None
    q = int_nth_root(x.denominator, n)
    if q is None:
        return None
    return Fraction(p, q)
