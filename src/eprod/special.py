"""Exact special values: half-integer gamma, terminating Gauss sums, moments.

Everything here is pure Fraction/ExactTerm arithmetic.  The moment integrals

    I(k, p) = integral of x**p * exp(-x**2/2) * H_k(x) dx

are computed by two independent routes (a closed hypergeometric form and a
two-variable recurrence) and cross-checked on every fresh cache entry; a
disagreement is a bug in one of the routes and raises immediately rather
than letting a wrong exact value poison everything downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import ExactTerm

__all__ = [
    "HypergeometricPoleError",
    "MomentRouteMismatch",
    "gamma_half_integer",
    "pochhammer",
    "gauss_2f1_terminating",
    "Terminating2F1Sequence",
    "moment_integral",
]


class HypergeometricPoleError(ValueError):
    """Denominator parameter hit a nonpositive integer inside the sum."""


class MomentRouteMismatch(RuntimeError):
    """The two independent moment-integral routes disagreed."""


def gamma_half_integer(j: int) -> ExactTerm:
    """Gamma(j + 1/2) for j >= 0, exactly: (2j)! sqrt(pi) / (4**j j!)."""
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    m = Fraction(math.factorial(2 * j), 4**j * math.factorial(j))
    return ExactTerm(m, 1, 0)


def pochhammer(a: Fraction, i: int) -> Fraction:
    """Rising factorial (a)_i = a (a+1) ... (a+i-1)."""
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    out = Fraction(1)
    for t in range(i):
        out *= a + t
    return out


def gauss_2f1_terminating(j: int, a: Fraction, c: Fraction, z: Fraction) -> Fraction:
    """2F1(-j, a; c; z) as the finite sum over i = 0..j, exactly.

    Raises HypergeometricPoleError when (c)_i vanishes before the series
    terminates.
    """
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    a = Fraction(a)
    c = Fraction(c)
    z = Fraction(z)
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, j + 1):
        denom = c + (i - 1)
        if denom == 0:
            raise HypergeometricPoleError(
                f"2F1(-{j}, {a}; {c}; {z}): denominator parameter hits 0 at i={i}"
            )
        term *= Fraction(-j + (i - 1)) * (a + (i - 1)) * z / (denom * i)
        total += term
    return total


class Terminating2F1Sequence:
    """The values 2F1(-j, c + n; c; 2) for all j >= 0, in O(n) per value.

    When the numerator parameter exceeds the denominator one by a
    nonnegative integer n and the argument is 2, (-1)**j * 2F1(-j, c+n; c; 2)
    is a polynomial in j of degree n.  We tabulate its forward differences
    at j = 0..n once (from the exact finite sums) and evaluate by the
    Newton series afterwards; `fraction(j)` agrees with the direct sum for
    every j, which the test suite checks on random points.
    """

    def __init__(self, c: Fraction, n: int):
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        self.c = Fraction(c)
        self.n = n
        samples = [
            (-1) ** j * gauss_2f1_terminating(j, self.c + n, self.c, Fraction(2))
            for j in range(n + 1)
        ]
        diffs = []
        row = samples
        while row:
            diffs.append(row[0])
            row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        self._diffs = diffs

    def signed_polynomial(self, j: int) -> Fraction:
        """(-1)**j * 2F1(-j, c+n; c; 2), i.e. the polynomial part."""
        out = Fraction(0)
        binom = Fraction(1)
        for t, d in enumerate(self._diffs):
            if t:
                binom *= Fraction(j - t + 1, t)
            out += d * binom
        return out

    def fraction(self, j: int) -> Fraction:
        return (-1) ** j * self.signed_polynomial(j)

    def newton_coefficients(self):
        """Scaled differences d_t / t! of the polynomial part, as Fractions.

        With these, signed_polynomial(j) = c_0 + (j-0)(c_1 + (j-1)(c_2 + ...)),
        a Horner-style form suitable for fast evaluation in any numeric type.
        """
        out = []
        fact = 1
        for t, d in enumerate(self._diffs):
            if t:
                fact *= t
            out.append(d / fact)
        return out


# -- moment integrals -------------------------------------------------------

_SQRT_2PI = ExactTerm(Fraction(1), 1, 1)  # sqrt(2) * sqrt(pi)


def _moment_closed(k: int, p: int) -> ExactTerm:
    """Closed form via a terminating 2F1 at argument 2."""
    if (k + p) % 2:
        return ExactTerm.zero()
    if k % 2 == 0:
        r, l = k // 2, p // 2
        # (-1)^r 2^(2r+l+1/2) pi^(-1/2) Gamma(l+1/2) Gamma(r+1/2) F(-r, l+1/2; 1/2; 2)
        f = gauss_2f1_terminating(r, Fraction(2 * l + 1, 2), Fraction(1, 2), Fraction(2))
        out = ExactTerm(Fraction((-1) ** r * 2 ** (2 * r + l)), -1, 1)
        out = out * gamma_half_integer(l) * gamma_half_integer(r)
        return out * f
    r, l = (k - 1) // 2, (p - 1) // 2
    # (-1)^r 2^(2r+l+7/2) pi^(-1/2) Gamma(l+3/2) Gamma(r+3/2) F(-r, l+3/2; 3/2; 2)
    f = gauss_2f1_terminating(r, Fraction(2 * l + 3, 2), Fraction(3, 2), Fraction(2))
    out = ExactTerm(Fraction((-1) ** r * 2 ** (2 * r + l + 3)), -1, 1)
    out = out * gamma_half_integer(l + 1) * gamma_half_integer(r + 1)
    return out * f


# entries past which the recurrence table is emptied when a call starts, and
# entries kept by the moment cache: exact terms of high order are large
RECURRENCE_CACHE_CAP = 2**16
MOMENT_CACHE_SIZE = 4096
_recurrence_cache: dict[tuple[int, int], ExactTerm] = {}


def _moment_recurrence(k: int, p: int) -> ExactTerm:
    """Integration-by-parts route:

    I(k, 0) = 2 (k-1) I(k-2, 0),   I(0,0) = sqrt(2 pi),  I(1,0) = 0,
    I(k, p) = 2 k I(k-1, p-1) + (p-1) I(k, p-2)   for p >= 1
    (the last term is absent when p = 1 since its coefficient vanishes).
    """
    cached = _recurrence_cache.get((k, p))
    if cached is not None:
        return cached
    if len(_recurrence_cache) > RECURRENCE_CACHE_CAP:
        _recurrence_cache.clear()
    # fill the p = 0 column up to k, then march p upward row by row
    for kk in range(0, k + 1):
        if (kk, 0) not in _recurrence_cache:
            if kk == 0:
                val = _SQRT_2PI
            elif kk == 1:
                val = ExactTerm.zero()
            else:
                val = _recurrence_cache[(kk - 2, 0)] * (2 * (kk - 1))
            _recurrence_cache[(kk, 0)] = val
    for pp in range(1, p + 1):
        for kk in range(0, k + 1):
            if (kk, pp) in _recurrence_cache:
                continue
            if kk == 0:
                # I(0, p) = (p-1) I(0, p-2): plain Gaussian moments
                val = _recurrence_cache[(0, pp - 2)] * (pp - 1) if pp >= 2 else ExactTerm.zero()
            else:
                val = _recurrence_cache[(kk - 1, pp - 1)] * (2 * kk)
                if pp >= 2:
                    val = val + _recurrence_cache[(kk, pp - 2)] * (pp - 1)
            _recurrence_cache[(kk, pp)] = val
    return _recurrence_cache[(k, p)]


@lru_cache(maxsize=MOMENT_CACHE_SIZE)
def moment_integral(k: int, p: int) -> ExactTerm:
    """I(k, p) = integral of x**p exp(-x**2/2) H_k(x) dx, exact.

    Zero when k and p have opposite parity.  Both internal routes must
    agree or MomentRouteMismatch is raised.
    """
    if k < 0 or p < 0:
        raise ValueError(f"need k, p >= 0, got ({k}, {p})")
    closed = _moment_closed(k, p)
    recur = _moment_recurrence(k, p)
    if closed != recur:
        raise MomentRouteMismatch(
            f"I({k},{p}): closed form {closed} vs recurrence {recur}"
        )
    return closed
