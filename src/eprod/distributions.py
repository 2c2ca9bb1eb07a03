"""Tempered-distribution variants and their basis coefficients.

A distribution F acts on the oscillator eigenfunctions; its n-th coefficient
is the action F[e_n].  The supported variants are

    DeltaDeriv(k)            delta^(k), the k-th derivative of the point mass
    Monomial(p)              x**p
    NormalizedDeltaDeriv(m)  (-1)**m delta^(m) / sqrt(m!)
    NormalizedMonomial(n)    x**n / sqrt(n!)
    ExpReal(g)               exp(g x), g rational
    CosWave(w), SinWave(w)   cos(w x), sin(w x), w rational
    L2Sample                 a square-integrable function, either as a finite
                             coefficient vector or as a callable (projected
                             numerically, up to the resolution of the rule)
    LinearCombo              finite complex combinations of the above

Every variant but L2Sample is a point variant: its coefficients are a finite
combination of i**(s n) e_n^(j)(x0), described once by ``point_branches``.
Its stream runs the differentiated recurrence of the e_n on that branch list
(``branches.branch_stream``), and its parity is read off the same list.
Streams are memoized per distribution and extend incrementally, in blocks
of 64, so random access to coefficient n costs O(n) recurrence steps once
and O(1) after.  A step costs a few products of integers of the working
precision plus 32 bits per derivative column, and each entry is kept once,
as integers over one binary exponent (``pair_terms`` multiplies two such
entries exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union, get_args

from mpmath import mp, mpc

from . import quadrature
from .branches import I_POWERS, branch_stream
from .exact import SqrtTerm
from .hermite import derivative_at_zero_via_moments
from .precision import (
    DEFAULT_DPS,
    from_integer_form,
    integer_form,
    to_mpc,
    to_mpf,
    working,
    working_prec,
)

__all__ = [
    "MAX_ORDER",
    "DeltaDeriv",
    "Monomial",
    "NormalizedDeltaDeriv",
    "NormalizedMonomial",
    "ExpReal",
    "CosWave",
    "SinWave",
    "L2Sample",
    "LinearCombo",
    "Distribution",
    "zero_distribution",
    "parity",
    "point_branches",
    "coeff",
    "coeff_sequence",
    "coeff_exact",
    "CoeffSequence",
    "pair_terms",
]


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    raise TypeError(f"rational parameter expected, got {type(value).__name__}")


# largest derivative order, degree or index of delta^(k), x^p, phi(n) and
# psi(n), so that input bounds the cost of their coefficient streams
MAX_ORDER = 64


def _check_index(what: str, value: int):
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    if value > MAX_ORDER:
        raise ValueError(f"{what} {value} exceeds the cap of {MAX_ORDER}")


@dataclass(frozen=True)
class DeltaDeriv:
    order: int = 0

    def __post_init__(self):
        _check_index("derivative order", self.order)


@dataclass(frozen=True)
class Monomial:
    degree: int = 0

    def __post_init__(self):
        _check_index("degree", self.degree)


@dataclass(frozen=True)
class NormalizedDeltaDeriv:
    index: int = 0

    def __post_init__(self):
        _check_index("index", self.index)


@dataclass(frozen=True)
class NormalizedMonomial:
    index: int = 0

    def __post_init__(self):
        _check_index("index", self.index)


@dataclass(frozen=True)
class ExpReal:
    rate: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "rate", _as_rational(self.rate))


@dataclass(frozen=True)
class CosWave:
    freq: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "freq", _as_rational(self.freq))


@dataclass(frozen=True)
class SinWave:
    freq: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "freq", _as_rational(self.freq))


@dataclass(frozen=True)
class L2Sample:
    """Square-integrable element, given either way:

    coeffs: finite tuple of basis coefficients (index = position), or
    fn:     a callable x -> value, projected by the direct Gauss-Hermite rule
            (``quadrature.l2_coefficients``) when its stream is first built;
            its coefficients past the rule's resolution are 0.
    """

    coeffs: Optional[tuple] = None
    fn: Optional[Callable] = None

    def __post_init__(self):
        if (self.coeffs is None) == (self.fn is None):
            raise ValueError("provide exactly one of coeffs or fn")
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", tuple(self.coeffs))


@dataclass(frozen=True)
class LinearCombo:
    """Finite combination sum_k scalar_k * part_k; scalars may be complex."""

    parts: tuple = ()

    def __post_init__(self):
        cleaned = []
        for scalar, part in self.parts:
            if not isinstance(part, _VARIANTS):
                raise TypeError(f"not a distribution: {part!r}")
            cleaned.append((scalar, part))
        object.__setattr__(self, "parts", tuple(cleaned))


Distribution = Union[
    DeltaDeriv,
    Monomial,
    NormalizedDeltaDeriv,
    NormalizedMonomial,
    ExpReal,
    CosWave,
    SinWave,
    L2Sample,
    LinearCombo,
]

_VARIANTS = get_args(Distribution)


def zero_distribution() -> LinearCombo:
    return LinearCombo(())


# -- point branches ------------------------------------------------------------


def point_branches(d: Distribution, dps: int):
    """Branch list [(coeff, s, x0, j)] of a point variant, or None.

    F[e_n] = sum_b coeff_b * i**(s_b n) * e_n^(j_b)(x0_b); ``branches``
    computes the stream, the parity and the closed-form Abel transform from
    it.  None for an ``L2Sample`` and any combination holding one.
    Coefficients and evaluation points are realized once at ``dps``.
    """
    with working(dps):
        if isinstance(d, DeltaDeriv):
            return [(mpc((-1) ** d.order), 0, mpc(0), d.order)]
        if isinstance(d, NormalizedDeltaDeriv):
            m = d.index
            return [(mpc(1) / mp.sqrt(mp.factorial(m)), 0, mpc(0), m)]
        if isinstance(d, (Monomial, NormalizedMonomial)):
            # x**p = d**p/dg**p exp(g x) at g = 0; each d/dg of the exp branch
            # e_n(-i g) below brings down -i and one x-derivative
            if isinstance(d, Monomial):
                p, norm = d.degree, 1
            else:
                p, norm = d.index, math.factorial(d.index)
            return [(mp.sqrt(2 * mp.pi / norm) * I_POWERS[3 * p % 4], 1, mpc(0), p)]
        if isinstance(d, ExpReal):
            x0 = mpc(0, -1) * to_mpf(d.rate, dps)
            return [(mpc(mp.sqrt(2 * mp.pi)), 1, x0, 0)]
        if isinstance(d, (CosWave, SinWave)):
            x0 = mpc(to_mpf(d.freq, dps))
            half = mp.sqrt(2 * mp.pi) / 2
            if isinstance(d, CosWave):
                return [(mpc(half), 1, x0, 0), (mpc(half), 3, x0, 0)]
            return [(mpc(0, -1) * half, 1, x0, 0), (mpc(0, 1) * half, 3, x0, 0)]
        if isinstance(d, LinearCombo):
            out = []
            for scalar, part in d.parts:
                sub = point_branches(part, dps)
                if sub is None:
                    return None
                sc = to_mpc(scalar, dps)
                out += [(sc * coeff, s, x0, j) for coeff, s, x0, j in sub]
            return out
        return None


# -- coefficient streams -------------------------------------------------------


# a stream's memo grows by whole blocks of this many entries
_BLOCK = 64


@dataclass(eq=False)
class CoeffSequence:
    """Memoized random-access view of the coefficients of one distribution.

    ``extend(values, target)`` grows the memo past index target.  The memo
    holds each coefficient once, as the integer form (re, im, exp) of
    ``precision.integer_form``, and grows by whole blocks; a call rounds the
    entry to an mpc at the working precision of ``dps``.  ``parity`` (when
    not None) is the index parity outside which every coefficient is 0, and
    ``support`` (when not None) the index from which every coefficient is 0.
    ``low_confidence`` marks a stream with a projected callable whose
    coefficients had not settled at the largest rule.  ``branches`` is the
    point-branch list the stream was built from, None when it holds an
    ``L2Sample``.
    """

    _extend: Callable
    parity: Optional[int]
    support: Optional[int]
    dps: int
    low_confidence: bool = False
    branches: Optional[list] = None
    _values: list = field(default_factory=list, init=False)

    def __call__(self, n: int) -> mpc:
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        if self.support is not None and n >= self.support:
            return mpc(0)
        if n >= len(self._values):
            with working(self.dps):
                self._extend(self._values, n | (_BLOCK - 1))
        return from_integer_form(self._values[n], working_prec(self.dps))


def pair_terms(f: CoeffSequence, g: CoeffSequence, dps: int, stride: int = 1, offset: int = 0):
    """j -> conj(f_n) g_n at n = offset + stride j, as an mpc.

    The product is formed exactly from the two memos' integer forms and
    rounded once, to the working precision of ``dps``, without entering a
    precision context; the streams extend through their calls.
    """
    stop = min((s.support for s in (f, g) if s.support is not None), default=None)
    f_values, g_values = f._values, g._values
    prec = working_prec(dps)

    def term(j: int) -> mpc:
        n = offset + stride * j
        if stop is not None and n >= stop:
            return mpc(0)
        if n >= len(f_values):
            f(n)
        if n >= len(g_values):
            g(n)
        fr, fi, fe = f_values[n]
        gr, gi, ge = g_values[n]
        return from_integer_form((fr * gr + fi * gi, fr * gi - fi * gr, fe + ge), prec)

    return term


def _vector_extend(coeffs, dps: int):
    # the stream's support stops every request inside the vector
    def extend(values, target):
        values += [integer_form(to_mpc(c, dps)) for c in coeffs[len(values) : target + 1]]

    return extend


def _combo_extend(inner):
    def extend(values, target):
        for n in range(len(values), target + 1):
            values.append(integer_form(sum((s * seq(n) for s, seq in inner), mpc(0))))

    return extend


def _common(values) -> Optional[int]:
    """The one value in ``values``, or None when there are none or several."""
    values = set(values)
    return values.pop() if len(values) == 1 else None


# entries kept by the stream cache
SEQUENCE_CACHE_SIZE = 256
# (distribution, dps) -> stream, least recently used first
_sequence_cache: dict = {}


def coeff_sequence(d: Distribution, dps: int = DEFAULT_DPS) -> CoeffSequence:
    """The memoized coefficient stream of d at the given precision.

    A point variant, or a combination of them, streams from its branch list;
    an ``L2Sample`` from its coefficients; any other combination sums its
    parts' streams.
    """
    key = (d, dps)
    try:
        seq = _sequence_cache.pop(key, None)
    except TypeError:  # unhashable (shouldn't happen: variants are frozen)
        key = seq = None
    if seq is None:
        seq = _build_sequence(d, dps)
        while len(_sequence_cache) >= SEQUENCE_CACHE_SIZE:
            del _sequence_cache[next(iter(_sequence_cache))]
    if key is not None:
        _sequence_cache[key] = seq
    return seq


def _build_sequence(d: Distribution, dps: int) -> CoeffSequence:
    branches = point_branches(d, dps)
    if branches is not None:
        extend, parity_ = branch_stream(branches, dps)
        return CoeffSequence(extend, parity_, None, dps, branches=branches)
    if isinstance(d, L2Sample):
        if d.fn is None:
            live = [n for n, c in enumerate(d.coeffs) if c != 0]
            support = max(live, default=-1) + 1
            return CoeffSequence(
                _vector_extend(d.coeffs, dps), _common(n % 2 for n in live), support, dps
            )
        coeffs, settled = quadrature.l2_coefficients(d.fn, dps)
        return CoeffSequence(
            _vector_extend(coeffs, dps), None, len(coeffs), dps, low_confidence=not settled
        )
    if isinstance(d, LinearCombo):
        inner = [(to_mpc(s, dps), coeff_sequence(part, dps)) for s, part in d.parts if s != 0]
        supports = [seq.support for _, seq in inner]
        return CoeffSequence(
            _combo_extend(inner),
            _common(seq.parity for _, seq in inner),
            None if None in supports else max(supports, default=0),
            dps,
            low_confidence=any(seq.low_confidence for _, seq in inner),
        )
    raise TypeError(f"not a distribution: {d!r}")


def parity(d: Distribution) -> Optional[int]:
    """0 if only even-index coefficients can be nonzero, 1 for odd, None
    unknown; read off the coefficient stream (so a callable is projected)."""
    return coeff_sequence(d).parity


def coeff(d: Distribution, n: int, dps: int = DEFAULT_DPS) -> mpc:
    """<e_n, F> = F[e_n] for this distribution."""
    seq = coeff_sequence(d, dps)
    with working(dps):
        return mpc(seq(n))


# -- exact coefficients (monomial and delta families) -------------------------


@lru_cache(maxsize=4096)
def coeff_exact(d: Distribution, n: int) -> Optional[SqrtTerm]:
    """Exact coefficient as a SqrtTerm, for the point-mass and monomial families.

    Their branch lists read delta^(k)[e_n] = (-1)**k e_n^(k)(0) and
    x**p[e_n] = sqrt(2 pi) i**(n - p) e_n^(p)(0); e_n^(k)(0) comes from the
    moment route (``hermite.derivative_at_zero_via_moments``).
    """
    if isinstance(d, (NormalizedMonomial, NormalizedDeltaDeriv)):
        m = d.index
        sign = 1 if isinstance(d, NormalizedMonomial) else (-1) ** m
        plain = Monomial(m) if isinstance(d, NormalizedMonomial) else DeltaDeriv(m)
        return coeff_exact(plain, n) * SqrtTerm(Fraction(sign), Fraction(1, math.factorial(m)))
    if isinstance(d, DeltaDeriv):
        k = d.order
        return derivative_at_zero_via_moments(n, k) * SqrtTerm(Fraction((-1) ** k))
    if isinstance(d, Monomial):
        phase = (-1) ** ((n - d.degree) // 2 % 2)  # i**(n - p) wherever n - p is even
        return derivative_at_zero_via_moments(n, d.degree) * SqrtTerm(Fraction(phase), 2, 2)
    return None
