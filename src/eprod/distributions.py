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
                             numerically)
    LinearCombo              finite complex combinations of the above

Coefficient streams are memoized per distribution and extend incrementally;
each family's engine is a single normalized recurrence, so random access to
coefficient n costs O(n) once and O(1) after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

from mpmath import mp, mpc, mpf

from . import quadrature
from .exact import SqrtTerm
from .precision import DEFAULT_DPS, to_mpc, working
from .special import moment_integral

__all__ = [
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
    "UnsupportedActionError",
    "zero_distribution",
    "is_zero_distribution",
    "parity",
    "coeff",
    "coeff_sequence",
    "coeff_exact",
    "CoeffSequence",
    "derivative",
    "multiply_by_x",
]


class UnsupportedActionError(ValueError):
    """An operation has no closed weak form for this variant."""


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


@dataclass(frozen=True)
class DeltaDeriv:
    order: int = 0

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"derivative order must be >= 0, got {self.order}")


@dataclass(frozen=True)
class Monomial:
    degree: int = 0

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")


@dataclass(frozen=True)
class NormalizedDeltaDeriv:
    index: int = 0

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")


@dataclass(frozen=True)
class NormalizedMonomial:
    index: int = 0

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")


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
    fn:     a callable x -> value, projected by quadrature on demand.
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
            if not _is_distribution(part):
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

_VARIANTS = (
    DeltaDeriv,
    Monomial,
    NormalizedDeltaDeriv,
    NormalizedMonomial,
    ExpReal,
    CosWave,
    SinWave,
    L2Sample,
    LinearCombo,
)


def _is_distribution(obj) -> bool:
    return isinstance(obj, _VARIANTS)


def zero_distribution() -> LinearCombo:
    return LinearCombo(())


def is_zero_distribution(d) -> bool:
    return isinstance(d, LinearCombo) and not d.parts


# -- parity ------------------------------------------------------------------


def parity(d: Distribution) -> Optional[int]:
    """0 if only even-index coefficients can be nonzero, 1 for odd, None unknown."""
    if isinstance(d, DeltaDeriv):
        return d.order % 2
    if isinstance(d, Monomial):
        return d.degree % 2
    if isinstance(d, (NormalizedDeltaDeriv, NormalizedMonomial)):
        return d.index % 2
    if isinstance(d, ExpReal):
        return 0 if d.rate == 0 else None
    if isinstance(d, CosWave):
        return 0
    if isinstance(d, SinWave):
        return 1
    if isinstance(d, L2Sample):
        if d.coeffs is None:
            return None
        live = [n % 2 for n, c in enumerate(d.coeffs) if c != 0]
        if not live:
            return None
        if all(p == 0 for p in live):
            return 0
        if all(p == 1 for p in live):
            return 1
        return None
    if isinstance(d, LinearCombo):
        seen = set()
        for scalar, part in d.parts:
            if scalar == 0:
                continue
            seen.add(parity(part))
        if len(seen) == 1:
            return seen.pop()
        return None
    raise TypeError(f"not a distribution: {d!r}")


def support_bound(d: Distribution) -> Optional[int]:
    """n such that all coefficients with index >= n vanish, when known."""
    if isinstance(d, L2Sample) and d.coeffs is not None:
        live = [n for n, c in enumerate(d.coeffs) if c != 0]
        return (max(live) + 1) if live else 0
    if isinstance(d, LinearCombo):
        bounds = []
        for scalar, part in d.parts:
            if scalar == 0:
                continue
            b = support_bound(part)
            if b is None:
                return None
            bounds.append(b)
        return max(bounds, default=0)
    return None


# -- coefficient engines -----------------------------------------------------


class CoeffSequence:
    """Memoized random-access view of the coefficients of one distribution."""

    def __init__(self, extend, parity_: Optional[int], support: Optional[int], dps: int):
        self._extend = extend  # extend(values, target): grow values past target
        self._values: list = []
        self.parity = parity_
        self.support = support
        self.dps = dps

    def __call__(self, n: int) -> mpc:
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        if self.support is not None and n >= self.support:
            return mpc(0)
        if n >= len(self._values):
            with working(self.dps):
                self._extend(self._values, n)
        return self._values[n]


def _delta_extend(order: int):
    rows = [[] for _ in range(order + 1)]

    def extend(values, target):
        if not rows[0]:
            # e_0^(j)(0) = pi**(-1/4) * (j-1)!! * (-1)^(j/2) for even j, else 0
            quarter = mp.pi ** mpf("-0.25")
            for j in range(order + 1):
                if j % 2:
                    rows[j].append(mpf(0))
                else:
                    dfact = math.prod(range(1, j, 2)) if j else 1
                    rows[j].append(quarter * ((-1) ** (j // 2)) * dfact)
            values.append(((-1) ** order) * rows[order][0])
        while len(values) <= target:
            n = len(values)
            a = mp.sqrt(mpf(2) / n)
            b = mp.sqrt(mpf(n - 1) / n)
            for j in range(order + 1):
                v = a * j * rows[j - 1][n - 1] if j else mpf(0)
                if n >= 2:
                    v -= b * rows[j][n - 2]
                rows[j].append(v)
            values.append(((-1) ** order) * rows[order][n])

    return extend


def _monomial_extend(degree: int):
    # J(k, p) = I(k, p) / sqrt(2**k k! sqrt(pi)); the recurrences for I carry
    # over with the normalizers absorbed:
    #   J(k, 0) = sqrt((k-1)/k) J(k-2, 0),  J(0,0) = sqrt(2) pi**(1/4)
    #   J(k, p) = sqrt(2 k) J(k-1, p-1) + (p-1) J(k, p-2)
    rows = [[] for _ in range(degree + 1)]

    def extend(values, target):
        if not rows[0]:
            base = mp.sqrt(2) * mp.pi ** mpf("0.25")
            col = [base]
            for p in range(1, degree + 1):
                col.append((p - 1) * col[p - 2] if p >= 2 else mpf(0))
            for p in range(degree + 1):
                rows[p].append(col[p])
            values.append(rows[degree][0])
        while len(values) <= target:
            k = len(values)
            if k == 1:
                j0 = mpf(0)
            else:
                j0 = mp.sqrt(mpf(k - 1) / k) * rows[0][k - 2]
            rows[0].append(j0)
            root = mp.sqrt(mpf(2 * k))
            for p in range(1, degree + 1):
                v = root * rows[p - 1][k - 1]
                if p >= 2:
                    v += (p - 1) * rows[p - 2][k]
                rows[p].append(v)
            values.append(rows[degree][k])

    return extend


def _exp_extend(rate: Fraction):
    # u_{n+1} = g sqrt(2/(n+1)) u_n + sqrt(n/(n+1)) u_{n-1}, u_0 = 1;
    # coefficient = sqrt(2) pi**(1/4) exp(g**2/2) u_n
    u: list = []
    g = scale = None

    def extend(values, target):
        nonlocal g, scale
        if not u:  # CoeffSequence always extends at its own precision
            g = mpf(rate.numerator) / rate.denominator
            scale = mp.sqrt(2) * mp.pi ** mpf("0.25") * mp.exp(g * g / 2)
            u.append(mpf(1))
        while len(u) <= target:
            n = len(u) - 1
            nxt = g * mp.sqrt(mpf(2) / (n + 1)) * u[-1]
            if n:
                nxt += mp.sqrt(mpf(n) / (n + 1)) * u[-2]
            u.append(nxt)
        while len(values) <= target:
            values.append(scale * u[len(values)])

    return extend


def _wave_extend(freq: Fraction, odd: bool):
    # cos: coefficient at n = 2l is (-1)**l sqrt(2 pi) e_n(w); odd n vanish.
    # sin: coefficient at n = 2l+1 is (-1)**l sqrt(2 pi) e_n(w); even n vanish.
    e: list = []
    w = scale = None

    def extend(values, target):
        nonlocal w, scale
        if not e:  # CoeffSequence always extends at its own precision
            w = mpf(freq.numerator) / freq.denominator
            scale = mp.sqrt(2 * mp.pi)
            e.append(mp.pi ** mpf("-0.25") * mp.exp(-w * w / 2))
        while len(e) <= target:
            n = len(e) - 1
            nxt = mp.sqrt(mpf(2) / (n + 1)) * w * e[-1]
            if n:
                nxt -= mp.sqrt(mpf(n) / (n + 1)) * e[-2]
            e.append(nxt)
        while len(values) <= target:
            n = len(values)
            if (n % 2 == 1) != odd:
                values.append(mpf(0))
            else:
                values.append(((-1) ** (n // 2)) * scale * e[n])

    return extend


def _l2_extend(sample: L2Sample, dps: int):
    def extend(values, target):
        while len(values) <= target:
            n = len(values)
            if sample.coeffs is not None:
                c = sample.coeffs[n] if n < len(sample.coeffs) else 0
                values.append(to_mpc(c, dps))
            else:
                values.append(mpc(quadrature.basis_projection(sample.fn, n, dps)))

    return extend


def _combo_extend(combo: LinearCombo, dps: int):
    inner = [(to_mpc(s, dps), coeff_sequence(part, dps)) for s, part in combo.parts]

    def extend(values, target):
        while len(values) <= target:
            n = len(values)
            total = mpc(0)
            for s, seq in inner:
                total += s * seq(n)
            values.append(total)

    return extend


_sequence_cache: dict = {}


def coeff_sequence(d: Distribution, dps: int = DEFAULT_DPS) -> CoeffSequence:
    """The memoized coefficient stream of d at the given precision."""
    try:
        key = (d, dps)
        cached = _sequence_cache.get(key)
    except TypeError:  # unhashable (shouldn't happen: variants are frozen)
        key = None
        cached = None
    if cached is not None:
        return cached
    if isinstance(d, DeltaDeriv):
        seq = CoeffSequence(_delta_extend(d.order), d.order % 2, None, dps)
    elif isinstance(d, NormalizedDeltaDeriv):
        base = coeff_sequence(DeltaDeriv(d.index), dps)
        with working(dps):
            scale = ((-1) ** d.index) / mp.sqrt(mp.factorial(d.index))

        def extend_nd(values, target, base=base, scale=scale):
            while len(values) <= target:
                values.append(scale * base(len(values)))

        seq = CoeffSequence(extend_nd, d.index % 2, None, dps)
    elif isinstance(d, Monomial):
        seq = CoeffSequence(_monomial_extend(d.degree), d.degree % 2, None, dps)
    elif isinstance(d, NormalizedMonomial):
        base = coeff_sequence(Monomial(d.index), dps)
        with working(dps):
            scale = 1 / mp.sqrt(mp.factorial(d.index))

        def extend_nm(values, target, base=base, scale=scale):
            while len(values) <= target:
                values.append(scale * base(len(values)))

        seq = CoeffSequence(extend_nm, d.index % 2, None, dps)
    elif isinstance(d, ExpReal):
        seq = CoeffSequence(_exp_extend(d.rate), parity(d), None, dps)
    elif isinstance(d, CosWave):
        seq = CoeffSequence(_wave_extend(d.freq, odd=False), 0, None, dps)
    elif isinstance(d, SinWave):
        seq = CoeffSequence(_wave_extend(d.freq, odd=True), 1, None, dps)
    elif isinstance(d, L2Sample):
        seq = CoeffSequence(_l2_extend(d, dps), parity(d), support_bound(d), dps)
    elif isinstance(d, LinearCombo):
        seq = CoeffSequence(_combo_extend(d, dps), parity(d), support_bound(d), dps)
    else:
        raise TypeError(f"not a distribution: {d!r}")
    if key is not None:
        if len(_sequence_cache) > 256:
            _sequence_cache.clear()
        _sequence_cache[key] = seq
    return seq


def coeff(d: Distribution, n: int, dps: int = DEFAULT_DPS) -> mpc:
    """<e_n, F> = F[e_n] for this distribution."""
    seq = coeff_sequence(d, dps)
    with working(dps):
        return mpc(seq(n))


# -- exact coefficients (monomial and delta families) -------------------------


@lru_cache(maxsize=4096)
def coeff_exact(d: Distribution, n: int) -> Optional[SqrtTerm]:
    """Exact coefficient as a SqrtTerm, for the variants that admit one."""
    if isinstance(d, Monomial):
        if (n + d.degree) % 2:
            return SqrtTerm.zero()
        value = SqrtTerm.from_exact_term(moment_integral(n, d.degree))
        return value * SqrtTerm(
            Fraction(1), Fraction(1, 2**n * math.factorial(n)), -1
        )
    if isinstance(d, NormalizedMonomial):
        inner = coeff_exact(Monomial(d.index), n)
        return inner * SqrtTerm(Fraction(1), Fraction(1, math.factorial(d.index)))
    if isinstance(d, DeltaDeriv):
        # (-1)**k e_n^(k)(0), with the moment-route closed form for e_n^(k)(0)
        k = d.order
        if (n + k) % 2:
            return SqrtTerm.zero()
        sign = (-1) ** k * (-1) ** (((k - n) // 2) % 2)
        value = SqrtTerm.from_exact_term(moment_integral(n, k))
        value = value * SqrtTerm(Fraction(sign), Fraction(1, 2), -2)
        return value * SqrtTerm(Fraction(1), Fraction(1, 2**n * math.factorial(n)), -1)
    if isinstance(d, NormalizedDeltaDeriv):
        inner = coeff_exact(DeltaDeriv(d.index), n)
        sign = (-1) ** d.index
        return inner * SqrtTerm(Fraction(sign), Fraction(1, math.factorial(d.index)))
    return None


# -- weak operations ----------------------------------------------------------


def _mul_scalars(a, b):
    """Product of combo scalars, staying exact when both sides are exact."""
    exact_kinds = (int, Fraction, SqrtTerm)
    if isinstance(a, exact_kinds) and isinstance(b, exact_kinds):
        if isinstance(a, SqrtTerm) or isinstance(b, SqrtTerm):
            a = a if isinstance(a, SqrtTerm) else SqrtTerm(Fraction(a))
            return a * b
        return a * b
    with working(max(DEFAULT_DPS, mp.dps)):
        av = a.to_mpf(mp.dps) if isinstance(a, SqrtTerm) else to_mpc(a, mp.dps)
        bv = b.to_mpf(mp.dps) if isinstance(b, SqrtTerm) else to_mpc(b, mp.dps)
        return av * bv


def _scaled(scalar, d: Distribution) -> Distribution:
    if scalar == 0:
        return zero_distribution()
    if scalar == 1:
        return d
    if isinstance(d, LinearCombo):
        return LinearCombo(tuple((_mul_scalars(scalar, s), p) for s, p in d.parts))
    return LinearCombo(((scalar, d),))


def derivative(d: Distribution) -> Distribution:
    """d/dx in the weak sense; L2 callables have no closed form here."""
    if isinstance(d, DeltaDeriv):
        return DeltaDeriv(d.order + 1)
    if isinstance(d, Monomial):
        if d.degree == 0:
            return zero_distribution()
        return _scaled(d.degree, Monomial(d.degree - 1))
    if isinstance(d, NormalizedMonomial):
        # d/dx x**n/sqrt(n!) = sqrt(n) * x**(n-1)/sqrt((n-1)!)
        if d.index == 0:
            return zero_distribution()
        return _scaled(
            SqrtTerm(Fraction(1), Fraction(d.index)), NormalizedMonomial(d.index - 1)
        )
    if isinstance(d, NormalizedDeltaDeriv):
        return _scaled(
            SqrtTerm(Fraction(-1), Fraction(d.index + 1)),
            NormalizedDeltaDeriv(d.index + 1),
        )
    if isinstance(d, ExpReal):
        return _scaled(d.rate, ExpReal(d.rate)) if d.rate != 0 else zero_distribution()
    if isinstance(d, CosWave):
        return _scaled(-d.freq, SinWave(d.freq)) if d.freq != 0 else zero_distribution()
    if isinstance(d, SinWave):
        return _scaled(d.freq, CosWave(d.freq)) if d.freq != 0 else zero_distribution()
    if isinstance(d, LinearCombo):
        parts = []
        for s, p in d.parts:
            dp = derivative(p)
            if is_zero_distribution(dp):
                continue
            if isinstance(dp, LinearCombo):
                parts.extend((_mul_scalars(s, s2), p2) for s2, p2 in dp.parts)
            else:
                parts.append((s, dp))
        return LinearCombo(tuple(parts))
    raise UnsupportedActionError(f"no weak derivative rule for {type(d).__name__}")


def multiply_by_x(d: Distribution) -> Distribution:
    """Multiplication by x in the weak sense."""
    if isinstance(d, DeltaDeriv):
        if d.order == 0:
            return zero_distribution()
        return _scaled(-d.order, DeltaDeriv(d.order - 1))
    if isinstance(d, Monomial):
        return Monomial(d.degree + 1)
    if isinstance(d, NormalizedMonomial):
        return _scaled(
            SqrtTerm(Fraction(1), Fraction(d.index + 1)), NormalizedMonomial(d.index + 1)
        )
    if isinstance(d, NormalizedDeltaDeriv):
        if d.index == 0:
            return zero_distribution()
        return _scaled(
            SqrtTerm(Fraction(1), Fraction(d.index)), NormalizedDeltaDeriv(d.index - 1)
        )
    if isinstance(d, LinearCombo):
        parts = []
        for s, p in d.parts:
            xp = multiply_by_x(p)
            if is_zero_distribution(xp):
                continue
            if isinstance(xp, LinearCombo):
                parts.extend((_mul_scalars(s, s2), p2) for s2, p2 in xp.parts)
            else:
                parts.append((s, xp))
        return LinearCombo(tuple(parts))
    raise UnsupportedActionError(f"no multiplication-by-x rule for {type(d).__name__}")
