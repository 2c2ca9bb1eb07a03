"""Working-precision plumbing shared across the package.

All numeric kernels run on mpmath under an explicit decimal-digit budget.
Public entry points take a ``dps`` argument (significant decimal digits of
the *result*); internally they work with a few guard digits on top.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpc, mpf

DEFAULT_DPS = 60
MIN_DPS = 30
# largest precision, so that input bounds the cost of every computation
MAX_DPS = 1000
GUARD_DPS = 10


def check_dps(dps: int) -> int:
    if not isinstance(dps, int) or dps < MIN_DPS:
        raise ValueError(f"precision must be an integer >= {MIN_DPS} digits, got {dps!r}")
    if dps > MAX_DPS:
        raise ValueError(f"precision of {dps} digits exceeds the cap of {MAX_DPS}")
    return dps


def working(dps: int):
    """Context manager: computation precision for a target of ``dps`` digits."""
    return mp.workdps(dps + GUARD_DPS)


def to_mpf(value, dps: int = DEFAULT_DPS) -> mpf:
    """Convert an exact scalar (int, Fraction, str, float) to mpf at ``dps``."""
    with mp.workdps(dps + GUARD_DPS):
        if isinstance(value, Fraction):
            return mpf(value.numerator) / value.denominator
        return mpf(value)


def to_mpc(value, dps: int = DEFAULT_DPS) -> mpc:
    """Convert any supported scalar (real kinds, complex, mpc) to mpc at ``dps``.

    Objects with a ``to_mpf(dps)`` method (the exact term types) convert
    through it, so exact scalars keep full precision.
    """
    with mp.workdps(dps + GUARD_DPS):
        if isinstance(value, Fraction):
            return mpc(mpf(value.numerator) / value.denominator)
        if isinstance(value, complex):
            return mpc(value.real, value.imag)
        if hasattr(value, "as_mpc"):
            return mpc(value.as_mpc(dps))
        if hasattr(value, "to_mpf"):
            return mpc(value.to_mpf(dps))
        return mpc(value)
