"""Working-precision plumbing shared across the package.

All numeric kernels run on mpmath under an explicit decimal-digit budget.
Public entry points take a ``dps`` argument (significant decimal digits of
the *result*); internally they work with a few guard digits on top.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpc, mpf
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

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


def working_prec(dps: int) -> int:
    """The binary precision ``working(dps)`` sets."""
    return dps_to_prec(dps + GUARD_DPS)


def integer_form(value) -> tuple[int, int, int]:
    """A real or complex mpf/mpc value as (re, im, exp), exactly:
    value = (re + i im) * 2**exp."""
    re_sign, re, re_exp, _ = mpf(value.real)._mpf_
    im_sign, im, im_exp, _ = mpf(value.imag)._mpf_
    if not re:
        re_exp = im_exp
    if not im:
        im_exp = re_exp
    exp = min(re_exp, im_exp)
    re, im = (-re if re_sign else re), (-im if im_sign else im)
    return re << (re_exp - exp), im << (im_exp - exp), exp


def from_integer_form(entry: tuple[int, int, int], prec: int) -> mpc:
    """(re + i im) * 2**exp rounded to ``prec`` bits."""
    re, im, exp = entry
    return mp.make_mpc(
        (from_man_exp(re, exp, prec, round_nearest), from_man_exp(im, exp, prec, round_nearest))
    )
