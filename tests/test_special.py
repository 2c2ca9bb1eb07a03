"""Half-integer gamma, terminating Gauss sums, Hermite moment integrals.

Frozen reference values were produced by independent brute-force routes:
Pochhammer sums over Fractions for the 2F1 values, mpmath.quad for the
moments.
"""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from eprod import special
from eprod.exact import ExactTerm
from eprod.special import (
    HypergeometricPoleError,
    Terminating2F1Sequence,
    gamma_half_integer,
    gauss_2f1_terminating,
    moment_integral,
    pochhammer,
)

# brute-force Pochhammer sums of F(-j, a; c; 2)
_F21_FROZEN = [
    (0, Fraction(1, 2), Fraction(1, 2), Fraction(1)),
    (1, Fraction(1, 2), Fraction(1, 2), Fraction(-1)),
    (2, Fraction(5, 2), Fraction(1, 2), Fraction(83, 3)),
    (3, Fraction(3, 2), Fraction(3, 2), Fraction(-1)),
    (4, Fraction(9, 2), Fraction(3, 2), Fraction(2451, 35)),
    (5, Fraction(7, 2), Fraction(1, 2), Fraction(-637)),
]

# mpmath.quad of x^p exp(-x^2/2) H_k(x), divided by sqrt(2 pi)
_MOMENT_FROZEN = [
    (0, 0, 1),
    (0, 2, 1),
    (2, 2, 10),
    (2, 4, 54),
    (3, 3, 84),
    (4, 4, 996),
    (4, 6, 10260),
    (1, 5, 30),
]


def test_gamma_half_integer_small_values():
    assert gamma_half_integer(0) == ExactTerm(Fraction(1), 1, 0)
    assert gamma_half_integer(1) == ExactTerm(Fraction(1, 2), 1, 0)
    assert gamma_half_integer(3) == ExactTerm(Fraction(15, 8), 1, 0)
    with mp.workdps(40):
        for j in range(12):
            want = mp.gamma(j + mpf("0.5"))
            assert abs(gamma_half_integer(j).to_mpf(40) - want) < mpf("1e-36") * want


def test_pochhammer():
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(Fraction(-3), 5) == 0


@pytest.mark.parametrize("j, a, c, want", _F21_FROZEN)
def test_gauss_2f1_terminating_frozen(j, a, c, want):
    assert gauss_2f1_terminating(j, a, c, Fraction(2)) == want


def test_gauss_2f1_terminating_matches_brute_force():
    z = Fraction(2)
    for j in range(8):
        for a in (Fraction(1, 2), Fraction(5, 2), Fraction(3, 2) + 4):
            for c in (Fraction(1, 2), Fraction(3, 2)):
                brute = Fraction(0)
                for i in range(j + 1):
                    brute += (
                        pochhammer(Fraction(-j), i)
                        * pochhammer(a, i)
                        / pochhammer(c, i)
                        / math.factorial(i)
                        * z**i
                    )
                assert gauss_2f1_terminating(j, a, c, z) == brute


def test_gauss_2f1_pole_raises():
    with pytest.raises(HypergeometricPoleError):
        gauss_2f1_terminating(3, Fraction(1, 2), Fraction(-1), Fraction(2))


def test_terminating_sequence_matches_pointwise_values():
    for c in (Fraction(1, 2), Fraction(3, 2)):
        for idx in range(5):
            seq = Terminating2F1Sequence(c, idx)
            coeffs = seq.newton_coefficients()
            for j in range(10):
                direct = gauss_2f1_terminating(j, c + idx, c, Fraction(2))
                assert seq.fraction(j) == direct
                # Newton/Horner evaluation reproduces the signed polynomial
                acc = coeffs[-1]
                for t in range(len(coeffs) - 2, -1, -1):
                    acc = coeffs[t] + (j - t) * acc
                assert acc == seq.signed_polynomial(j) == (-1) ** j * direct


@pytest.mark.parametrize("k, p, ratio", _MOMENT_FROZEN)
def test_moment_integral_frozen(k, p, ratio):
    # every tabulated moment is an integer multiple of sqrt(2 pi)
    assert moment_integral(k, p) == ExactTerm(Fraction(ratio), 1, 1)


def test_moment_integral_parity_zero():
    assert moment_integral(1, 2).is_zero
    assert moment_integral(2, 3).is_zero
    assert moment_integral(0, 5).is_zero


def test_moment_caches_are_bounded(monkeypatch):
    assert moment_integral.cache_info().maxsize == special.MOMENT_CACHE_SIZE
    monkeypatch.setattr(special, "RECURRENCE_CACHE_CAP", 10)
    monkeypatch.setattr(special, "_recurrence_cache", {})
    special._moment_recurrence(4, 4)
    assert len(special._recurrence_cache) == 25  # k, p = 0..4
    # past the cap, the next miss starts from an empty table
    assert special._moment_recurrence(6, 4) == special._moment_closed(6, 4)
    assert len(special._recurrence_cache) == 35  # k = 0..6, p = 0..4
    special._moment_recurrence(2, 2)  # a hit leaves the table alone
    assert len(special._recurrence_cache) == 35


def test_moment_integral_low_power_values():
    # the weight is exp(-x^2/2), not the Hermite one, so p < k does not
    # vanish; mpmath.quad gives 108 and 20520 times sqrt(2 pi) here
    assert moment_integral(4, 2) == ExactTerm(Fraction(108), 1, 1)
    assert moment_integral(6, 4) == ExactTerm(Fraction(20520), 1, 1)
