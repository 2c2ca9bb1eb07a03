"""Reference values for the benchmark, computed apart from eprod.

Nothing here imports eprod: the values come from the standard library,
``fractions`` and mpmath, by routes that share no code with the program
under test.

* ``kronecker``: <phi_n, psi_m> = delta_nm.
* ``point_pairing``: <F, delta^(k)> = conj-weighted (-1)**k F^(k)(0) for
  combinations of exp, cos and sin, exact in Q(i).
* ``gaussian_pairing``: the pairing of exp(-(x - x0)**2 / 2) with a finite
  coefficient vector, from exact Hermite coefficients and closed-form
  Gaussian moments.
* ``row_limit``: the Abel limits pi/sqrt(2) and pi/(8 sqrt(2)) of rows a, b.
* ``adjoint_value``: <delta^(k), X exp(g x)> by exact polynomial algebra of
  the word X acting on P(x) exp(g x).
* ``family_sums``: exact partial sums of the phi-phi and psi-psi series,
  as the same invariant key eprod's radical scalars compare by.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf

__all__ = [
    "kronecker",
    "derivative_at_zero",
    "point_pairing",
    "hermite_coefficients",
    "gaussian_coefficient",
    "gaussian_pairing",
    "row_limit",
    "word_polynomial",
    "adjoint_value",
    "family_sums",
    "sqrt_key",
]


def kronecker(n: int, m: int) -> int:
    return 1 if n == m else 0


# -- point pairings against delta^(k) -----------------------------------------

_COS_CYCLE = (1, 0, -1, 0)
_SIN_CYCLE = (0, 1, 0, -1)


def derivative_at_zero(kind: str, rate: Fraction, k: int) -> Fraction:
    """f^(k)(0) for f = exp(rate x), cos(rate x) or sin(rate x)."""
    rate = Fraction(rate)
    if kind == "exp":
        return rate**k
    if kind == "cos":
        return rate**k * _COS_CYCLE[k % 4]
    if kind == "sin":
        return rate**k * _SIN_CYCLE[k % 4]
    raise ValueError(f"unknown function kind {kind!r}")


def point_pairing(parts, k: int, function_left: bool = True) -> tuple[Fraction, Fraction]:
    """Exact <F, delta^(k)> (or <delta^(k), F>) as (real, imaginary).

    ``parts`` lists (scalar_re, scalar_im, kind, rate) with F the sum of
    scalar * f.  delta^(k)[f] = (-1)**k f^(k)(0), and the pairing conjugates
    its left slot, so a function on the left contributes conj(scalar).
    """
    re = Fraction(0)
    im = Fraction(0)
    sign = (-1) ** k
    for s_re, s_im, kind, rate in parts:
        d = sign * derivative_at_zero(kind, rate, k)
        re += Fraction(s_re) * d
        im += (-Fraction(s_im) if function_left else Fraction(s_im)) * d
    return re, im


# -- Gaussian L2 pairings ----------------------------------------------------------


def hermite_coefficients(n: int) -> list[int]:
    """Integer coefficients of the physicists' H_n, lowest degree first."""
    return _hermite_rows(n)[n]


def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def _shifted_moment(j: int, x0: Fraction) -> Fraction:
    """integral of x**j exp(-(x - x0/2)**2) dx, divided by sqrt(pi).

    Expands x = u + x0/2 and uses integral u**i exp(-u**2) du =
    sqrt(pi) (i-1)!! / 2**(i/2) for even i (0 for odd i).
    """
    half = Fraction(x0) / 2
    total = Fraction(0)
    for i in range(0, j + 1, 2):
        total += math.comb(j, i) * half ** (j - i) * Fraction(_double_factorial(i - 1), 2 ** (i // 2))
    return total


def gaussian_coefficient(n: int, x0: Fraction, dps: int) -> mpf:
    """<e_n, g> for g(x) = exp(-(x - x0)**2 / 2), in closed form.

    g(x) e_n(x) = H_n(x) exp(-x**2 + x0 x - x0**2/2) / sqrt(2**n n! sqrt(pi)),
    and completing the square leaves exp(-x0**2/4) times shifted Gaussian
    moments, which are exact rationals times sqrt(pi).
    """
    q = sum(h * _shifted_moment(j, x0) for j, h in enumerate(hermite_coefficients(n)) if h)
    with mp.workdps(dps + 20):
        x = mpf(Fraction(x0).numerator) / Fraction(x0).denominator
        norm = mp.sqrt(mpf(2) ** n * math.factorial(n) * mp.sqrt(mp.pi))
        return mp.exp(-x * x / 4) * mp.sqrt(mp.pi) * (mpf(q.numerator) / q.denominator) / norm


def gaussian_pairing(x0: Fraction, coeffs, dps: int) -> mpf:
    """sum_n c_n <e_n, g> for real rational c_n and the Gaussian g above."""
    with mp.workdps(dps + 20):
        total = mpf(0)
        for n, c in enumerate(coeffs):
            c = Fraction(c)
            if c:
                total += gaussian_coefficient(n, x0, dps) * c.numerator / c.denominator
        return total


# -- Abel limits of the hypergeometric rows -------------------------------------


def row_limit(kind: str, dps: int) -> mpf:
    """pi/sqrt(2) for row a, pi/(8 sqrt(2)) for row b."""
    with mp.workdps(dps + 20):
        if kind == "a":
            return mp.pi / mp.sqrt(2)
        if kind == "b":
            return mp.pi / (8 * mp.sqrt(2))
    raise ValueError(f"no reference limit for row {kind!r}")


# -- ladder words on P(x) exp(g x) -------------------------------------------------


def _poly_add(p, q, sign=1):
    out = list(p) + [Fraction(0)] * max(0, len(q) - len(p))
    for i, c in enumerate(q):
        out[i] += sign * c
    return out


def word_polynomial(word, g: Fraction) -> tuple[list[Fraction], int]:
    """(P, m) with X exp(g x) = 2**(-m/2) P(x) exp(g x), P exact.

    Letters act on functions: x multiplies by x, d differentiates,
    c = (x + d)/sqrt(2), cdag = (x - d)/sqrt(2); m counts c and cdag.  The
    rightmost letter acts first.  d (P e^{gx}) = (P' + g P) e^{gx}.
    """
    g = Fraction(g)
    poly = [Fraction(1)]
    m = 0
    for letter in reversed(word):
        times_x = [Fraction(0)] + poly
        deriv = [i * c for i, c in enumerate(poly)][1:] or [Fraction(0)]
        d_poly = _poly_add(deriv, [g * c for c in poly])
        if letter == "x":
            poly = times_x
        elif letter == "d":
            poly = d_poly
        elif letter == "c":
            poly = _poly_add(times_x, d_poly)
            m += 1
        elif letter == "cdag":
            poly = _poly_add(times_x, d_poly, -1)
            m += 1
        else:
            raise ValueError(f"unknown letter {letter!r}")
    return poly, m


def adjoint_value(word, k: int, g: Fraction, dps: int) -> mpf:
    """<delta^(k), X exp(g x)> = (-1)**k (P e^{gx})^(k)(0) 2**(-m/2).

    Both sides of the adjoint identity <X‡ delta^(k), e^{gx}> =
    <delta^(k), X e^{gx}> equal this value.
    """
    g = Fraction(g)
    poly, m = word_polynomial(word, g)
    # (P e^{gx})^(k)(0) = sum_j binom(k, j) P^(j)(0) g^(k-j), P^(j)(0) = j! P[j]
    exact = Fraction(0)
    for j in range(min(k, len(poly) - 1) + 1):
        exact += math.comb(k, j) * math.factorial(j) * poly[j] * g ** (k - j)
    exact *= (-1) ** k
    with mp.workdps(dps + 20):
        return (mpf(exact.numerator) / exact.denominator) / mp.sqrt(mpf(2) ** m)


# -- exact partial sums of the same-family series ----------------------------------


def _hermite_rows(k_max: int):
    """Coefficient lists of H_0 .. H_k_max, by the integer recurrence."""
    rows = [[1], [0, 2]]
    for j in range(1, k_max):
        nxt = [0] + [2 * c for c in rows[j]]
        for i, c in enumerate(rows[j - 1]):
            nxt[i] -= 2 * j * c
        rows.append(nxt)
    return rows[: k_max + 1]


def _monomial_moment(h: list[int], n: int) -> int:
    """A with integral x**n H(x) exp(-x**2/2) dx = sqrt(2 pi) A, for H = sum h_j x**j."""
    return sum(c * _double_factorial(n + j - 1) for j, c in enumerate(h) if c and (n + j) % 2 == 0)


def _gaussian_taylor(h: list[int], n: int) -> Fraction:
    """beta = [x**n] of H(x) exp(-x**2/2), for H = sum h_j x**j."""
    total = Fraction(0)
    for i in range(n // 2 + 1):
        idx = n - 2 * i
        if idx < len(h) and h[idx]:
            total += h[idx] * Fraction((-1) ** i, 2**i * math.factorial(i))
    return total


def sqrt_key(rational: Fraction, radicand: Fraction, pi_quarters: int):
    """(sign, rational**2 * radicand, pi_quarters): the invariant of the value
    rational * sqrt(radicand) * pi**(pi_quarters/4); (0, 0, 0) for zero."""
    if rational == 0:
        return (0, Fraction(0), 0)
    return (1 if rational > 0 else -1, rational * rational * radicand, pi_quarters)


def family_sums(family: str, n: int, m: int, k_max: int) -> list[tuple]:
    """Keys of S_K = sum_{j <= K} F_n[e_j] F_m[e_j], K = 0..k_max.

    phi_n[e_j] = sqrt(2 pi) A(j, n) / sqrt(n! 2**j j! sqrt(pi)), so a
    phi-phi term is 2 A A / (2**j j!) * (n! m!)**(-1/2) * pi**(1/2).
    psi_n[e_j] = e_j^(n)(0) / sqrt(n!) = n! beta(j, n) / sqrt(n! 2**j j! sqrt(pi)),
    so a psi-psi term is n! m! beta beta / (2**j j!) * (n! m!)**(-1/2) * pi**(-1/2).
    Every term shares the radical, so each S_K is one rational times it.
    """
    if family not in ("phi", "psi"):
        raise ValueError(f"unknown family {family!r}")
    fn, fm = math.factorial(n), math.factorial(m)
    radicand = Fraction(1, fn * fm)
    quarters = 2 if family == "phi" else -2
    keys = []
    total = Fraction(0)
    for j, h in enumerate(_hermite_rows(k_max)):
        scale = Fraction(1, 2**j * math.factorial(j))
        if family == "phi":
            total += 2 * _monomial_moment(h, n) * _monomial_moment(h, m) * scale
        else:
            total += fn * fm * _gaussian_taylor(h, n) * _gaussian_taylor(h, m) * scale
        keys.append(sqrt_key(total, radicand, quarters))
    return keys
