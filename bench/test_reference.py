"""Checks of the reference module against numerical mpmath routes.

Run with:  python3 -m pytest bench/test_reference.py -q
"""

from fractions import Fraction

from mpmath import mp, mpf

import reference as ref


def _close(a, b, tol="1e-25"):
    return abs(a - b) <= mpf(tol) * max(1, abs(b))


def test_kronecker():
    assert ref.kronecker(3, 3) == 1 and ref.kronecker(2, 4) == 0


def test_derivatives_match_numeric_differentiation():
    funcs = {"exp": mp.exp, "cos": mp.cos, "sin": mp.sin}
    with mp.workdps(40):
        for kind, f in funcs.items():
            for rate in (Fraction(2, 3), Fraction(-1, 4)):
                r = mpf(rate.numerator) / rate.denominator
                for k in range(4):
                    numeric = mp.diff(lambda x: f(r * x), 0, k)
                    exact = ref.derivative_at_zero(kind, rate, k)
                    assert _close(mpf(exact.numerator) / exact.denominator, numeric, "1e-20")


def test_point_pairing_conjugates_the_left_slot():
    parts = [(Fraction(1), Fraction(2), "exp", Fraction(1, 2))]
    assert ref.point_pairing(parts, 1, function_left=True) == (Fraction(-1, 2), Fraction(1))
    assert ref.point_pairing(parts, 1, function_left=False) == (Fraction(-1, 2), Fraction(-1))


def test_hermite_coefficients():
    assert ref.hermite_coefficients(0) == [1]
    assert ref.hermite_coefficients(3) == [0, -12, 0, 8]
    assert ref.hermite_coefficients(4) == [12, 0, -48, 0, 16]


def test_gaussian_coefficients_match_quadrature():
    x0 = Fraction(-2, 3)
    with mp.workdps(40):
        c = mpf(x0.numerator) / x0.denominator
        for n in range(6):
            def integrand(x, n=n):
                h = mp.hermite(n, x)
                norm = mp.sqrt(mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
                return mp.exp(-(x - c) ** 2 / 2) * h * mp.exp(-x * x / 2) / norm
            numeric = mp.quad(integrand, [-mp.inf, 0, mp.inf])
            assert _close(ref.gaussian_coefficient(n, x0, 40), numeric, "1e-30")


def test_row_limits():
    with mp.workdps(40):
        assert _close(ref.row_limit("a", 30), mp.pi / mp.sqrt(2))
        assert _close(ref.row_limit("b", 30) * 8, ref.row_limit("a", 30))


def test_word_polynomial_matches_numeric_operators():
    """Build X e^{gx} from mpmath derivatives and compare at a few points."""
    g = Fraction(3, 4)
    word = ("c", "d", "x", "cdag")
    poly, m = ref.word_polynomial(word, g)
    with mp.workdps(40):
        gv = mpf(3) / 4

        def apply(letters, f):
            if not letters:
                return f
            inner = apply(letters[1:], f)
            letter = letters[0]
            if letter == "x":
                return lambda x: x * inner(x)
            if letter == "d":
                return lambda x: mp.diff(inner, x)
            sign = 1 if letter == "c" else -1
            return lambda x: (x * inner(x) + sign * mp.diff(inner, x)) / mp.sqrt(2)

        h = apply(word, lambda x: mp.exp(gv * x))
        for x in (mpf(0), mpf("0.3"), mpf(-1)):
            p = sum(mpf(c.numerator) / c.denominator * x**i for i, c in enumerate(poly))
            assert _close(p * mp.exp(gv * x) / mp.sqrt(2) ** m, h(x), "1e-12")


def test_adjoint_value_small_cases():
    with mp.workdps(40):
        # <delta, c e^{gx}> = (0 + g)/sqrt(2);  <delta', D e^{gx}> = -g^2
        assert _close(ref.adjoint_value(("c",), 0, Fraction(1), 30), 1 / mp.sqrt(2))
        assert _close(ref.adjoint_value(("d",), 1, Fraction(1, 2), 30), mpf(-1) / 4)


def test_family_sums_first_terms():
    # phi_0[e_0]**2 = 2 sqrt(pi);  psi_0[e_0]**2 = 1/sqrt(pi)
    assert ref.family_sums("phi", 0, 0, 0) == [(1, Fraction(4), 2)]
    assert ref.family_sums("psi", 0, 0, 0) == [(1, Fraction(1), -2)]


def test_family_sums_obey_two_pi_proportionality():
    for n, m in ((0, 0), (1, 3), (2, 2), (0, 2)):
        a, b = n // 2, m // 2
        sign = (-1) ** (a + b)
        phi = ref.family_sums("phi", n, m, 60)
        psi = ref.family_sums("psi", n, m, 60)
        for kp, kq in zip(phi, psi):
            if kq[0] == 0:
                assert kp[0] == 0
            else:
                assert kp == (kq[0] * sign, 4 * kq[1], kq[2] + 4)
