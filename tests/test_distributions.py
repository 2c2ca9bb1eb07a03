"""Distribution variants: coefficients, parity, support, ladder transfer.

Frozen coefficient values come from mpmath.quad of the pointwise pairings,
computed independently of the package's recurrences.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from eprod import distributions
from eprod.branches import branch_stream, word_branches
from eprod.distributions import (
    CoeffSequence,
    CosWave,
    DeltaDeriv,
    ExpReal,
    L2Sample,
    LinearCombo,
    Monomial,
    NormalizedDeltaDeriv,
    NormalizedMonomial,
    SinWave,
    coeff,
    coeff_exact,
    coeff_sequence,
    parity,
    zero_distribution,
)
from eprod.exact import ComplexRational
from eprod.hermite import eigenfunction_derivative_at_zero, eigenfunction_eval
from eprod.quadrature import basis_projection

mp.dps = 40

# mpmath.quad of fn * e_n over the line
_COEFF_FROZEN = [
    (ExpReal(1), 0, "3.10420008849259652781770213700125721939977273"),
    (ExpReal(1), 1, "4.39000186546599182974025638364960047266546176"),
    (ExpReal(1), 3, "8.96105378354830362406896113090401834411684966"),
    (ExpReal(1), 6, "20.0138002926340562247536417587896201607454807"),
    (CosWave(1), 0, "1.14197139383899821316031829214478738177244443"),
    (CosWave(1), 2, "-0.807495716504609195229791270704778356914221754"),
    (CosWave(1), 4, "-1.16551967323351462796460723610251515162187292"),
    (SinWave(Fraction(3, 2)), 1, "1.29666393221766805112487673524659481468199366"),
    (SinWave(Fraction(3, 2)), 3, "-0.794041250451019998706690613587099219229884196"),
    (SinWave(Fraction(3, 2)), 5, "-1.15409463841582057003602734059704422594931841"),
    (Monomial(3), 1, "7.98801218280233827678520950770168511985619734"),
    (Monomial(3), 3, "22.827646224834958047687065056929088155488855"),
]


@pytest.mark.parametrize("dist, n, want", _COEFF_FROZEN)
def test_coeff_frozen_against_quadrature_oracle(dist, n, want):
    with mp.workdps(40):
        got = coeff(dist, n, 40)
        assert abs(got - mpf(want)) < mpf("1e-40") * max(1, abs(mpf(want)))


def test_delta_coefficients_are_point_values():
    with mp.workdps(40):
        for n in range(10):
            want = eigenfunction_eval(n, mpf(0), 40)
            assert abs(coeff(DeltaDeriv(0), n, 40) - want) < mpf("1e-38")


def test_delta_derivative_coefficients():
    # <e_n, delta^(k)> = (-1)^k e_n^(k)(0)
    with mp.workdps(40):
        for k in range(4):
            for n in range(8):
                want = (-1) ** k * eigenfunction_derivative_at_zero(n, k).to_mpf(40)
                got = coeff(DeltaDeriv(k), n, 40)
                assert abs(got - want) <= mpf("1e-36") * max(1, abs(want))


def test_normalized_families_scale_plain_ones():
    import math

    with mp.workdps(40):
        for idx in range(6):
            scale = mp.sqrt(math.factorial(idx))
            a = coeff(NormalizedMonomial(idx), 3 if idx % 2 else 4, 40)
            b = coeff(Monomial(idx), 3 if idx % 2 else 4, 40)
            assert abs(a * scale - b) < mpf("1e-34") * max(1, abs(b))
            c = coeff(NormalizedDeltaDeriv(idx), idx, 40)
            d = coeff(DeltaDeriv(idx), idx, 40)
            assert abs(c * scale - (-1) ** idx * d) < mpf("1e-34") * max(1, abs(d))


def test_coeff_exact_matches_numeric_route():
    with mp.workdps(45):
        for dist in (DeltaDeriv(0), DeltaDeriv(3), Monomial(2), Monomial(5),
                     NormalizedDeltaDeriv(2), NormalizedMonomial(4)):
            for n in range(0, 40, 3):
                ex = coeff_exact(dist, n)
                assert ex is not None
                got = coeff(dist, n, 45)
                assert abs(ex.to_mpf(45) - got) <= mpf("1e-40") * max(1, abs(got))
    # deep in the recurrence, at indices of the distribution's own parity
    with mp.workdps(60):
        for dist in (DeltaDeriv(0), DeltaDeriv(3), Monomial(2), Monomial(5),
                     NormalizedDeltaDeriv(2), NormalizedMonomial(4)):
            for n in (1001, 2001, 3999):
                n -= (n - parity(dist)) % 2
                want = coeff_exact(dist, n).to_mpf(60)
                got = coeff(dist, n, 60)
                assert abs(want - got) <= mpf("1e-65") * abs(want)


def _wave_oracle(kind, w, n, dps):
    """F[e_n] from mp.hermite: sqrt(2 pi) i**n e_n(-i w) for exp(w x), and
    sqrt(2 pi) cos(n pi/2) e_n(w), sqrt(2 pi) sin(n pi/2) e_n(w) for the waves."""
    with mp.workdps(dps + 40):
        w = mpf(w.numerator) / w.denominator
        norm = mp.sqrt(mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
        root = mp.sqrt(2 * mp.pi)
        if kind == "exp":
            h = mp.re(mpc(0, 1) ** n * mp.hermite(n, mpc(0, -w)))
            return root * h * mp.exp(w * w / 2) / norm
        phase = mp.cospi(mpf(n) / 2) if kind == "cos" else mp.sinpi(mpf(n) / 2)
        return root * phase * mp.hermite(n, w) * mp.exp(-w * w / 2) / norm


@pytest.mark.parametrize("kind, dist, w, ns", [
    ("exp", ExpReal(Fraction(1, 2)), Fraction(1, 2), (1001, 2001, 3999)),
    ("cos", CosWave(Fraction(2, 3)), Fraction(2, 3), (1000, 2000, 3998)),
    ("sin", SinWave(Fraction(1, 3)), Fraction(1, 3), (1001, 2001, 3999)),
])
def test_wave_coefficients_deep_in_the_recurrence(kind, dist, w, ns):
    with mp.workdps(60):
        for n in ns:
            want = _wave_oracle(kind, w, n, 60)
            got = coeff(dist, n, 60)
            assert abs(got - want) <= mpf("1e-65") * abs(want)


def test_coeff_exact_none_for_transcendental_sources():
    assert coeff_exact(ExpReal(1), 2) is None
    assert coeff_exact(L2Sample(coeffs=(1,)), 0) is None


def test_exp_rate_must_be_rational():
    with pytest.raises(TypeError):
        ExpReal(mpf("0.5"))
    assert ExpReal(Fraction(1, 2)).rate == Fraction(1, 2)
    assert ExpReal(2).rate == Fraction(2)


def test_parity_table():
    assert parity(DeltaDeriv(0)) == 0
    assert parity(DeltaDeriv(3)) == 1
    assert parity(Monomial(2)) == 0
    assert parity(CosWave(1)) == 0
    assert parity(SinWave(1)) == 1
    assert parity(ExpReal(0)) == 0
    assert parity(ExpReal(1)) is None
    assert parity(L2Sample(coeffs=(1, 0, 2))) == 0
    assert parity(L2Sample(coeffs=(0, 1))) == 1
    assert parity(L2Sample(coeffs=(1, 1))) is None
    assert parity(LinearCombo(((1, DeltaDeriv(0)), (2, CosWave(1))))) == 0
    assert parity(LinearCombo(((1, DeltaDeriv(0)), (2, SinWave(1))))) is None
    # zero scalars do not poison the parity
    assert parity(LinearCombo(((0, SinWave(1)), (2, CosWave(1))))) == 0


def test_support_bound():
    def support(d):
        return coeff_sequence(d, 30).support

    assert support(L2Sample(coeffs=(0, 0, 1, 0))) == 3
    assert support(L2Sample(coeffs=(0,))) == 0
    assert support(DeltaDeriv(2)) is None
    # a combination's support is the largest of its parts', None if any is unbounded
    combo = LinearCombo(((1, L2Sample(coeffs=(1,))), (2, L2Sample(coeffs=(0, 0, 5)))))
    assert support(combo) == 3
    assert support(LinearCombo(((1, L2Sample(coeffs=(1,))), (1, ExpReal(1))))) is None


@pytest.mark.parametrize(
    "cls", [DeltaDeriv, Monomial, NormalizedMonomial, NormalizedDeltaDeriv]
)
def test_order_and_index_capped(cls):
    assert distributions.MAX_ORDER == 64
    cls(distributions.MAX_ORDER)
    with pytest.raises(ValueError, match="cap of 64"):
        cls(distributions.MAX_ORDER + 1)
    with pytest.raises(ValueError, match=">= 0"):
        cls(-1)


def test_l2_sample_validation():
    with pytest.raises(ValueError):
        L2Sample()
    with pytest.raises(ValueError):
        L2Sample(coeffs=(1,), fn=lambda x: x)


def test_l2_sample_fn_projection():
    # ground-state Gaussian: only the n = 0 coefficient survives
    s = L2Sample(fn=lambda x: mp.exp(-(x**2) / 2))
    with mp.workdps(30):
        assert abs(coeff(s, 0, 30) - mp.pi ** mpf("0.25")) < mpf("1e-27")
        assert abs(coeff(s, 2, 30)) < mpf("1e-27")


def test_zero_distribution():
    z = zero_distribution()
    assert z.parts == ()
    with mp.workdps(30):
        assert coeff(z, 5, 30) == 0


def test_linear_combo_coefficients_are_linear():
    combo = LinearCombo((
        (Fraction(2), DeltaDeriv(0)),
        (ComplexRational(Fraction(0), Fraction(1)), ExpReal(1)),
    ))
    with mp.workdps(40):
        for n in (0, 1, 4):
            want = 2 * coeff(DeltaDeriv(0), n, 40) + mpc(0, 1) * coeff(ExpReal(1), n, 40)
            assert abs(coeff(combo, n, 40) - want) < mpf("1e-36")


def test_combo_rejects_non_distribution():
    with pytest.raises(TypeError):
        LinearCombo(((1, "delta"),))


def test_sequence_cache_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(distributions, "_sequence_cache", {})
    size = distributions.SEQUENCE_CACHE_SIZE
    dists = [L2Sample(coeffs=(k,)) for k in range(size + 1)]
    first = [coeff_sequence(d, 30) for d in dists[:size]]
    assert coeff_sequence(dists[0], 30) is first[0]  # now the most recent
    coeff_sequence(dists[size], 30)
    cache = distributions._sequence_cache
    assert len(cache) == size
    assert (dists[1], 30) not in cache
    assert coeff_sequence(dists[0], 30) is first[0]
    assert all(coeff_sequence(d, 30) is seq for d, seq in zip(dists[2:size], first[2:]))


def test_coeff_sequence_memoizes():
    calls = []
    s = L2Sample(fn=lambda x: (calls.append(1), mp.exp(-(x**2) / 2))[1])
    seq = coeff_sequence(s, 30)
    first = seq(3)
    count = len(calls)
    again = seq(3)
    assert again == first
    assert len(calls) == count


def test_weak_derivative_shifts_coefficients():
    # the argument-side transfer of d and x (branches.ladder_branches), at
    # points off 0 too, against the letter definitions
    # (d s)_n, (x s)_n = (sqrt(n+1) s_{n+1} -/+ sqrt(n) s_{n-1}) / sqrt(2)
    dists = (ExpReal(1), CosWave(2), SinWave(Fraction(1, 3)), DeltaDeriv(1), Monomial(2))
    for dist in dists:
        seq = coeff_sequence(dist, 40)
        for letter, sign in (("d", -1), ("x", 1)):
            word = word_branches(((1, (letter,)),), seq.branches, 40)
            got = CoeffSequence(*branch_stream(word, 40), None, 40)
            with mp.workdps(50):
                for n in range(40):
                    lower = mp.sqrt(n) * seq(n - 1) if n else 0
                    want = (mp.sqrt(n + 1) * seq(n + 1) + sign * lower) / mp.sqrt(2)
                    assert abs(got(n) - want) <= mpf("1e-36") * max(1, abs(want))


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=25))
@settings(max_examples=40, deadline=None)
def test_monomial_coefficient_parity_structure(degree, n):
    with mp.workdps(30):
        value = coeff(Monomial(degree), n, 30)
        if (n - degree) % 2:
            assert value == 0
        elif n <= degree:
            assert value != 0


def test_coeffs_against_quadrature_sweep():
    # a denser non-frozen cross-check, n <= 12 for speed
    cases = [
        (ExpReal(Fraction(1, 2)), lambda x: mp.exp(x / 2)),
        (CosWave(2), lambda x: mp.cos(2 * x)),
        (Monomial(4), lambda x: x**4),
    ]
    with mp.workdps(40):
        for dist, fn in cases:
            for n in range(13):
                want = basis_projection(fn, n, 40)
                got = coeff(dist, n, 40)
                assert abs(got - want) < mpf("1e-33") * max(1, abs(want))
