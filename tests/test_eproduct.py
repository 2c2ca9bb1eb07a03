"""Series classification pipeline, Abel machinery, and the family rows."""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from eprod.distributions import (
    CosWave,
    DeltaDeriv,
    ExpReal,
    L2Sample,
    LinearCombo,
    Monomial,
    NormalizedDeltaDeriv,
    NormalizedMonomial,
    SinWave,
    coeff_sequence,
)
from eprod.eproduct import (
    ABEL_SUMMABLE,
    ABSOLUTELY_CONVERGENT,
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    ZERO_BY_PARITY,
    _CROSS_CHECK_TERMS,
    ConfigError,
    SummationConfig,
    TermSource,
    abel_sum,
    classify_and_sum,
    classify_series,
    pair_partial_sums_exact,
    pair_term_exact,
    partial_sums,
    phi_psi_product,
    raabe_test,
    series_row_source,
    series_term,
)
from eprod.exact import ExactTerm, SqrtTerm

mp.dps = 40

_CFG = SummationConfig()


def _basis_vector(n):
    return L2Sample(coeffs=(0,) * n + (1,))


# -- configuration -----------------------------------------------------------


def test_config_defaults():
    cfg = SummationConfig()
    assert cfg.max_terms == 4000
    assert float(cfg.tolerance) == 1e-16
    assert cfg.abel_levels == 20
    assert cfg.extrapolation_depth == 6
    assert float(cfg.divergence_margin) == 0.1
    assert float(cfg.partial_sum_cap) == 1e40


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_terms": 0},
        {"max_terms": 10**7 + 1},
        {"tolerance": 0.0},
        {"tolerance": 1.0},
        {"abel_levels": 5},
        {"abel_levels": 41},
        {"extrapolation_depth": 0},
        {"extrapolation_depth": 17},
        {"divergence_margin": 0.0},
        {"divergence_margin": 0.5},
        {"partial_sum_cap": 1.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SummationConfig(**kwargs)


# -- Raabe estimates ----------------------------------------------------------


def test_raabe_on_inverse_square():
    with mp.workdps(40):
        terms = [1 / mpf(n) ** 2 for n in range(1, 3000)]
        rho = raabe_test(terms, index_base=1)
        assert abs(rho - 2) < mpf("0.01")


def test_raabe_on_harmonic():
    with mp.workdps(40):
        terms = [1 / mpf(n) for n in range(1, 3000)]
        rho = raabe_test(terms, index_base=1)
        assert abs(rho - 1) < mpf("0.01")


def test_raabe_on_central_binomial_ratio():
    # (2l)! / (4^l l!^2) ~ 1/sqrt(pi l): the exponent is 1/2
    with mp.workdps(40):
        terms = [mpf(1)]
        for l in range(1, 4000):
            terms.append(terms[-1] * (2 * l - 1) / (2 * l))
        rho = raabe_test(terms)
        assert abs(rho - mpf("0.5")) < mpf("0.02")


def test_raabe_needs_positive_terms():
    with pytest.raises(ValueError):
        raabe_test([mpf(1), mpf(-1), mpf(1)])
    with pytest.raises(ValueError):
        raabe_test([mpf(1), mpf(2)])


# -- term sources --------------------------------------------------------------


def test_term_source_memoizes_and_extends_in_order():
    seen = []

    def fetch(j):
        seen.append(j)
        return mpf(j)

    src = TermSource(fetch)
    assert src.term(3) == 3
    assert seen == [0, 1, 2, 3]
    assert src.term(1) == 1
    assert seen == [0, 1, 2, 3]


def test_term_source_grid():
    src = TermSource(lambda j: mpf(j), stride=2, offset=1)
    assert [src.basis_index(j) for j in range(4)] == [1, 3, 5, 7]
    assert src.stored_support() is None
    bounded = TermSource(lambda j: mpf(j), stride=2, offset=1, support=6)
    assert bounded.stored_support() == 3  # indices 1, 3, 5


# -- Abel machinery -------------------------------------------------------------


def test_abel_sum_of_grandi_series():
    src = TermSource(lambda j: mpf(-1) ** j)
    value, ok, levels = abel_sum(src, _CFG, 40)
    assert ok
    with mp.workdps(40):
        assert abs(value - mpf("0.5")) < mpf("1e-16")
    assert [lvl.k for lvl in levels] == list(range(4, 4 + len(levels)))


@pytest.mark.parametrize("c", ["0.98", "0.95"])
def test_abel_sum_runs_past_a_trough_of_the_terms(c):
    # t_j = sin(pi j / 100)**40 c**j all but vanishes near every j = 100 m;
    # a level that stops in the first trough drops every later crest
    c = mpf(c)
    src = TermSource(lambda j: mp.sin(mp.pi * j / 100) ** 40 * c**j)
    value, ok, _ = abel_sum(src, _CFG, 30)
    assert ok
    with mp.workdps(30):
        want = sum(src.term(j) for j in range(100)) / (1 - c**100)
        assert abs(value - want) <= mpf("1e-12") * want


def test_abel_sum_stops_at_a_finite_support():
    src = TermSource(lambda j: mpf(j + 1), support=5)
    value, ok, _ = abel_sum(src, _CFG, 30)
    assert ok
    assert value == 15


def test_abel_sum_gives_up_on_a_level_past_the_bailout():
    fetched = []

    def fetch(j):
        fetched.append(j)
        return mpf(3) ** j

    value, ok, levels = abel_sum(TermSource(fetch), _CFG, 30)
    assert not ok and levels == []
    assert len(fetched) < 2048


def test_abel_sum_uses_closed_form_and_cross_checks():
    # honest closed form: geometric ratio 1/2 summed against r
    def closed(r):
        return 1 / (1 - r / 2)

    src = TermSource(lambda j: mpf(2) ** -j, abel_eval=closed)
    value, ok, _ = abel_sum(src, _CFG, 40)
    assert ok
    with mp.workdps(40):
        assert abs(value - 2) < mpf("1e-20")


def test_abel_sum_poisoned_closed_form_raises():
    src = TermSource(lambda j: mpf(2) ** -j, abel_eval=lambda r: mpc(999))
    with pytest.raises(RuntimeError):
        abel_sum(src, _CFG, 40)


@pytest.mark.parametrize("dps", [30, 60])
def test_cross_check_accepts_slowly_decaying_honest_closed_form(dps):
    # the weighted terms of exp(-2x) x delta^(3) decay slowly past their
    # peak at r = 15/16; the direct sum must run far enough that the dropped
    # tail stays below the gate it is compared against
    res = classify_and_sum(ExpReal(-2), DeltaDeriv(3), dps=dps)
    assert res.status == ABEL_SUMMABLE
    with mp.workdps(dps):
        assert abs(res.value - 8) < mpf("1e-12")


@pytest.mark.parametrize(
    "F,status",
    [
        (ExpReal(Fraction(1, 2)), ABEL_SUMMABLE),
        (ExpReal(Fraction(-1, 2)), ABEL_SUMMABLE),
        (ExpReal(2), DIVERGENT),
        (SinWave(Fraction(1, 2)), ABEL_SUMMABLE),
    ],
)
def test_cross_check_reaches_past_beating_and_growing_terms(F, status):
    # against sin(1) the weighted terms beat (a trough at n = 241, a crest
    # at 271) and exp coefficients grow like exp(g sqrt(2n)): the direct sum
    # must not stop in a trough while later crests still exceed the gate
    res = classify_and_sum(F, SinWave(1), dps=30)
    assert res.status == status
    first = res.diagnostics.abel_trace[0]  # the cross-checked level
    assert first.k == 4
    f, g = coeff_sequence(F, 80), coeff_sequence(SinWave(1), 80)
    with mp.workdps(80):
        r = 1 - mpf(2) ** -4
        direct = sum(mp.conj(f(n)) * g(n) * r**n for n in range(3000))
        assert abs(first.value - direct) <= mpf("1e-25") * max(1, abs(direct))


# -- classification stages -------------------------------------------------------


def test_finite_support_truncates_exactly():
    src = TermSource(lambda j: mpf(j), support=5)
    res = classify_series(src, _CFG, 40)
    assert res.status == ABSOLUTELY_CONVERGENT
    assert res.value == 0 + 1 + 2 + 3 + 4
    assert res.diagnostics.message.startswith("finite support")


def test_geometric_tail_is_absolutely_convergent():
    src = TermSource(lambda j: mpf(3) ** -j)
    res = classify_series(src, _CFG, 40)
    assert res.status == ABSOLUTELY_CONVERGENT
    with mp.workdps(40):
        assert abs(res.value - mpf(3) / 2) < mpf("1e-36")


def test_stabilized_alternating_sum_is_convergent():
    # sum (-1)^j / (j+1)^4 stabilizes within the scan budget
    src = TermSource(lambda j: mpf(-1) ** j / mpf(j + 1) ** 4)
    res = classify_series(src, SummationConfig(tolerance=1e-13), 40)
    assert res.status in (CONVERGENT, ABSOLUTELY_CONVERGENT)
    with mp.workdps(40):
        want = mpf(7) / 8 * mp.zeta(4)  # eta(4)
        assert abs(res.value - want) < mpf("1e-12")


def test_geometric_growth_is_divergent():
    src = TermSource(lambda j: mpf(-1.5) ** j)
    res = classify_series(src, _CFG, 40)
    assert res.status == DIVERGENT
    assert res.value is None
    assert "grow" in res.diagnostics.message


def test_polynomial_growth_falls_through_to_abel():
    # sum (-1)^j j is not geometric growth; its Abel value is -1/4
    src = TermSource(lambda j: mpf(-1) ** j * j)
    res = classify_series(src, _CFG, 40)
    assert res.status == ABEL_SUMMABLE
    with mp.workdps(40):
        assert abs(res.value + mpf("0.25")) < mpf("1e-16")


def test_single_signed_raabe_divergence():
    # positive terms ~ 1/sqrt(j): exponent 1/2 < 1 - margin
    with mp.workdps(40):
        terms = [mpf(1)]
        for l in range(1, 4000):
            terms.append(terms[-1] * (2 * l - 1) / (2 * l))
    src = TermSource(lambda j: terms[j])
    res = classify_series(src, _CFG, 40)
    assert res.status == DIVERGENT
    assert res.diagnostics.raabe_estimate is not None
    with mp.workdps(40):
        assert abs(res.diagnostics.raabe_estimate - mpf("0.5")) < mpf("0.02")


def test_overflow_without_a_level_past_the_cap_is_inconclusive():
    # the scan's partial sums of delta^(40) x exp(1) pass the cap, but the
    # Abel levels stay small and extrapolate towards the value 1
    res = classify_and_sum(DeltaDeriv(40), ExpReal(1), dps=30)
    assert res.diagnostics.overflow_index is not None
    assert res.status == INCONCLUSIVE
    assert res.value is None
    with mp.workdps(30):
        assert abs(res.diagnostics.abel_trace[-1].richardson - 1) < mpf("1e-12")


def test_harmonic_terms_inside_margin_stay_inconclusive():
    src = TermSource(lambda j: 1 / mpf(j + 1))
    res = classify_series(src, SummationConfig(abel_levels=6), 40)
    assert res.status == INCONCLUSIVE
    assert res.value is None


# -- exact family rows ------------------------------------------------------------


def test_series_term_frozen_values():
    assert series_term("a", 0, 0, 0) == ExactTerm(Fraction(1), 2, 0)       # pi
    assert series_term("a", 1, 0, 0) == ExactTerm(Fraction(-1, 2), 2, 0)   # -pi/2
    assert series_term("b", 0, 0, 0) == ExactTerm(Fraction(1, 4), 2, 0)    # pi/4
    assert series_term("c", 1, 0, 0) == ExactTerm(Fraction(1, 2), 2, 0)
    assert series_term("d", 1, 0, 0) == ExactTerm(Fraction(3, 8), 2, 0)
    with pytest.raises(ValueError):
        series_term("e", 0, 0, 0)


def test_series_row_source_matches_exact_terms():
    for kind in "abcd":
        src = series_row_source(kind, 45)
        with mp.workdps(45):
            for j in range(0, 40, 7):
                want = series_term(kind, j, 0, 0).to_mpf(45)
                assert abs(src.term(j) - want) <= mpf("1e-38") * max(1, abs(want))


def test_series_row_limits():
    # the alternating rows close at pi/sqrt(2) and pi/(8 sqrt(2))
    with mp.workdps(50):
        targets = {"a": mp.pi / mp.sqrt(2), "b": mp.pi / (8 * mp.sqrt(2))}
    for kind, want in targets.items():
        src = series_row_source(kind, 50)
        value, ok, _ = abel_sum(src, SummationConfig(tolerance=1e-16), 50)
        assert ok
        with mp.workdps(50):
            assert abs(value - want) < mpf("1e-16")


def test_series_row_limit_through_the_term_route():
    # the same terms without the closed form: the term loop stays covered on
    # the paper's own series
    src = TermSource(series_row_source("a", 30).term, dps=30)
    value, ok, _ = abel_sum(src, SummationConfig(tolerance=1e-12), 30)
    assert ok
    with mp.workdps(30):
        assert abs(value - mp.pi / mp.sqrt(2)) < mpf("1e-10")


@pytest.mark.parametrize("kind", "abcd")
def test_series_row_closed_form_computes_only_the_cross_check_terms(kind):
    row = series_row_source(kind, 30)
    fetched = []

    def fetch(j):
        fetched.append(j)
        return row.term(j)

    abel_sum(TermSource(fetch, abel_eval=row.abel_eval, dps=30), _CFG, 30)
    assert 0 < len(fetched) <= _CROSS_CHECK_TERMS


@pytest.mark.parametrize("kind", "abcd")
def test_series_row_closed_form_matches_direct_summation(kind):
    src = series_row_source(kind, 40)
    with mp.workdps(40):
        for r in (mpf(1) / 2, mpf(15) / 16):
            total, j, p = mpf(0), 0, mpf(1)
            while j < 64 or abs(src.term(j)) * p > mpf("1e-45"):
                total += src.term(j) * p
                p *= r
                j += 1
            assert abs(src.abel_eval(r) - total) < mpf("1e-35")


def test_series_row_with_wrong_sign_closed_form_fails_the_cross_check():
    # row a alternates; the closed form of row c is its non-alternating twin
    src = TermSource(
        series_row_source("a", 30).term,
        abel_eval=series_row_source("c", 30).abel_eval,
        dps=30,
    )
    with pytest.raises(RuntimeError, match="disagrees with direct summation"):
        abel_sum(src, _CFG, 30)


def test_pair_term_exact_is_coefficient_product():
    t = pair_term_exact(DeltaDeriv(0), DeltaDeriv(0), 2)
    with mp.workdps(40):
        want = 1 / (2 * mp.sqrt(mp.pi))  # e_2(0)^2
        assert abs(t.to_mpf(40) - want) < mpf("1e-37")
    with pytest.raises(ValueError):
        pair_term_exact(ExpReal(1), DeltaDeriv(0), 2)


def test_delta_delta_partial_sums_exact():
    sums = pair_partial_sums_exact(DeltaDeriv(0), DeltaDeriv(0), 4)
    # S_4 = (1 + 1/2 + 3/8) / sqrt(pi)
    assert sums[4] == SqrtTerm(Fraction(15, 8), Fraction(1), -2)
    assert sums[0] == SqrtTerm(Fraction(1), Fraction(1), -2)
    assert sums[1] == sums[0]  # odd index adds nothing


# -- full pairings -----------------------------------------------------------------


def test_exp_delta_pairing_is_one():
    res = classify_and_sum(ExpReal(1), DeltaDeriv(0), _CFG, 60)
    assert res.status == ABEL_SUMMABLE
    with mp.workdps(60):
        assert abs(res.value - 1) < mpf("1e-18")


def test_opposite_parity_is_zero_without_any_scan():
    res = classify_and_sum(SinWave(1), DeltaDeriv(0), _CFG, 40)
    assert res.status == ZERO_BY_PARITY
    assert res.value == 0
    assert res.n_terms == 0
    res = classify_and_sum(Monomial(1), DeltaDeriv(2), _CFG, 40)
    assert res.status == ZERO_BY_PARITY


def test_delta_delta_diverges_with_raabe_half():
    res = classify_and_sum(DeltaDeriv(0), DeltaDeriv(0), _CFG, 40)
    assert res.status == DIVERGENT
    assert res.value is None
    with mp.workdps(40):
        assert abs(res.diagnostics.raabe_estimate - mpf("0.5")) < mpf("0.05")


def test_basis_vectors_pair_orthonormally():
    for n, m in ((0, 0), (2, 2), (1, 3)):
        res = classify_and_sum(_basis_vector(n), _basis_vector(m), _CFG, 40)
        assert res.status == ABSOLUTELY_CONVERGENT
        assert res.value == (1 if n == m else 0)


def test_biorthonormal_pairing_spot_checks():
    cfg = SummationConfig(tolerance=1e-13)
    res = phi_psi_product(1, 1, cfg, 60)
    assert res.has_value
    with mp.workdps(60):
        assert abs(res.value - 1) < mpf("1e-13")
    res = phi_psi_product(0, 2, cfg, 60)
    assert res.has_value
    with mp.workdps(60):
        assert abs(res.value) < mpf("1e-13")


def test_conjugate_symmetry_with_complex_scalars():
    left = LinearCombo(((mpc(0, 1), ExpReal(1)),))  # i * exp(x)
    a = classify_and_sum(left, DeltaDeriv(0), _CFG, 50)
    b = classify_and_sum(DeltaDeriv(0), left, _CFG, 50)
    assert a.has_value and b.has_value
    with mp.workdps(50):
        assert abs(a.value - mp.conj(b.value)) < mpf("1e-20")
        assert abs(a.value + mpc(0, 1)) < mpf("1e-20")  # conj(i) * 1


def test_partial_sums_of_basis_pair():
    sums = partial_sums(_basis_vector(5), _basis_vector(5), 8, 40)
    assert [mp.chop(s) for s in sums] == [0, 0, 0, 0, 0, 1, 1, 1, 1]


def test_partial_sums_delta_against_basis_vector():
    sums = partial_sums(DeltaDeriv(0), _basis_vector(2), 4, 40)
    with mp.workdps(40):
        want = -1 / (mp.sqrt(2) * mp.pi ** mpf("0.25"))  # e_2(0)
        for k in (2, 3, 4):
            assert abs(sums[k] - want) < mpf("1e-37")
        assert sums[0] == 0


def test_nonzero_scan_count_reported():
    res = classify_and_sum(ExpReal(1), DeltaDeriv(0), _CFG, 40)
    # even-only support: half the scanned indices carry terms
    assert res.diagnostics.n_nonzero > 0
    assert res.n_terms >= res.diagnostics.n_nonzero


# -- the kernel route for the ladder families ---------------------------------------

_CLOSED_FORM = "Abel levels evaluated in closed form"


def test_monomial_delta_grid_is_exact():
    # <x^p, delta^(k)> = (-1)^k d^k/dx^k x^p at 0 = (-1)^k k! delta_pk
    for p in range(5):
        for k in range(5):
            res = classify_and_sum(Monomial(p), DeltaDeriv(k), dps=30)
            if (p + k) % 2:
                assert res.status == ZERO_BY_PARITY
                assert res.value == 0
                continue
            assert res.status == ABEL_SUMMABLE, (p, k)
            want = (-1) ** k * math.factorial(k) if p == k else 0
            with mp.workdps(30):
                assert abs(res.value - want) < mpf("1e-12"), (p, k)


def test_phi_psi_grid_is_biorthonormal_at_30_digits():
    cfg = SummationConfig(tolerance=1e-13)
    for n in range(5):
        for m in range(5):
            res = phi_psi_product(n, m, cfg, 30)
            if (n + m) % 2:
                assert res.status == ZERO_BY_PARITY
                continue
            assert res.status == ABEL_SUMMABLE, (n, m)
            with mp.workdps(30):
                assert abs(res.value - (1 if n == m else 0)) < mpf("1e-12"), (n, m)
    assert phi_psi_product(3, 3, cfg, 30).diagnostics.message == _CLOSED_FORM


def test_combination_with_monomial_takes_the_closed_form():
    # <x^2 + 2 exp(x), delta''> = 2 + 2 * 1
    left = LinearCombo(((1, Monomial(2)), (2, ExpReal(1))))
    res = classify_and_sum(left, DeltaDeriv(2), dps=30)
    assert res.status == ABEL_SUMMABLE
    assert res.diagnostics.message == _CLOSED_FORM
    with mp.workdps(30):
        assert abs(res.value - 4) < mpf("1e-12")
