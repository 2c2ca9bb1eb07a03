"""Gauss-Hermite rules: the direct projection of L2 callables, and the basis
projections used as the numeric oracle."""

import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from mpmath import mp, mpf

import eprod
from eprod import quadrature
from eprod.distributions import DeltaDeriv, L2Sample, LinearCombo, coeff, coeff_sequence
from eprod.eproduct import ABSOLUTELY_CONVERGENT, classify_and_sum
from eprod.hermite import eigenfunction_eval, eigenfunction_values
from eprod.quadrature import (
    basis_projection,
    basis_rows,
    gauss_hermite_rule,
    integrate,
    l2_coefficients,
)

mp.dps = 40


def test_rule_weights_sum_to_sqrt_pi():
    nodes, weights = gauss_hermite_rule(60, 40)
    with mp.workdps(40):
        assert abs(sum(weights) - mp.sqrt(mp.pi)) < mpf("1e-38")


def test_rule_symmetric_nodes():
    nodes, weights = gauss_hermite_rule(50, 40)
    with mp.workdps(40):
        paired = sorted(nodes)
        for a, b in zip(paired, reversed(paired)):
            assert abs(a + b) < mpf("1e-38")


def test_rule_integrates_even_powers_exactly():
    # int x^(2k) e^{-x^2} dx = Gamma(k + 1/2)
    nodes, weights = gauss_hermite_rule(40, 40)
    with mp.workdps(40):
        for k in range(12):
            got = sum(w * x ** (2 * k) for x, w in zip(nodes, weights))
            want = mp.gamma(k + mpf("0.5"))
            assert abs(got - want) < mpf("1e-35") * want


def test_integrate_gaussian_of_unit_width():
    with mp.workdps(40):
        got = integrate(lambda x: mp.exp(-(x**2) / 2), 40)
        assert abs(got - mp.sqrt(2 * mp.pi)) < mpf("1e-37")


def test_integrate_with_polynomial_factor():
    with mp.workdps(40):
        got = integrate(lambda x: x**4 * mp.exp(-(x**2) / 2), 40)
        assert abs(got - 3 * mp.sqrt(2 * mp.pi)) < mpf("1e-35")


def test_basis_projection_orthonormality():
    with mp.workdps(40):
        for n in range(5):
            fn = lambda x, n=n: eigenfunction_eval(n, x, 40)
            for m in range(5):
                got = basis_projection(fn, m, 40)
                want = 1 if n == m else 0
                assert abs(got - want) < mpf("1e-35")


def test_basis_rows_are_gaussian_compensated_values():
    # rows[n][i] = e_n(x_i) exp(x_i^2 / 2) on the abscissas x_i = sqrt(2) u_i
    rows = basis_rows(6, n_nodes=80, dps=40)
    nodes, _ = gauss_hermite_rule(80, 40)
    with mp.workdps(40):
        for n, row in enumerate(rows):
            for u, v in zip(nodes, row):
                x = mp.sqrt(2) * u
                want = eigenfunction_eval(n, x, 40) * mp.exp(x * x / 2)
                assert abs(v - want) < mpf("1e-33") * max(1, abs(want))


# -- rules at production sizes --------------------------------------------------


@pytest.mark.parametrize("n_nodes", [16, 32, 64, 128, 200, 256])
def test_rule_at_production_sizes(n_nodes):
    # distinct seeds: a seed that collapses onto a neighbouring root shows
    # up as a repeated node and a wrong weight sum
    dps = 30 if n_nodes > 128 else 40
    nodes, weights = gauss_hermite_rule(n_nodes, dps)
    with mp.workdps(dps):
        assert len(nodes) == n_nodes
        gaps = [b - a for a, b in zip(nodes, nodes[1:])]
        assert min(gaps) > mpf(1) / n_nodes
        assert all(abs(a + b) < mpf(10) ** (-dps) for a, b in zip(nodes, reversed(nodes)))
        tol = mpf(10) ** (-(dps - 2))
        assert abs(mp.fsum(weights) - mp.sqrt(mp.pi)) < tol
        second = mp.fsum(w * u * u for u, w in zip(nodes, weights))
        assert abs(second - mp.sqrt(mp.pi) / 2) < tol


def test_basis_projection_rejects_indices_past_the_rule():
    with pytest.raises(ValueError):
        basis_projection(lambda x: 1, 16, 30, n_nodes=16)
    basis_projection(lambda x: 1, 15, 30, n_nodes=16)


def test_row_cache_is_bounded():
    for n_nodes in range(1, 2 * quadrature.CACHE_SIZE + 2):
        basis_rows(1, n_nodes=n_nodes, dps=30)
        assert len(quadrature._rows_cache) <= quadrature.CACHE_SIZE
    # least recently used goes first
    oldest = next(iter(quadrature._rows_cache))
    basis_rows(1, n_nodes=oldest[0], dps=30)
    basis_rows(1, n_nodes=100, dps=30)
    assert oldest in quadrature._rows_cache
    for cached in (quadrature.gauss_hermite_rule, quadrature._line_rule, quadrature._direct_rule):
        assert cached.cache_info().maxsize == quadrature.CACHE_SIZE


# -- direct rule ------------------------------------------------------------------


def _settling_rung(degree):
    """First rung N >= 32 whose coefficients and whose predecessor's, on
    every index the criterion compares, are exact for a degree-d function
    poly_d(x) exp(-x**2/2): the N/2-node rule is exact for d + n <= N - 1."""
    n_nodes = 32
    while degree + min(degree, n_nodes // 2 - 1) > n_nodes - 1 or degree >= n_nodes - 1:
        n_nodes *= 2
    return n_nodes


@pytest.mark.parametrize("degree", [0, 3, 20, 40])
def test_direct_rule_settles_on_finite_combinations(degree):
    dps = 40
    want = [mpf(0)] * (degree + 1)
    for m in range(0, degree + 1, 3):
        want[m] = mpf(m + 1) / (m + 2)
    want[degree] = mpf(-1) / 3
    calls = []

    def fn(x):
        calls.append(x)
        values = eigenfunction_values(degree, x, dps)
        return mp.fsum(a * v for a, v in zip(want, values))

    coeffs, settled = l2_coefficients(fn, dps)
    assert settled
    assert len(coeffs) == degree + 1
    with mp.workdps(dps):
        assert max(abs(c - a) for c, a in zip(coeffs, want)) < mpf(10) ** (-(dps - 5))
    # rungs 16, 32, ..., N evaluate fn at 16 + 32 + ... + N = 2N - 16 nodes
    assert len(calls) == 2 * _settling_rung(degree) - 16


def test_direct_rule_rejects_values_that_are_not_finite():
    with pytest.raises(ValueError):
        l2_coefficients(lambda x: mp.inf if x > 3 else mp.exp(-(x**2) / 2), 30)


def test_l2_callable_pairs_on_its_finite_support():
    quadrature.gauss_hermite_rule.cache_clear()
    quadrature._direct_rule.cache_clear()
    gaussian = L2Sample(fn=lambda x: mp.exp(-(x**2) / 2))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        res = classify_and_sum(gaussian, DeltaDeriv(0), dps=60)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == ABSOLUTELY_CONVERGENT
    assert not res.diagnostics.low_confidence
    assert res.diagnostics.message == "finite support: exact truncated sum"
    with mp.workdps(60):
        assert abs(res.value - 1) < mpf("1e-20")
    assert elapsed < 3 and peak < 60 * 2**20
    # past the resolution a coefficient is 0, not aliasing
    assert coeff(gaussian, 300, 60) == 0
    assert coeff_sequence(gaussian, 60).support == 1
    doubled = classify_and_sum(LinearCombo(((2, gaussian),)), DeltaDeriv(0), dps=60)
    assert doubled.status == ABSOLUTELY_CONVERGENT
    with mp.workdps(60):
        assert abs(doubled.value - 2) < mpf("1e-20")


def test_slowly_decaying_callable_is_low_confidence():
    # 1/(1 + x^2) has coefficients decaying like exp(-c sqrt(n)): no rung settles
    lorentzian = L2Sample(fn=lambda x: 1 / (1 + x**2))
    assert coeff_sequence(lorentzian, 30).low_confidence
    res = classify_and_sum(lorentzian, DeltaDeriv(0), dps=30)
    assert res.status == ABSOLUTELY_CONVERGENT
    assert res.diagnostics.low_confidence
    assert "did not settle" in res.diagnostics.message
    assert res.n_terms <= quadrature.L2_MAX_NODES


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(eprod.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, eprod; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
