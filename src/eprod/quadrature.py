"""High-precision Gauss-Hermite quadrature: the projection of L2 callables,
and an independent oracle for the closed-form coefficients.

Both rules stand on the N-point Gauss-Hermite rule for the weight
exp(-u**2) (`gauss_hermite_rule`): nodes u_i, the roots of H_N, and weights

    w_i = 2**(N-1) N! sqrt(pi) / (N**2 H_{N-1}(u_i)**2),

exact for polynomials of degree <= 2N - 1.  Float seeds (the starting
guesses of Numerical Recipes' ``gauher``, refined by float Newton steps) are
polished by Newton iteration at working precision.  The rule is symmetric,
so only the nonnegative nodes are polished and the rest are mirrored.

Direct rule (`l2_coefficients`, the projection of ``L2Sample`` callables).
It works on x itself: with H~_n = e_n exp(x**2/2), a polynomial of degree n,

    c_n = int fn e_n dx = sum_i  w_i exp(u_i**2/2) fn(u_i) H~_n(u_i),

which is exact for fn = poly_d(x) exp(-x**2/2) whenever d + n <= 2N - 1:
the rule matches functions that decay like the basis itself.  The node
count is chosen per callable (16, 32, ... up to `L2_MAX_NODES`), and the
coefficients past the resolution it settles on are cut.

Compensated rule (`integrate`, `basis_projection`, `basis_rows`: the
oracle, defaulting to `DEFAULT_NODES`).  The substitution x = sqrt(2) u
gives abscissas x_i = sqrt(2) u_i and weights sqrt(2) w_i exp(u_i**2).
`integrate` is exact for fn = poly_d(x) exp(-x**2/2) with d <= 2N - 1, and
`basis_projection` of index n is exact for polynomial fn of degree d with
d + n <= 2N - 1, so it also serves functions that grow polynomially.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from mpmath import mp, mpc, mpf

from .precision import DEFAULT_DPS, working

__all__ = [
    "gauss_hermite_rule",
    "integrate",
    "basis_projection",
    "basis_rows",
    "l2_coefficients",
]

DEFAULT_NODES = 200
# rungs of the direct rule: 16, 32, ..., L2_MAX_NODES nodes
L2_FIRST_NODES = 16
L2_MAX_NODES = 256
# entries kept by each rule and row cache
CACHE_SIZE = 8
_LOG2_10 = math.log2(10)


def _float_seeds(n_nodes: int) -> list[float]:
    """The nonnegative roots of H_n in float, largest first.

    Starting guesses follow ``gauher`` (Press et al., Numerical Recipes
    section 4.6); each is refined by Newton steps on the normalized
    eigenfunction e_n, whose derivative is sqrt(2n) e_{n-1} - x e_n.  The
    Gaussian factor of e_n cancels from the step, so the recurrence runs on
    the polynomial part, rescaled whenever it grows large.
    """
    n = n_nodes
    roots: list[float] = []
    z = 0.0
    for i in range((n + 1) // 2):
        if i == 0:
            z = math.sqrt(2 * n + 1) - 1.85575 * (2 * n + 1) ** (-0.16667)
        elif i == 1:
            z -= 1.14 * n**0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * roots[0]
        elif i == 3:
            z = 1.91 * z - 0.91 * roots[1]
        else:
            z = 2 * z - roots[i - 2]
        for _ in range(100):
            cur, prev = 1.0, 0.0
            for k in range(1, n + 1):
                cur, prev = z * math.sqrt(2.0 / k) * cur - math.sqrt((k - 1) / k) * prev, cur
                if abs(cur) > 1e150:
                    cur, prev = cur * 1e-150, prev * 1e-150
            step = cur / (math.sqrt(2 * n) * prev - z * cur)
            z -= step
            if abs(step) <= 1e-14 * max(1.0, abs(z)):
                break
        roots.append(z)
    return roots


def _fixed_bits(dps: int) -> int:
    """Fraction bits of the fixed-point integers: dps + 20 digits."""
    return math.ceil((dps + 20) * _LOG2_10)


def _hermite_pair(x: int, n: int, bits: int) -> tuple[int, int]:
    """(H_{n-1}, H_n) at x / 2**bits, in fixed point with `bits` fraction bits."""
    x2 = 2 * x
    prev, cur = 1 << bits, x2
    for k in range(1, n):
        prev, cur = cur, ((x2 * cur) >> bits) - 2 * k * prev
    return prev, cur


@lru_cache(maxsize=CACHE_SIZE)
def gauss_hermite_rule(n_nodes: int, dps: int) -> tuple[tuple[mpf, ...], tuple[mpf, ...]]:
    """(nodes, weights) of the n-point rule for weight exp(-u**2), at dps
    digits; the nodes increase.

    Newton steps H_n / H_n' = H_n / (2n H_{n-1}) run in integer fixed point
    at dps + 20 digits, until a step is below about 10**-(dps+5).
    """
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    seeds = _float_seeds(n_nodes)
    bits = _fixed_bits(dps)
    target = 1 << (bits - math.floor((dps + 5) * _LOG2_10))
    half_nodes = []
    half_prevs = []
    for i, seed in enumerate(seeds):
        if n_nodes % 2 and i == len(seeds) - 1:
            x = 0  # odd rules have the root 0 by parity
        elif not math.isfinite(seed):
            raise RuntimeError(f"node refinement stalled near {seed}")
        else:
            x = int(math.ldexp(seed, 60)) << (bits - 60)
            for _ in range(80):
                prev, cur = _hermite_pair(x, n_nodes, bits)
                step = (cur << bits) // (2 * n_nodes * prev)
                x -= step
                if abs(step) <= target:
                    break
            else:
                raise RuntimeError(f"node refinement stalled near {seed}")
        half_nodes.append(x)
        half_prevs.append(_hermite_pair(x, n_nodes, bits)[0])
    mirror = len(seeds) - n_nodes % 2
    with working(dps + 10):
        wscale = 2 ** (n_nodes - 1) * mp.factorial(n_nodes) * mp.sqrt(mp.pi) / n_nodes**2
        # w_i = wscale / H_{n-1}(u_i)**2; the integers carry 2**bits each
        weights = [wscale * mp.ldexp(1, 2 * bits) / mpf(p * p) for p in half_prevs]
        nodes = [mp.ldexp(x, -bits) for x in half_nodes]
        nodes = [-x for x in nodes[:mirror]] + nodes[::-1]
    weights = weights[:mirror] + weights[::-1]
    return tuple(nodes), tuple(weights)


# -- direct rule: L2 callables ------------------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def _direct_rule(n_nodes: int, dps: int):
    """(us, vs, rows, bits, row_bits) of the direct n-point rule.

    us are the nonnegative nodes, vs their direct weights w_i exp(u_i**2/2),
    and rows[n][i] = H~_n(u_i) * 2**bits as integers for n < n_nodes, by the
    normalized recurrence H~_{n+1} = sqrt(2/(n+1)) u H~_n - sqrt(n/(n+1))
    H~_{n-1} in fixed point; row_bits is the bit length of the largest.
    n_nodes is even, and H~_n(-u) = (-1)**n H~_n(u), so the negative nodes
    enter by parity.
    """
    nodes, weights = gauss_hermite_rule(n_nodes, dps)
    half = n_nodes // 2
    bits = _fixed_bits(dps)
    with working(dps):
        us = nodes[half:]
        vs = [w * mp.exp(u * u / 2) for u, w in zip(us, weights[half:])]

        def fixed(v):
            return int(mp.ldexp(v, bits))

        xs = [fixed(u) for u in us]
        last, before = [fixed(mp.pi ** mpf("-0.25"))] * half, [0] * half
        rows = [last]
        for n in range(n_nodes - 1):
            a, b = fixed(mp.sqrt(mpf(2) / (n + 1))), fixed(mp.sqrt(mpf(n) / (n + 1)))
            last, before = [
                ((a * x >> bits) * p - b * q) >> bits for x, p, q in zip(xs, last, before)
            ], last
            rows.append(last)
    row_bits = max(abs(r).bit_length() for row in rows for r in row)
    return us, vs, rows, bits, row_bits


def _direct_projection(fn, n_nodes: int, dps: int) -> list:
    """c_0 .. c_{n_nodes-1} of fn on the direct n-point rule.

    The sums run over integers: the node values g = v fn(u), split into
    their even and odd parts, are fixed at a common scale chosen so that
    the dropped bits cost at most 2**-bits of the largest |g|.
    """
    us, vs, rows, bits, row_bits = _direct_rule(n_nodes, dps)
    with working(dps):
        plus = [v * fn(u) for u, v in zip(us, vs)]
        minus = [v * fn(-u) for u, v in zip(us, vs)]
        if not all(mp.isfinite(g) for g in plus + minus):
            raise ValueError("the callable returned a value that is not finite")
        top = max(mp.mag(g) for g in plus + minus)
        if top == -mp.inf:
            return [mpf(0)] * n_nodes
        shift = row_bits + n_nodes.bit_length() - top
        parts = []
        for sign in (1, -1):  # even rows, odd rows
            g = [p + sign * m for p, m in zip(plus, minus)]
            parts.append(
                [[int(mp.ldexp(part(x), shift)) for x in g] for part in (mp.re, mp.im)]
            )
        coeffs = []
        for n, row in enumerate(rows):
            re, im = (sum(map(mul, row, ints)) for ints in parts[n % 2])
            scale = -(shift + bits)
            value = mp.ldexp(re, scale)
            coeffs.append(mpc(value, mp.ldexp(im, scale)) if im else value)
        return coeffs


def l2_coefficients(fn, dps: int = DEFAULT_DPS) -> tuple[list, bool]:
    """(coefficients, settled): fn's basis coefficients up to its resolution.

    The node count doubles from `L2_FIRST_NODES` and stops at the first
    rung N where the coefficients fall below 10**-dps times the largest
    from some index R < N on, and agree below R with the previous rung.
    The list then holds c_0 .. c_{R-1}; every later coefficient is taken
    as 0.  A callable still unsettled at `L2_MAX_NODES` nodes returns that
    rung's coefficients up to its own R, with settled False.
    """
    previous = None
    n_nodes = L2_FIRST_NODES
    while True:
        coeffs = _direct_projection(fn, n_nodes, dps)
        with working(dps):
            cut = max(abs(c) for c in coeffs) * mpf(10) ** (-dps)
            resolution = n_nodes
            while resolution and abs(coeffs[resolution - 1]) <= cut:
                resolution -= 1
            settled = (
                previous is not None
                and resolution < n_nodes
                and all(
                    abs(c - p) <= cut for c, p in zip(coeffs[:resolution], previous)
                )
            )
        if settled or n_nodes >= L2_MAX_NODES:
            return coeffs[:resolution], settled
        previous = coeffs
        n_nodes *= 2


# -- compensated rule: the oracle ---------------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def _line_rule(n_nodes: int, dps: int) -> tuple[tuple[mpf, ...], tuple[mpf, ...]]:
    """Abscissas x_i = sqrt(2) u_i and compensated weights v_i = sqrt(2) w_i e^{u_i^2}."""
    nodes, weights = gauss_hermite_rule(n_nodes, dps)
    with working(dps + 10):
        root2 = mp.sqrt(2)
        xs = tuple(root2 * u for u in nodes)
        vs = tuple(root2 * w * mp.exp(u * u) for u, w in zip(nodes, weights))
        return xs, vs


def integrate(fn, dps: int = DEFAULT_DPS, n_nodes: int = DEFAULT_NODES):
    """Integral of fn over the real line; fn must decay at least like exp(-x**2/2)."""
    xs, vs = _line_rule(n_nodes, dps)
    with working(dps):
        return mp.fsum(v * fn(x) for x, v in zip(xs, vs))


# (n_nodes, dps) -> rows, least recently used first
_rows_cache: dict[tuple[int, int], list] = {}


def basis_rows(n_max: int, n_nodes: int = DEFAULT_NODES, dps: int = DEFAULT_DPS) -> list:
    """rows[n][i] = e_n(x_i) * exp(x_i**2/2) on the line rule's abscissas.

    The Gaussian factor of e_n cancels against the rule's compensation, so
    these grow only polynomially and extend cheaply by the normalized
    recurrence.  Rows are cached per (n_nodes, dps) and shared; the cache
    keeps the `CACHE_SIZE` most recently used keys.
    """
    key = (n_nodes, dps)
    rows = _rows_cache.pop(key, None)
    xs, _ = _line_rule(n_nodes, dps)
    with working(dps):
        if rows is None:
            rows = [[mp.pi ** mpf("-0.25")] * len(xs)]
            while len(_rows_cache) >= CACHE_SIZE:
                del _rows_cache[next(iter(_rows_cache))]
        _rows_cache[key] = rows
        while len(rows) <= n_max:
            n = len(rows) - 1
            a = mp.sqrt(mpf(2) / (n + 1))
            b = mp.sqrt(mpf(n) / (n + 1)) if n else mpf(0)
            last = rows[-1]
            before = rows[-2] if n else None
            rows.append(
                [
                    a * x * last[i] - (b * before[i] if before is not None else 0)
                    for i, x in enumerate(xs)
                ]
            )
    return rows


def basis_projection(fn, n: int, dps: int = DEFAULT_DPS, n_nodes: int = DEFAULT_NODES):
    """Integral of fn(x) e_n(x) dx for fn polynomial, or growing polynomially.

    The Gaussian halves of e_n and of the rule's compensation cancel, so the
    sum uses the raw weights against the compensated basis rows.  Raises
    ValueError for n >= n_nodes, where e_n vanishes at every node (n =
    n_nodes) or aliases onto lower indices.
    """
    if not 0 <= n < n_nodes:
        raise ValueError(f"index {n} is outside the {n_nodes}-node rule's range 0..{n_nodes - 1}")
    _, weights = gauss_hermite_rule(n_nodes, dps)
    xs, _ = _line_rule(n_nodes, dps)
    row = basis_rows(n, n_nodes, dps)[n]
    with working(dps):
        root2 = mp.sqrt(2)
        return root2 * mp.fsum(
            w * fn(x) * row[i] for i, (x, w) in enumerate(zip(xs, weights))
        )
