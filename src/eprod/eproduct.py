"""Pairing of two distributions through the eigenfunction basis.

The pairing of F and G is the series

    sum_n  conj(F[e_n]) * G[e_n],

which may converge absolutely, converge conditionally, converge only in the
Abel sense (limit of sum t_n r**n as r -> 1-), or diverge.  `classify_and_sum`
runs a fixed pipeline over the term stream:

    1. structural parity  ->  ZeroByParity
    2. geometric tail     ->  AbsolutelyConvergent (with certified tail bound)
    3. stabilized sums    ->  Convergent
    4. single-signed tail with a Raabe exponent below 1  ->  Divergent
    5. Abel regularization, Richardson-accelerated in 1 - r, cross-checked
       by a Wynn epsilon estimate  ->  AbelSummable
    6. otherwise          ->  Inconclusive

Every pairing has one term source.  A finite support gives the exact
truncated sum.  Otherwise, when both sides are point masses, monomials,
exponentials or waves (or combinations of them), stage 5 takes its Abel
levels from the eigenfunction-kernel closed form, cross-checked once against
direct summation; any other pair sums each Abel level term by term.

The exact hypergeometric rows (`series_term`) and the exact pair terms of
the monomial/delta families stay available for the exact identities they
carry; the pipeline does not use them.  The (0, 0) rows are binomial
series, so `series_row_source` carries their closed-form Abel transform and
`abel_sum` reaches the row limits without the term loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from mpmath import mp, mpc, mpf

from .distributions import (
    CosWave,
    DeltaDeriv,
    Distribution,
    ExpReal,
    LinearCombo,
    Monomial,
    NormalizedDeltaDeriv,
    NormalizedMonomial,
    SinWave,
    coeff_exact,
    coeff_sequence,
    parity,
    support_bound,
)
from .exact import ExactTerm, SqrtTerm
from .extrapolate import richardson_dyadic, wynn_epsilon
from .hermite import eigenfunction_kernel
from .precision import DEFAULT_DPS, check_dps, to_mpc, to_mpf, working
from .special import gamma_half_integer, gauss_2f1_terminating

__all__ = [
    "ABSOLUTELY_CONVERGENT",
    "CONVERGENT",
    "ABEL_SUMMABLE",
    "DIVERGENT",
    "ZERO_BY_PARITY",
    "INCONCLUSIVE",
    "SummationConfig",
    "ConfigError",
    "AbelLevel",
    "Diagnostics",
    "EProductResult",
    "TermSource",
    "raabe_test",
    "abel_sum",
    "classify_series",
    "classify_and_sum",
    "phi_psi_product",
    "phi_phi_product",
    "psi_psi_product",
    "series_term",
    "series_row_source",
    "pair_term_exact",
    "pair_partial_sums_exact",
    "partial_sums",
]

ABSOLUTELY_CONVERGENT = "AbsolutelyConvergent"
CONVERGENT = "Convergent"
ABEL_SUMMABLE = "AbelSummable"
DIVERGENT = "Divergent"
ZERO_BY_PARITY = "ZeroByParity"
INCONCLUSIVE = "Inconclusive"

_VALUED = {ABSOLUTELY_CONVERGENT, CONVERGENT, ABEL_SUMMABLE, ZERO_BY_PARITY}

# hard backstop for one Abel level's inner loop, independent of config
_MAX_INNER_TERMS = 2_000_000


class ConfigError(ValueError):
    """Invalid summation configuration."""


@dataclass(frozen=True)
class SummationConfig:
    max_terms: int = 4000
    tolerance: float = 1e-16
    abel_levels: int = 20
    extrapolation_depth: int = 6
    divergence_margin: float = 0.1
    partial_sum_cap: float = 1e40

    def __post_init__(self):
        if not (1 <= self.max_terms <= 10**7):
            raise ConfigError(f"max_terms out of range: {self.max_terms}")
        if not (0 < float(self.tolerance) < 1):
            raise ConfigError(f"tolerance out of range: {self.tolerance}")
        if not (6 <= self.abel_levels <= 40):
            raise ConfigError(f"abel_levels out of range: {self.abel_levels}")
        if not (1 <= self.extrapolation_depth <= 16):
            raise ConfigError(
                f"extrapolation_depth out of range: {self.extrapolation_depth}"
            )
        if not (0 < float(self.divergence_margin) < 0.5):
            raise ConfigError(
                f"divergence_margin out of range: {self.divergence_margin}"
            )
        if float(self.partial_sum_cap) <= 1:
            raise ConfigError(f"partial_sum_cap out of range: {self.partial_sum_cap}")


@dataclass
class AbelLevel:
    k: int
    value: mpf
    richardson: Optional[mpf] = None
    wynn: Optional[mpf] = None


@dataclass
class Diagnostics:
    n_scanned: int = 0
    n_nonzero: int = 0
    ratio_estimate: Optional[mpf] = None
    raabe_estimate: Optional[mpf] = None
    stabilization_dev: Optional[mpf] = None
    abel_trace: list = field(default_factory=list)
    overflow_index: Optional[int] = None
    low_confidence: bool = False
    message: str = ""


@dataclass
class EProductResult:
    status: str
    value: Optional[mpc]
    n_terms: int
    diagnostics: Diagnostics
    config: SummationConfig

    @property
    def has_value(self) -> bool:
        return self.status in _VALUED


class TermSource:
    """Memoized stream of series terms living on basis indices
    offset, offset + stride, offset + 2*stride, ...

    ``support`` (when given) is a basis-index bound past which every term
    vanishes exactly.  ``abel_eval`` (when given) is a closed form for the
    whole Abel transform r |-> sum_j t_j r**basis_index(j).  ``dps`` (when
    given) is the precision the source's own terms were computed at, and
    replaces the caller's working precision when it is classified and summed.
    """

    def __init__(
        self,
        fetch: Callable[[int], mpc],
        *,
        stride: int = 1,
        offset: int = 0,
        structural_zero: bool = False,
        support: Optional[int] = None,
        abel_eval: Optional[Callable] = None,
        dps: Optional[int] = None,
    ):
        self._fetch = fetch
        self.stride = stride
        self.offset = offset
        self.structural_zero = structural_zero
        self.support = support
        self.abel_eval = abel_eval
        self.dps = dps
        self._memo: list = []

    def basis_index(self, j: int) -> int:
        return self.offset + self.stride * j

    def stored_support(self) -> Optional[int]:
        """Number of stored terms covering the full support, when finite."""
        if self.support is None:
            return None
        if self.support <= self.offset:
            return 0
        return (self.support - self.offset + self.stride - 1) // self.stride

    def term(self, j: int):
        while len(self._memo) <= j:
            self._memo.append(self._fetch(len(self._memo)))
        return self._memo[j]


def raabe_test(terms, levels: int = 6, index_base: int = 0):
    """Estimate rho = lim n (t_n / t_{n+1} - 1) from positive magnitudes.

    ``terms[i]`` is the magnitude at series index ``index_base + i`` (the
    indices must be consecutive).  Single-index estimates are taken at
    dyadically spaced tail indices and Richardson-extrapolated in 1/n.
    """
    if len(terms) < 3:
        raise ValueError("need at least three terms")
    top = index_base + len(terms) - 2
    points = []
    n = top
    while n >= max(8, index_base) and len(points) <= levels:
        points.append(n)
        n //= 2
    if not points:
        points = [top]
    samples = []
    for n in reversed(points):  # largest h (= 1/n) first
        a, b = terms[n - index_base], terms[n - index_base + 1]
        if a <= 0 or b <= 0:
            raise ValueError("raabe_test needs positive terms")
        samples.append(n * (a / b - 1))
    estimate, _ = richardson_dyadic(samples)
    return estimate


def abel_sum(source: TermSource, cfg: SummationConfig, dps: int):
    """Abel-regularized value of the series carried by ``source``.

    Evaluates A(r_k) at r_k = 1 - 2**-k for k = 4, 5, ..., extrapolates the
    ladder to r = 1 by Richardson, and accepts once consecutive Richardson
    values agree within tolerance and a Wynn epsilon estimate concurs within
    ten times tolerance.  The tolerance scale is taken from the level values
    themselves (never from raw partial sums, whose size says nothing about
    the regularized limit).  Returns (value, ok, levels).

    A source with a closed-form ``abel_eval`` skips the term loop; the
    closed form is cross-checked against direct summation once, at the
    shallowest level, where the term route is still well conditioned.
    """
    eff = source.dps or dps
    with working(eff):
        tol = mpf(cfg.tolerance)
        scale = mpf(1)
        levels: list[AbelLevel] = []
        values = []
        prev_rich = None
        closed = source.abel_eval
        checked = closed is None
        for k in range(4, cfg.abel_levels + 1):
            r = 1 - mpf(2) ** (-k)
            if closed is not None:
                value = closed(r)
                if not checked:
                    _cross_check_level(source, r, value)
                    checked = True
            else:
                value, complete = _abel_inner(source, r, tol * scale / 8)
                if not complete:
                    return (prev_rich, False, levels)
            level = AbelLevel(k=k, value=value)
            levels.append(level)
            values.append(value)
            scale = max(scale, abs(value))
            if len(values) >= 3:
                rich, _ = richardson_dyadic(values, cfg.extrapolation_depth)
                wynn = wynn_epsilon(values)
                level.richardson = rich
                level.wynn = wynn
                gate = max(mpf(1), abs(rich))
                if (
                    prev_rich is not None
                    and abs(rich - prev_rich) <= tol * gate
                    and abs(rich - wynn) <= 10 * tol * gate
                ):
                    return (rich, True, levels)
                prev_rich = rich
        return (prev_rich, False, levels)


def _abel_inner(source: TermSource, r, inner_tol):
    """sum of t_j r**basis_index(j), truncated once the geometric tail bound
    drops below inner_tol; (value, completed)."""
    stop_support = source.stored_support()
    p = r ** source.offset
    step = r**source.stride
    threshold = inner_tol * (1 - r)
    bailout = mpf(10) ** 200
    total = 0
    below = 0
    j = 0
    term = source.term
    while j < _MAX_INNER_TERMS:
        if stop_support is not None and j >= stop_support:
            return total, True
        v = term(j) * p
        total += v
        if abs(v) <= threshold:
            below += 1
            if below >= 8 and j >= 32:
                return total, True
        else:
            below = 0
        if j % 1024 == 0 and abs(total) > bailout:
            return total, False
        p *= step
        j += 1
    return total, False


# cross-check budget: enough terms to resolve the shallowest Abel level
_CROSS_CHECK_TERMS = 6000


def _cross_check_level(source: TermSource, r, closed_value):
    """Guard that a closed-form evaluator and the raw terms describe the
    same series.  Compares at modest accuracy relative to the largest
    weighted term (direct summation loses digits to cancellation when the
    terms hump before decaying)."""
    p = r ** source.offset
    step = r**source.stride
    total = 0
    peak = mpf(1)
    below = 0
    term = source.term
    settled = False
    # the direct sum cannot beat peak * 10**-(working digits): cancellation
    # through the term hump already cost that much.  The gate is the larger
    # of that floor and a modest relative error; the tail past the hump
    # decays with ratio close to step, so stopping once a term is below
    # (1 - step) * gate keeps the dropped remainder inside the gate.
    floor = mpf(10) ** (-(mp.dps - 12))
    rel = mpf("1e-10") * max(mpf(1), abs(closed_value))
    for j in range(_CROSS_CHECK_TERMS):
        v = term(j) * p
        total += v
        a = abs(v)
        if a > peak:
            peak = a
        if a <= (1 - step) * max(rel, floor * peak):
            below += 1
            if below >= 8 and j >= 32:
                settled = True
                break
        else:
            below = 0
        p *= step
    if not settled:
        return
    gate = max(rel, mpf("1e-10") * abs(total), floor * peak)
    if abs(closed_value - total) > gate:
        raise RuntimeError(
            "closed-form Abel evaluator disagrees with direct summation "
            f"at r = {r}: {closed_value} vs {total}"
        )


def classify_series(source: TermSource, cfg: SummationConfig, dps: int) -> EProductResult:
    """Run the classification pipeline over one term stream."""
    diag = Diagnostics()
    if source.structural_zero:
        diag.message = "every term vanishes by parity"
        return EProductResult(ZERO_BY_PARITY, mpc(0), 0, diag, cfg)

    with working(source.dps or dps):
        tol = mpf(cfg.tolerance)
        cap = mpf(cfg.partial_sum_cap)
        stored_support = source.stored_support()

        # scan up to max_terms basis indices (or the whole finite support)
        j_limit = 0
        while source.basis_index(j_limit) < cfg.max_terms:
            j_limit += 1
        finite = stored_support is not None and stored_support <= j_limit
        if finite:
            j_limit = stored_support

        partial = 0
        sums: list = []
        nonzero: list[tuple[int, mpc]] = []
        peak = mpf(1)
        for j in range(j_limit):
            t = source.term(j)
            partial += t
            sums.append(partial)
            a = abs(partial)
            if a > peak:
                peak = a
            if t != 0:
                nonzero.append((j, t))
            if diag.overflow_index is None and a > cap:
                diag.overflow_index = source.basis_index(j)
        diag.n_scanned = source.basis_index(j_limit - 1) + 1 if j_limit else 0
        diag.n_nonzero = len(nonzero)
        scale = peak
        tol_abs = tol * scale

        if finite:
            value = sums[-1] if sums else mpc(0)
            diag.message = "finite support: exact truncated sum"
            return EProductResult(
                ABSOLUTELY_CONVERGENT, value, diag.n_scanned, diag, cfg
            )

        # stage 2: geometric decay of the nonzero magnitudes
        if len(nonzero) >= 8:
            window = nonzero[-min(24, len(nonzero) // 2) :]
            ratios = [
                abs(window[i + 1][1]) / abs(window[i][1])
                for i in range(len(window) - 1)
            ]
            worst = max(ratios)
            diag.ratio_estimate = worst
            if worst < mpf("0.95"):
                tail = abs(nonzero[-1][1]) * worst / (1 - worst)
                if tail <= tol_abs:
                    return EProductResult(
                        ABSOLUTELY_CONVERGENT, sums[-1], diag.n_scanned, diag, cfg
                    )

        # stage 3: partial sums already stabilized
        if len(sums) >= 8:
            w = min(32, max(4, len(sums) // 4))
            dev = max(abs(sums[-1 - i] - sums[-1]) for i in range(1, w + 1))
            diag.stabilization_dev = dev
            if dev <= tol_abs:
                return EProductResult(CONVERGENT, sums[-1], diag.n_scanned, diag, cfg)

        # stage 4: single-signed tail, Raabe exponent.  Work on the longest
        # suffix of nonzero terms whose stored indices are consecutive, so
        # the Raabe index matches the true series index.
        growing = False
        if len(nonzero) >= 32:
            suffix = [nonzero[-1]]
            for item in reversed(nonzero[:-1]):
                if item[0] == suffix[-1][0] - 1:
                    suffix.append(item)
                else:
                    break
            suffix.reverse()
            mags = [abs(t) for _, t in suffix]
            if len(mags) >= 65:
                tail_ratios = [
                    mags[i + 1] / mags[i] for i in range(len(mags) - 33, len(mags) - 1)
                ]
                # geometric growth means n*(ratio - 1) keeps growing linearly;
                # polynomial or exp(c sqrt(n)) humps flatten out instead and
                # can still be Abel-summable, so they must fall through
                last = len(mags) - 2
                mid = last // 2
                q_end = last * (mags[last + 1] / mags[last] - 1)
                q_mid = mid * (mags[mid + 1] / mags[mid] - 1)
                growing = (
                    min(tail_ratios) >= mpf("1.05")
                    and q_mid > 0
                    and q_end >= 2 * q_mid
                )
            if growing:
                # sum t_n r**n then diverges on a whole interval r < 1, so
                # neither ordinary nor Abel summation can exist
                diag.message = "term magnitudes grow geometrically"
                return EProductResult(DIVERGENT, None, diag.n_scanned, diag, cfg)
            if len(suffix) >= 32 and _single_signed([t for _, t in suffix]):
                try:
                    rho = raabe_test(mags, index_base=suffix[0][0])
                    diag.raabe_estimate = rho
                    if rho < 1 - mpf(cfg.divergence_margin):
                        return EProductResult(
                            DIVERGENT, None, diag.n_scanned, diag, cfg
                        )
                except ValueError:
                    pass

        # stage 5: Abel regularization
        value, ok, levels = abel_sum(source, cfg, dps)
        diag.abel_trace = levels
        if ok:
            if source.abel_eval is not None:
                diag.message = "Abel levels evaluated in closed form"
            return EProductResult(ABEL_SUMMABLE, value, diag.n_scanned, diag, cfg)

        if diag.overflow_index is not None:
            diag.low_confidence = True
            diag.message = (
                "partial sums exceeded the cap and no summation method settled"
            )
            return EProductResult(DIVERGENT, None, diag.n_scanned, diag, cfg)
        diag.message = "no stage reached a verdict within budget"
        return EProductResult(INCONCLUSIVE, None, diag.n_scanned, diag, cfg)


def _single_signed(tail) -> bool:
    """True when the (complex) terms all point along +1 or -1."""
    sign = 0
    for t in tail:
        re, im = mp.re(t), mp.im(t)
        if abs(im) > mpf("1e-12") * abs(re):
            return False
        s = 1 if re > 0 else (-1 if re < 0 else 0)
        if s == 0:
            return False
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


# -- exact hypergeometric series for the monomial/delta families -------------


def series_term(kind: str, j: int, n: int, m: int) -> ExactTerm:
    """Exact j-th series element for the reduced family pairings.

    kind 'a': (-4)**j / (2j)!   * Gamma(j+1/2)**2 * F(-j, n+1/2; 1/2; 2) * F(-j, m+1/2; 1/2; 2)
    kind 'b': (-4)**j / (2j+1)! * Gamma(j+3/2)**2 * F(-j, n+3/2; 3/2; 2) * F(-j, m+3/2; 3/2; 2)
    kind 'c', 'd': the same rows with +4**j instead of (-4)**j.

    Here n, m are the reduced (halved) family indices.
    """
    if kind not in ("a", "b", "c", "d"):
        raise ValueError(f"unknown series kind {kind!r}")
    half = kind in ("a", "c")
    sign = -1 if kind in ("a", "b") else 1
    if half:
        c = Fraction(1, 2)
        lead = ExactTerm(Fraction((sign * 4) ** j, math.factorial(2 * j)))
        g = gamma_half_integer(j)
    else:
        c = Fraction(3, 2)
        lead = ExactTerm(Fraction((sign * 4) ** j, math.factorial(2 * j + 1)))
        g = gamma_half_integer(j + 1)
    fn = gauss_2f1_terminating(j, c + n, c, Fraction(2))
    fm = gauss_2f1_terminating(j, c + m, c, Fraction(2))
    return lead * g * g * (fn * fm)


def pair_term_exact(F: Distribution, G: Distribution, n: int) -> SqrtTerm:
    """Exact n-th term conj(F[e_n]) G[e_n] for family pairs (real values)."""
    cf = coeff_exact(F, n)
    cg = coeff_exact(G, n)
    if cf is None or cg is None:
        raise ValueError("exact terms exist only for monomial/delta family pairs")
    return cf * cg


def pair_partial_sums_exact(F: Distribution, G: Distribution, k_max: int) -> list[SqrtTerm]:
    """Exact partial sums S_K = sum_{n<=K} of the pair series, K = 0..k_max."""
    out = []
    total = SqrtTerm.zero()
    for n in range(k_max + 1):
        total = total + pair_term_exact(F, G, n)
        out.append(total)
    return out


def series_row_source(kind: str, dps: int = DEFAULT_DPS) -> TermSource:
    """Stride-1 stream of series_term(kind, j, 0, 0), for the row limits.

    The (0, 0) rows close in elementary constants; their terms advance by
    the exact ratios (2j+1)/(2j+2) (kinds a, c) or (2j+3)/(2j+2) (b, d),
    negated for the alternating kinds, so no factorial ever materializes.
    Those ratios make each row a binomial series, t0 (1 + r)**(-1/2) (a),
    t0 (1 + r)**(-3/2) (b), and the same with 1 - r (c, d), which the source
    carries as its closed-form Abel transform: rows a and b settle on
    pi/sqrt(2) and pi/(8 sqrt(2)) at r = 1, while rows c and d diverge there.
    """
    if kind not in ("a", "b", "c", "d"):
        raise ValueError(f"unknown series kind {kind!r}")
    sign = -1 if kind in ("a", "b") else 1
    low = 1 if kind in ("a", "c") else 3
    with working(dps):
        t0 = series_term(kind, 0, 0, 0).to_mpf(dps)

    def closed(r):
        return t0 * (1 - sign * r) ** (-mpf(low) / 2)

    def row():
        t = t0
        j = 0
        while True:
            yield t
            t = sign * t * (2 * j + low) / (2 * j + 2)
            j += 1

    stream = row()

    def fetch(j: int):
        with working(dps):
            return next(stream)

    return TermSource(fetch, abel_eval=closed, dps=dps)


# -- closed-form Abel transforms through the eigenfunction kernel ------------
#
# Point-mass, monomial and analytic-wave coefficients all have the shape
#
#     coeff(d, n) = sum over branches of  lam * i**(s n) * e_n^(j)(x0),
#
# so conj(coeff(F, n)) * coeff(G, n) * r**n sums to a finite combination of
# eigenfunction_kernel evaluations at w = r * i**phase.  The conjugated left
# slot flips its phase exponent and evaluation point (the e_n have real
# coefficients).  |w| = r < 1 keeps every evaluation off the singular set.

_I_POWERS = (mpc(1), mpc(0, 1), mpc(-1), mpc(0, -1))


def _point_branches(d: Distribution, dps: int):
    """Branch list [(coeff, s, x0, j)] for the kernel route, or None.

    Coefficients and evaluation points are realized once at ``dps``; every
    Abel level reuses them.
    """
    with working(dps):
        if isinstance(d, DeltaDeriv):
            return [(mpc((-1) ** d.order), 0, mpc(0), d.order)]
        if isinstance(d, NormalizedDeltaDeriv):
            m = d.index
            return [(mpc(1) / mp.sqrt(mp.factorial(m)), 0, mpc(0), m)]
        if isinstance(d, (Monomial, NormalizedMonomial)):
            # x**p = d**p/dg**p exp(g x) at g = 0; each d/dg of the exp branch
            # e_n(-i g) below brings down -i and one x-derivative
            if isinstance(d, Monomial):
                p, norm = d.degree, 1
            else:
                p, norm = d.index, math.factorial(d.index)
            return [(mp.sqrt(2 * mp.pi / norm) * _I_POWERS[3 * p % 4], 1, mpc(0), p)]
        if isinstance(d, ExpReal):
            x0 = mpc(0, -1) * to_mpf(d.rate, dps)
            return [(mpc(mp.sqrt(2 * mp.pi)), 1, x0, 0)]
        if isinstance(d, (CosWave, SinWave)):
            x0 = mpc(to_mpf(d.freq, dps))
            half = mp.sqrt(2 * mp.pi) / 2
            if isinstance(d, CosWave):
                return [(mpc(half), 1, x0, 0), (mpc(half), 3, x0, 0)]
            return [(mpc(0, -1) * half, 1, x0, 0), (mpc(0, 1) * half, 3, x0, 0)]
        if isinstance(d, LinearCombo):
            out = []
            for scalar, part in d.parts:
                sub = _point_branches(part, dps)
                if sub is None:
                    return None
                sc = to_mpc(scalar, dps)
                out += [(sc * coeff, s, x0, j) for coeff, s, x0, j in sub]
            return out
        return None


def _merge(branches):
    """Like branches (same s, x0, j) summed, exact zeros dropped."""
    merged: dict = {}
    for coeff, s, x0, j in branches:
        key = (s, x0, j)
        merged[key] = merged.get(key, 0) + coeff
    return [(coeff, s, x0, j) for (s, x0, j), coeff in merged.items() if coeff != 0]


def _ladder_branches(branches, letter: str):
    """Branch list of (letter applied to the sequence of a branch list).

    Transfers the ladder action from the index side to the argument side:
        sqrt(n+1) e_{n+1}^(j)(x) = (x e_n^(j) + j e_n^(j-1) - e_n^(j+1)) / sqrt(2)
        sqrt(n)   e_{n-1}^(j)(x) = (x e_n^(j) + j e_n^(j-1) + e_n^(j+1)) / sqrt(2)
    so the class of point-branch sources is closed under c, cdag, x, d.
    Every letter keeps s and x0, so after merging a word of L letters on
    one branch leaves at most j + L + 1 branches.  Runs at the caller's
    working precision.
    """
    root2 = mp.sqrt(2)
    if letter in ("x", "d"):
        sign = 1 if letter == "x" else -1  # x = (c + cdag)/sqrt2, d = (c - cdag)/sqrt2
        out = [(c / root2, s, x0, j) for c, s, x0, j in _ladder_branches(branches, "c")]
        out += [
            (sign * c / root2, s, x0, j)
            for c, s, x0, j in _ladder_branches(branches, "cdag")
        ]
        return _merge(out)
    if letter not in ("c", "cdag"):
        raise ValueError(f"unknown ladder letter {letter!r}")
    out = []
    for coeff, s, x0, j in branches:
        # (c g)_n picks up the branch's index phase once: i**(s(n+1)) = i**s i**(sn)
        phase = (s if letter == "c" else (4 - s)) % 4
        tip = -1 if letter == "c" else 1
        base = coeff * _I_POWERS[phase] / root2
        out.append((base * x0, s, x0, j))
        if j >= 1:
            out.append((base * j, s, x0, j - 1))
        out.append((tip * base, s, x0, j + 1))
    return _merge(out)


def _word_branches(terms, branches, dps: int):
    """Branches of (sum_t scalar_t * word_t) applied to a point-branch list,
    like branches merged across the words."""
    with working(dps):
        out = []
        for scalar, word in terms:
            cur = branches
            for letter in reversed(word):  # rightmost letter acts first
                cur = _ladder_branches(cur, letter)
            sc = to_mpc(scalar, dps)
            out += [(sc * coeff, s, x0, j) for coeff, s, x0, j in cur]
        return _merge(out)


def _kernel_eval(branches_f, branches_g, dps: int):
    """r -> sum_n conj(f_n) g_n r**n over two point-branch lists."""
    with working(dps):  # conj rounds to the ambient precision
        left = [
            (mp.conj(c), (4 - s) % 4, mp.conj(x0), j) for c, s, x0, j in branches_f
        ]

    def evaluate(r):
        total = mpc(0)
        for c_f, s_f, x_f, j_f in left:
            for c_g, s_g, x_g, j_g in branches_g:
                w = mpc(r) * _I_POWERS[(s_f + s_g) % 4]
                kval = eigenfunction_kernel(w, x_f, x_g, j_f, j_g, mp.dps)
                total += c_f * c_g * kval
        return total

    return evaluate


def _kernel_pair_eval(F: Distribution, G: Distribution, dps: int):
    """r -> sum_n conj(coeff(F,n)) coeff(G,n) r**n in closed form, or None."""
    branches_f = _point_branches(F, dps)
    branches_g = _point_branches(G, dps)
    if branches_f is None or branches_g is None:
        return None
    return _kernel_eval(branches_f, branches_g, dps)


def _generic_source(F, G, dps: int) -> TermSource:
    """Term source of a pairing whose parities are not opposite
    (``classify_and_sum`` settles those first)."""
    pf, pg = parity(F), parity(G)
    bf, bg = support_bound(F), support_bound(G)
    bounds = [x for x in (bf, bg) if x is not None]
    support = min(bounds) if bounds else None
    stride, offset = (2, pf) if (pf is not None and pf == pg) else (1, 0)
    seq_f = coeff_sequence(F, dps)
    seq_g = coeff_sequence(G, dps)

    def fetch(j: int):
        n = offset + stride * j
        with working(dps):
            return mp.conj(seq_f(n)) * seq_g(n)

    return TermSource(
        fetch,
        stride=stride,
        offset=offset,
        support=support,
        abel_eval=None if support is not None else _kernel_pair_eval(F, G, dps),
    )


def classify_and_sum(
    F: Distribution,
    G: Distribution,
    cfg: Optional[SummationConfig] = None,
    dps: int = DEFAULT_DPS,
) -> EProductResult:
    """Classify and (when meaningful) evaluate the pairing of F and G."""
    cfg = cfg or SummationConfig()
    check_dps(dps)
    pf, pg = parity(F), parity(G)
    if pf is not None and pg is not None and pf != pg:
        diag = Diagnostics(message="left and right parities are opposite")
        return EProductResult(ZERO_BY_PARITY, mpc(0), 0, diag, cfg)
    return classify_series(_generic_source(F, G, dps), cfg, dps)


def partial_sums(F: Distribution, G: Distribution, k_max: int, dps: int = DEFAULT_DPS):
    """Numeric partial sums S_K, K = 0..k_max, of the pairing series."""
    seq_f = coeff_sequence(F, dps)
    seq_g = coeff_sequence(G, dps)
    with working(dps):
        out = []
        total = mpc(0)
        for n in range(k_max + 1):
            total += mp.conj(seq_f(n)) * seq_g(n)
            out.append(total)
        return out


def phi_psi_product(n: int, m: int, cfg=None, dps: int = DEFAULT_DPS) -> EProductResult:
    """Pairing of x**n/sqrt(n!) with (-1)**m delta^(m)/sqrt(m!)."""
    return classify_and_sum(NormalizedMonomial(n), NormalizedDeltaDeriv(m), cfg, dps)


def phi_phi_product(n: int, m: int, cfg=None, dps: int = DEFAULT_DPS) -> EProductResult:
    return classify_and_sum(NormalizedMonomial(n), NormalizedMonomial(m), cfg, dps)


def psi_psi_product(n: int, m: int, cfg=None, dps: int = DEFAULT_DPS) -> EProductResult:
    return classify_and_sum(NormalizedDeltaDeriv(n), NormalizedDeltaDeriv(m), cfg, dps)
