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

Every pairing has one term source, read off the two coefficient streams.
A finite support gives the exact truncated sum.  Otherwise, when both
streams come from point-branch lists (point masses, monomials, exponentials,
waves and their combinations), stage 5 takes its Abel levels from the
eigenfunction-kernel closed form over the same two lists
(``branches.kernel_eval``), cross-checked once against the direct sum of
the streams; any other pair takes every Abel level from that same direct
sum, which stops on a bound of its dropped tail.

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

from .branches import kernel_eval
from .distributions import (
    Distribution,
    NormalizedDeltaDeriv,
    NormalizedMonomial,
    coeff_exact,
    coeff_sequence,
)
from .exact import ExactTerm, SqrtTerm
from .extrapolate import richardson_dyadic, wynn_epsilon
from .precision import DEFAULT_DPS, check_dps, working
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
    ``low_confidence`` carries over to the result's diagnostics: the terms
    come from a projected callable that had not settled.
    """

    def __init__(
        self,
        fetch: Callable[[int], mpc],
        *,
        stride: int = 1,
        offset: int = 0,
        support: Optional[int] = None,
        abel_eval: Optional[Callable] = None,
        dps: Optional[int] = None,
        low_confidence: bool = False,
    ):
        self._fetch = fetch
        self.stride = stride
        self.offset = offset
        self.support = support
        self.abel_eval = abel_eval
        self.dps = dps
        self.low_confidence = low_confidence
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

    Each level is the direct sum of the weighted terms (`_direct_level`),
    unless the source has a closed-form ``abel_eval``: that one is
    cross-checked against the same direct sum once, at the shallowest level,
    where the direct sum is still well conditioned.
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
                value, settled, _ = _direct_level(
                    source, r, tol * scale / 8, _MAX_LEVEL_TERMS
                )
                if not settled:
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


# term budgets of one direct Abel-level sum: the term route's backstop, and
# enough terms to resolve the shallowest level for the cross-check
_MAX_LEVEL_TERMS = 2_000_000
_CROSS_CHECK_TERMS = 6000


def _direct_level(source: TermSource, r, target, budget: int):
    """sum_j t_j r**basis_index(j) over at most ``budget`` terms, as
    (value, settled, noise).

    The sum settles at the end of a finite support, or once the dropped tail
    is bounded below a quarter of the larger of ``target`` and ``noise``.
    ``noise`` is the largest weighted term (at least 1) times
    10**-(working digits - 12): cancellation through the term hump already
    cost that much, so no direct sum beats it.  The terms are taken in
    groups of 8, each summed as a dot product with its weights, and the
    running mass (the sum of |weighted term|) is kept after each group.  The
    tail is bounded from the last two blocks of about a third of the groups
    each: past a hump the block masses of a point pairing shrink at least
    geometrically, by no less than their last ratio and than step**len (the
    weights alone), so the tail after the last block is at most
    last * q / (1 - q).  Blocks that long span the beats of oscillating
    coefficients, and a ratio taken over them keeps the exp(g sqrt(2n))
    growth of exponential ones.  A sum past 1e200 is given up unsettled.
    """
    support = source.stored_support()
    n = budget if support is None else min(budget, support)
    step = r**source.stride
    powers = [step**i for i in range(8)]  # the weights inside a group
    step8 = step**8
    floor = mpf(10) ** (-(mp.dps - 12))
    p = r**source.offset  # the weight of the group's first term
    total = 0
    peak = mpf(1)
    run = mpf(0)
    mass = [run]  # mass[m] = the running mass after m groups
    term = source.term
    for m, j0 in enumerate(range(0, n, 8), 1):
        group = [term(j) for j in range(j0, min(j0 + 8, n))]
        mags = [abs(t) for t in group]
        total += p * mp.fdot(group, powers)
        a = p * mp.fdot(mags, powers)
        run += a
        if a > peak:  # the group's mass bounds its largest term
            peak = max(peak, *(p * w * t for t, w in zip(mags, powers)))
        p *= step8
        mass.append(run)
        # the bound costs more than a group, so past 64 groups it is
        # checked on every 64th of the groups summed so far
        if m >= 5 and (m < 64 or m % (m >> 6) == 0):
            width = m // 3  # in groups
            last = run - mass[m - width]
            before = mass[m - width] - mass[m - 2 * width]
            if last <= before:
                q = max(last / before if before else 0, step8**width)
                if last * q / (1 - q) <= max(target, floor * peak) / 4:
                    return total, True, floor * peak
        if m % 128 == 0 and abs(total) > mpf(10) ** 200:
            return total, False, floor * peak
    return total, n == support, floor * peak


def _cross_check_level(source: TermSource, r, closed_value):
    """Guard that a closed-form evaluator and the raw terms describe the
    same series.  Compares at modest accuracy relative to the level and to
    the direct sum's cancellation noise; a direct sum that does not settle
    within its budget checks nothing."""
    rel = mpf("1e-10") * max(mpf(1), abs(closed_value))
    total, settled, noise = _direct_level(source, r, rel, _CROSS_CHECK_TERMS)
    if not settled:
        return
    gate = max(rel, mpf("1e-10") * abs(total), noise)
    if abs(closed_value - total) > gate:
        raise RuntimeError(
            "closed-form Abel evaluator disagrees with direct summation "
            f"at r = {r}: {closed_value} vs {total}"
        )


def classify_series(source: TermSource, cfg: SummationConfig, dps: int) -> EProductResult:
    """Run the classification pipeline over one term stream."""
    diag = Diagnostics(low_confidence=source.low_confidence)
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
        n_scanned = source.basis_index(j_limit - 1) + 1 if j_limit else 0
        diag.n_nonzero = len(nonzero)
        scale = peak
        tol_abs = tol * scale

        if finite:
            value = sums[-1] if sums else mpc(0)
            diag.message = "finite support: exact truncated sum"
            if source.low_confidence:
                diag.message += "; a projected callable did not settle"
            return EProductResult(
                ABSOLUTELY_CONVERGENT, value, n_scanned, diag
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
                        ABSOLUTELY_CONVERGENT, sums[-1], n_scanned, diag
                    )

        # stage 3: partial sums already stabilized
        if len(sums) >= 8:
            w = min(32, max(4, len(sums) // 4))
            dev = max(abs(sums[-1 - i] - sums[-1]) for i in range(1, w + 1))
            diag.stabilization_dev = dev
            if dev <= tol_abs:
                return EProductResult(CONVERGENT, sums[-1], n_scanned, diag)

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
                return EProductResult(DIVERGENT, None, n_scanned, diag)
            if len(suffix) >= 32 and _single_signed([t for _, t in suffix]):
                try:
                    rho = raabe_test(mags, index_base=suffix[0][0])
                    diag.raabe_estimate = rho
                    if rho < 1 - mpf(cfg.divergence_margin):
                        return EProductResult(
                            DIVERGENT, None, n_scanned, diag
                        )
                except ValueError:
                    pass

        # stage 5: Abel regularization
        value, ok, levels = abel_sum(source, cfg, dps)
        diag.abel_trace = levels
        if ok:
            if source.abel_eval is not None:
                diag.message = "Abel levels evaluated in closed form"
            return EProductResult(ABEL_SUMMABLE, value, n_scanned, diag)

        # Divergent needs an Abel level past the cap, not only the scan's sums
        if diag.overflow_index is not None and any(abs(v.value) > cap for v in levels):
            diag.low_confidence = True
            diag.message = (
                "partial sums exceeded the cap and no summation method settled"
            )
            return EProductResult(DIVERGENT, None, n_scanned, diag)
        diag.message = "no stage reached a verdict within budget"
        return EProductResult(INCONCLUSIVE, None, n_scanned, diag)


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


def classify_and_sum(
    F: Distribution,
    G: Distribution,
    cfg: Optional[SummationConfig] = None,
    dps: int = DEFAULT_DPS,
) -> EProductResult:
    """Classify and (when meaningful) evaluate the pairing of F and G."""
    cfg = cfg or SummationConfig()
    check_dps(dps)
    seq_f = coeff_sequence(F, dps)
    seq_g = coeff_sequence(G, dps)
    pf, pg = seq_f.parity, seq_g.parity
    if pf is not None and pg is not None and pf != pg:
        diag = Diagnostics(message="left and right parities are opposite")
        return EProductResult(ZERO_BY_PARITY, mpc(0), 0, diag)
    stride, offset = (2, pf) if pf is not None and pf == pg else (1, 0)
    support = min((s.support for s in (seq_f, seq_g) if s.support is not None), default=None)
    abel_eval = None
    if support is None and seq_f.branches is not None and seq_g.branches is not None:
        abel_eval = kernel_eval(seq_f.branches, seq_g.branches, dps)

    def fetch(j: int):
        n = offset + stride * j
        with working(dps):
            return mp.conj(seq_f(n)) * seq_g(n)

    source = TermSource(
        fetch,
        stride=stride,
        offset=offset,
        support=support,
        abel_eval=abel_eval,
        low_confidence=seq_f.low_confidence or seq_g.low_confidence,
    )
    return classify_series(source, cfg, dps)


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
