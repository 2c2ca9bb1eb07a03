"""The benchmark's workloads: seeded inputs, eprod calls and their checks.

A workload is a list of rounds; a round is a list of operations.  Every
operation calls eprod's public API once and is checked against
``reference`` (computed apart from eprod) or against a property of the
method: an exact zero for opposite parity, a Divergent status for the
divergent same-family and delta-delta pairs, exact 2 pi proportionality.

Rounds have a fixed make-up, so that their cost does not depend on the
seed; the seed draws the parts of each input that barely move the cost
(free cells, rates, scalars, signs, sides, order).  The first operation of
round 0 is timed on its own, in fresh processes, as the cold first result.

Inputs are made and parsed once, at set-up, for ``MAX_ROUNDS`` rounds; a run
that gets further starts over at round 0 with warm caches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from mpmath import mp, mpf

import reference as ref

__all__ = ["Op", "WORKLOADS", "build", "MAX_ROUNDS"]

MAX_ROUNDS = 12

# Rates and frequencies p/q with q <= 8 and 1/4 <= |p/q| <= 1: at 30 digits,
# a rate of 2 makes the closed-form cross-check raise (see CHANGES.md).
# point_pairings draws each rate once per (kind, digits) and run, since a
# second use finds its coefficient stream cached and costs a tenth as much.
RATES = tuple(
    sorted(
        {sign * Fraction(p, q) for q in range(1, 9) for p in range(1, q + 1)
         if Fraction(1, 4) <= Fraction(p, q) for sign in (1, -1)}
    )
)
L2_SHIFTS = tuple(Fraction(n, 4) for n in range(-4, 5))
L2_COEFFS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(3, 4))


@dataclass
class Op:
    """One call into eprod and the check of its result.

    ``check`` returns None when the result is right, else a message.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _rat(q: Fraction) -> str:
    return str(Fraction(q))


def _lazy(compute):
    """compute() on first use, then the same value: references are made at
    check time, outside set-up and outside the timed calls."""
    memo = []

    def get():
        if not memo:
            memo.append(compute())
        return memo[0]

    return get


def _mpf(q) -> mpf:
    q = Fraction(q)
    return mpf(q.numerator) / q.denominator


def _close(value, target, tol) -> Optional[str]:
    """None when |value - target| <= tol * max(1, |target|)."""
    with mp.workdps(60):
        err = abs(value - target)
        gate = mpf(tol) * max(mpf(1), abs(target))
        if err <= gate:
            return None
        return f"error {mp.nstr(err, 5)} > {mp.nstr(gate, 5)} (target {mp.nstr(target, 20)})"


def _expect_value(res, target, tol, statuses=None) -> Optional[str]:
    if not res.has_value:
        return f"status {res.status}, expected a value"
    if statuses is not None and res.status not in statuses:
        return f"status {res.status}, expected one of {sorted(statuses)}"
    return _close(res.value, target, tol)


def _expect_zero_by_parity(ep, res) -> Optional[str]:
    if res.status != ep.ZERO_BY_PARITY or res.value != 0:
        return f"status {res.status} value {res.value}, expected an exact ZeroByParity 0"
    return None


def _expect_divergent(ep, res) -> Optional[str]:
    if res.status != ep.DIVERGENT or res.value is not None:
        return f"status {res.status}, expected Divergent without a value"
    return None


# -- ladder_families ---------------------------------------------------------------

LADDER_DPS = 30
LADDER_TOL = 1e-10
LADDER_K = 200


def _ladder(ep, rng: random.Random):
    """The paper's grid: phi x psi cells, same-family statuses, the exact 2 pi
    identity and the two row limits.  Every round repeats the same cells."""
    cfg = ep.SummationConfig(max_terms=2000, tolerance=LADDER_TOL)
    parse = ep.parse_distribution

    def index(text):
        return parse(text).index

    def phi_psi(n, m):
        fn, fm = index(f"phi({n})"), index(f"psi({m})")
        target = ref.kronecker(n, m)

        def check(res):
            if (n + m) % 2:
                return _expect_zero_by_parity(ep, res)
            return _expect_value(res, target, LADDER_TOL)

        return Op(f"phi_psi_product({n},{m})", lambda: ep.phi_psi_product(fn, fm, cfg, LADDER_DPS), check)

    def same_family(name, n, m):
        product = ep.phi_phi_product if name == "phi" else ep.psi_psi_product
        fn, fm = index(f"{name}({n})"), index(f"{name}({m})")

        def check(res):
            if (n + m) % 2:
                return _expect_zero_by_parity(ep, res)
            return _expect_divergent(ep, res)

        return Op(f"{name}_{name}_product({n},{m})", lambda: product(fn, fm, cfg, LADDER_DPS), check)

    def exact_identity(n, m):
        pairs = {
            family: (parse(f"{family}({n})"), parse(f"{family}({m})")) for family in ("phi", "psi")
        }
        a, b = n // 2, m // 2
        sign = (-1) ** (a + b)
        expected = _lazy(lambda: {f: ref.family_sums(f, n, m, LADDER_K) for f in pairs})

        def call():
            return {
                family: ep.pair_partial_sums_exact(f, g, LADDER_K) for family, (f, g) in pairs.items()
            }

        def check(sums):
            got = {
                family: [ref.sqrt_key(t.coeff, t.radicand, t.pi_quarters) for t in terms]
                for family, terms in sums.items()
            }
            for family in pairs:
                if got[family] != expected()[family]:
                    return f"S_K({family}-{family}) differs from the reference"
            for kp, kq in zip(got["phi"], got["psi"]):
                want = (0, 0, 0) if kq[0] == 0 else (kq[0] * sign, 4 * kq[1], kq[2] + 4)
                if kp != want:
                    return "S_K(phi-phi) != 2 pi (-1)^(a+b) S_K(psi-psi)"
            return None

        return Op(f"pair_partial_sums_exact({n},{m},K={LADDER_K})", call, check)

    def row(kind):
        target = _lazy(lambda: ref.row_limit(kind, LADDER_DPS))

        def call():
            return ep.abel_sum(ep.series_row_source(kind, LADDER_DPS), cfg, LADDER_DPS)

        def check(result):
            value, ok, _levels = result
            if not ok:
                return "Abel levels did not settle"
            return _close(value, target(), LADDER_TOL)

        return Op(f"abel_sum(series_row_source({kind!r}))", call, check)

    odd_n = rng.randrange(6)
    odd_m = rng.choice([m for m in range(6) if (m + odd_n) % 2])
    ident = rng.choice([(0, 0), (0, 2), (1, 1), (1, 3), (2, 2), (3, 3)])
    rest = [
        phi_psi(0, 0),
        phi_psi(0, 2),
        phi_psi(1, 3),
        phi_psi(odd_n, odd_m),
        same_family("phi", rng.randrange(4), rng.randrange(4)),
        same_family("psi", rng.randrange(4), rng.randrange(4)),
        exact_identity(*(ident if rng.random() < 0.5 else ident[::-1])),
        row("a"),
        row("b"),
    ]
    rng.shuffle(rest)
    ops = [phi_psi(1, 1)] + rest
    return [ops] * MAX_ROUNDS


# -- point_pairings ----------------------------------------------------------------

POINT_DPS = (30, 60, 100)
L2_DPS = 60
# (kind, delta order, digits); the waves get an order of their own parity,
# so that the pairing is not zero by parity
SINGLE_SLOTS = (("exp", 1, 30), ("cos", 2, 60), ("sin", 1, 100))
# exp(g x) plus a second function, against delta^(k)
COMBO_SLOTS = (("cos", 0, 30), ("sin", 1, 60), ("exp", 0, 100))
# one divergent pair and one that vanishes by parity
DELTA_PAIRS = ((1, 3), (0, 1))


def _scalar(rng: random.Random):
    """(re, im, text prefix) for a combination scalar."""
    form = rng.randrange(3)
    if form == 0:
        q = rng.choice((Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 3)))
        return q, Fraction(0), f"{_rat(q)}*"
    if form == 1:
        q = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2)))
        return Fraction(0), q, ("i*" if q == 1 else f"{_rat(q)}i*")
    re, im = rng.choice(((1, 2), (2, -1), (1, 1)))
    text = f"({re}{'+' if im > 0 else '-'}{abs(im)}i)*"
    return Fraction(re), Fraction(im), text


def _combo_text(parts):
    """Expression text of sum scalar * f, with the first sign folded in."""
    pieces = []
    for i, (_re, _im, prefix, kind, rate) in enumerate(parts):
        term = f"{prefix}{kind}({_rat(rate)})"
        pieces.append(term if i == 0 else f"+ {term}")
    return " ".join(pieces)


def _points(ep, rng: random.Random):
    """Fresh point pairings every round, at 30, 60 and 100 digits."""
    parse = ep.parse_distribution
    cfg = ep.SummationConfig()
    tol = cfg.tolerance

    def delta_text(k):
        return "delta" if k == 0 else f"delta^({k})"

    def function_pair(parts, k, dps):
        """parts: [(re, im, prefix, kind, rate)] -> <F, delta^(k)> either way round."""
        f_text = _combo_text(parts)
        function_left = rng.random() < 0.5
        fd, dd = parse(f_text), parse(delta_text(k))
        left, right = (fd, dd) if function_left else (dd, fd)
        exact = _lazy(
            lambda: ref.point_pairing([(p[0], p[1], p[3], p[4]) for p in parts], k, function_left)
        )
        label = (
            f"<{f_text}, {delta_text(k)}>" if function_left else f"<{delta_text(k)}, {f_text}>"
        ) + f" @{dps}"

        def check(res):
            re, im = exact()
            with mp.workdps(60):
                target = mp.mpc(_mpf(re), _mpf(im))
            return _expect_value(res, target, tol)

        return Op(label, lambda: ep.classify_and_sum(left, right, cfg, dps), check)

    pools = {}

    def fresh_rate(kind, dps):
        pool = pools.get((kind, dps))
        if not pool:
            pool = pools[(kind, dps)] = list(RATES)
            rng.shuffle(pool)
        return pool.pop()

    def single(kind, k, dps):
        rate = fresh_rate(kind, dps)
        return function_pair([(Fraction(1), Fraction(0), "", kind, rate)], k, dps)

    def combination(second, k, dps):
        parts = []
        for kind in ("exp", second):
            re, im, prefix = _scalar(rng)
            parts.append((re, im, prefix, kind, fresh_rate(kind, dps)))
        return function_pair(parts, k, dps)

    def delta_delta(k, l, dps):
        left, right = parse(delta_text(k)), parse(delta_text(l))

        def check(res):
            if (k + l) % 2:
                return _expect_zero_by_parity(ep, res)
            return _expect_divergent(ep, res)

        return Op(
            f"<{delta_text(k)}, {delta_text(l)}> @{dps}",
            lambda: ep.classify_and_sum(left, right, cfg, dps),
            check,
        )

    def l2_pair():
        x0 = rng.choice(L2_SHIFTS)
        size = rng.randrange(4, 7)
        coeffs = [rng.choice(L2_COEFFS) if rng.random() < 0.8 else Fraction(0) for _ in range(size)]
        coeffs[-1] = rng.choice(L2_COEFFS)

        def gaussian(x, x0=x0):
            return mp.exp(-((x - _mpf(x0)) ** 2) / 2)

        fn_side = ep.L2Sample(fn=gaussian)
        vec_side = ep.L2Sample(coeffs=tuple(coeffs))
        fn_left = rng.random() < 0.5
        left, right = (fn_side, vec_side) if fn_left else (vec_side, fn_side)
        target = _lazy(lambda: ref.gaussian_pairing(x0, coeffs, L2_DPS))
        label = f"<L2Sample(fn=exp(-(x-({_rat(x0)}))^2/2)), L2Sample(coeffs={len(coeffs)})> @{L2_DPS}"

        def check(res):
            return _expect_value(res, target(), tol, {ep.ABSOLUTELY_CONVERGENT})

        return Op(label, lambda: ep.classify_and_sum(left, right, cfg, L2_DPS), check)

    # The kind, the delta order and the precision drive the cost, and so does
    # the first use of each delta^(k) stream; rates, scalars and sides barely
    # do.  So every round has the same slots, in the same order, and the seed
    # draws the rest afresh for each round.
    rounds = []
    for _ in range(MAX_ROUNDS):
        ops = [l2_pair()]
        ops += [single(kind, k, dps) for kind, k, dps in SINGLE_SLOTS]
        ops += [combination(second, k, dps) for second, k, dps in COMBO_SLOTS]
        ops += [delta_delta(*rng.choice((pair, pair[::-1])), 60) for pair in DELTA_PAIRS]
        rounds.append(ops)
    return rounds


# -- adjoint_words -----------------------------------------------------------------

ADJOINT_DPS = 60
# One word per length, with its delta order k and |g|.  Which letters a word
# holds, and where, moves its cost by a third or more (x against D alone
# does), so the words are fixed and every round repeats them in the same
# order.  The seed draws the sign of g, once per run: the reflection
# x -> -x maps the pairing for -g onto the one for g term by term, up to one
# overall sign, so the cost stays; and the same streams are reused by every
# round after the first.
ADJOINT_SLOTS = (
    (("c",), 0, Fraction(1, 2)),
    (("d", "c"), 1, Fraction(2, 3)),
    (("c", "x", "cdag"), 0, Fraction(3, 4)),
    (("cdag", "c", "x", "c"), 1, Fraction(1, 2)),
    (("x", "c", "cdag", "c", "cdag"), 0, Fraction(2, 3)),
)
_LETTER_TEXT = {"c": "c", "cdag": "cdag", "x": "x", "d": "D"}


def _adjoint(ep, rng: random.Random):
    """<X‡ delta^(k), exp(g x)> = <delta^(k), X exp(g x)> for one word of
    each length 1..5 per round."""
    cfg = ep.SummationConfig()
    tol = cfg.tolerance

    def triple(letters, k, size):
        g = size * rng.choice((1, -1))
        op_text = " ".join(_LETTER_TEXT[x] for x in letters)
        big_text = "delta" if k == 0 else f"delta^({k})"
        small_text = f"exp({_rat(g)})"
        op = ep.parse_operator(op_text)
        big, small = ep.parse_distribution(big_text), ep.parse_distribution(small_text)
        target = _lazy(lambda: ref.adjoint_value(letters, k, g, ADJOINT_DPS))

        def check(rep):
            for side, res in (("left", rep.left), ("right", rep.right)):
                err = _expect_value(res, target(), tol)
                if err is not None:
                    return f"{side}: {err}"
            return None

        return Op(
            f"adjoint_check({op_text}; {big_text}, {small_text})",
            lambda: ep.adjoint_check(op, big, small, cfg, ADJOINT_DPS),
            check,
        )

    return [[triple(*slot) for slot in ADJOINT_SLOTS]] * MAX_ROUNDS


WORKLOADS = {
    "ladder_families": _ladder,
    "point_pairings": _points,
    "adjoint_words": _adjoint,
}


def build(name: str, seed: int):
    """All rounds of a workload, inputs parsed; eprod must be importable."""
    import eprod

    return WORKLOADS[name](eprod, random.Random(f"{name}:{seed}"))
