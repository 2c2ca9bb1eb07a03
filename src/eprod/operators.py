"""Ladder-operator words and their adjoints with respect to the pairing.

An operator expression is a finite sum  sum_t  scalar_t * word_t,  where a
word is a tuple of letters acting on basis-coefficient sequences:

    c      (c s)_n  = sqrt(n+1) s_{n+1}         (lowering)
    cdag   (c+ s)_n = sqrt(n)   s_{n-1}         (raising)
    x      (c + cdag)/sqrt(2)                   (position)
    d      (c - cdag)/sqrt(2)                   (derivative)

Words compose left to right, i.e. ("x", "d") means x applied after d.
``apply_operator`` applies these four lines one letter at a time, the
rightmost first, each letter a memoised sequence over the one before; on
point branches the letters act on the argument side instead
(``branches.word_branches``).  The pairing adjoint (written ``ddagger``)
satisfies

    <X‡ F, G> = <F, X G>

for sequences F, G paired by sum_n conj(F_n) G_n.  Since every letter has a
real matrix in this basis, the adjoint is the transpose with conjugated
scalars: words reverse, c and cdag swap, x is self-adjoint, d flips sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from mpmath import mp, mpc, mpf

from .branches import branch_stream, kernel_eval, sqrt_table, word_branches
from .distributions import CoeffSequence, Distribution, coeff_sequence
from .eproduct import EProductResult, SummationConfig, TermSource, classify_series
from .precision import DEFAULT_DPS, to_mpc, working

__all__ = [
    "OperatorExpr",
    "apply_operator",
    "adjoint_defect",
    "adjoint_check",
    "AdjointCheckReport",
    "InconclusivePairingError",
    "LETTERS",
    "MAX_WORD_LENGTH",
]

LETTERS = ("c", "cdag", "x", "d")

_SWAP = {"c": "cdag", "cdag": "c", "x": "x", "d": "d"}
_FLIP_SIGN = {"c": 1, "cdag": 1, "x": 1, "d": -1}

# longest word an operator expression may hold, so that input bounds the
# cost of applying it
MAX_WORD_LENGTH = 32


def _conj_scalar(s):
    if isinstance(s, (int, Fraction, mpf, float)):
        return s
    if hasattr(s, "conjugate"):  # complex, mpc, ComplexRational
        return s.conjugate()
    return mp.conj(s)


@dataclass(frozen=True)
class OperatorExpr:
    """Finite sum of scalar-weighted letter words."""

    terms: tuple = ()

    def __post_init__(self):
        for scalar, word in self.terms:
            if len(word) > MAX_WORD_LENGTH:
                raise ValueError(
                    f"word of {len(word)} letters exceeds the cap of "
                    f"{MAX_WORD_LENGTH}"
                )
            for letter in word:
                if letter not in LETTERS:
                    raise ValueError(f"unknown letter {letter!r}")
        object.__setattr__(
            self, "terms", tuple((s, tuple(w)) for s, w in self.terms)
        )

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls) -> "OperatorExpr":
        return cls(((1, ()),))

    @classmethod
    def letter(cls, name: str) -> "OperatorExpr":
        if name not in LETTERS:
            raise ValueError(f"unknown letter {name!r}")
        return cls(((1, (name,)),))

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return OperatorExpr(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self + (-1) * other

    def __neg__(self) -> "OperatorExpr":
        return (-1) * self

    def __mul__(self, scalar) -> "OperatorExpr":
        return OperatorExpr(tuple((scalar * s, w) for s, w in self.terms))

    def __rmul__(self, scalar) -> "OperatorExpr":
        return OperatorExpr(tuple((scalar * s, w) for s, w in self.terms))

    def __matmul__(self, other: "OperatorExpr") -> "OperatorExpr":
        """Composition: (A @ B) acts as A after B."""
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        terms = []
        for s1, w1 in self.terms:
            for s2, w2 in other.terms:
                terms.append((s1 * s2, w1 + w2))
        return OperatorExpr(tuple(terms))

    def ddagger(self) -> "OperatorExpr":
        """Adjoint with respect to the pairing (an involution)."""
        out = []
        for s, w in self.terms:
            sign = 1
            for letter in w:
                sign *= _FLIP_SIGN[letter]
            new_word = tuple(_SWAP[letter] for letter in reversed(w))
            out.append((sign * _conj_scalar(s), new_word))
        return OperatorExpr(tuple(out))


def _letters(
    expr: OperatorExpr, seq: Callable[[int], object], dps: int, magnitude: bool = False
) -> Callable[[int], object]:
    """n -> (X s)_n, memoised, each word's letters applied right to left.

    Every letter is a memoised sequence over the one it acts on, built from
    the four lines of the module docstring, with the 1/sqrt(2) of x and d
    folded into the word's scalar.  A word of L letters read through index
    N reads its k-th intermediate stream through N + L - k, so it costs
    O(L (N + L)) products and reads each entry of ``seq`` once.  With
    ``magnitude`` the same letters act on |s| with |scalar|, x and d both
    adding their two parts: at each index, the mass of the entries whose
    rounding the sum carries.
    """
    roots: list = []  # roots[m] = sqrt(m), shared through sqrt_table
    read: dict = {}

    def source(m: int):
        if m not in read:
            read[m] = abs(seq(m)) if magnitude else seq(m)
        return read[m]

    def letter_stream(letter: str, prev: Callable) -> Callable:
        memo: dict = {}
        flip = letter == "d" and not magnitude

        def value(m: int):
            if m not in memo:
                total = roots[m + 1] * prev(m + 1) if letter != "cdag" else mpf(0)
                if letter != "c" and m:  # cdag vanishes at index 0
                    down = roots[m] * prev(m - 1)
                    total = total - down if flip else total + down
                memo[m] = total
            return memo[m]

        return value

    words = []  # (scalar * 2**(-h/2), the word's last stream)
    with working(dps):
        for scalar, word in expr.terms:
            h = sum(1 for letter in word if letter in ("x", "d"))
            scale = to_mpc(scalar, dps) * mpf(2) ** (-mpf(h) / 2)
            stream = source
            for letter in reversed(word):
                stream = letter_stream(letter, stream)
            words.append((abs(scale) if magnitude else scale, stream))
    reach = max((len(word) for _, word in expr.terms), default=0)
    totals: dict = {}

    def out(n: int):
        nonlocal roots
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        if n not in totals:
            with working(dps):
                if len(roots) <= n + reach:
                    roots = sqrt_table(n + reach)
                total = mpf(0)
                for scale, stream in words:
                    total += scale * stream(n)
                totals[n] = total
        return totals[n]

    return out


def apply_operator(
    expr: OperatorExpr, seq: Callable[[int], object], dps: int = DEFAULT_DPS
) -> Callable[[int], object]:
    """The sequence n -> (X s)_n, memoized; ``seq`` maps index to coefficient.

    The letters act one at a time on memoised intermediate streams, so a
    word of L letters read through index N costs O(L (N + L)) products and
    reads each entry of ``seq`` once.
    """
    return _letters(expr, seq, dps)


class InconclusivePairingError(RuntimeError):
    """A side of the adjoint identity did not classify to a usable value."""


@dataclass
class AdjointCheckReport:
    """Both sides of <X‡ F, G> = <F, X G>, classified independently."""

    left: EProductResult
    right: EProductResult
    difference: mpf
    max_partial_dev: mpf


def _word_stream(expr: OperatorExpr, seq: CoeffSequence, dps: int, probe: int):
    """(X s as a sequence, the branch list of X s or None).

    When every branch point of s is 0 (delta^(k), psi, x^p, phi and their
    combinations) the stream comes from the word's branch list, which
    computes only the entries that can be nonzero.  It is checked against
    ``apply_operator`` over the first ``probe`` indices, so the letters'
    sequence-side definition still guards their argument-side transfer; the
    two may differ by 10**(10 - dps) of the larger of the letters' mass at
    that index (the same letters on |s|, see ``_letters``) and the window's
    largest entry.  Any other s streams through ``apply_operator``.
    """
    if seq.branches is None:
        return apply_operator(expr, seq, dps), None
    branches = word_branches(expr.terms, seq.branches, dps)
    if any(x0 != 0 for _, _, x0, _ in seq.branches):
        return apply_operator(expr, seq, dps), branches
    stream = CoeffSequence(*branch_stream(branches, dps), None, dps, branches=branches)
    direct = _letters(expr, seq, dps)
    mass = _letters(expr, seq, dps, magnitude=True)
    with working(dps):
        # apply_operator's rounding grows with the mass of the entries its
        # letters combine (x^32 on delta cancels to exactly 0 from entries
        # near 1e31); the branch stream's with the entries its recurrences
        # carry, bounded by the largest entry of the window
        rows = [(n, stream(n), direct(n), mass(n)) for n in range(probe)]
        scale = max((abs(direct) for _, _, direct, _ in rows), default=0)
        for n, entry, direct, mass in rows:
            if abs(entry - direct) > mpf(10) ** (10 - dps) * max(mass, scale):
                raise RuntimeError(
                    "word branch stream disagrees with apply_operator "
                    f"at n = {n}: {entry} vs {direct}"
                )
    return stream, branches


def adjoint_check(
    expr: OperatorExpr,
    big: Distribution,
    small: Distribution,
    cfg: Optional[SummationConfig] = None,
    dps: int = DEFAULT_DPS,
    probe: int = 64,
) -> AdjointCheckReport:
    """Compare <X‡ F, G> against <F, X G> through the full pipeline.

    Each side is its own term stream, conj((X‡ f)_n) g_n and
    conj(f_n) (X g)_n, and the word's stream is read only where the other
    slot's coefficient is nonzero.  A slot whose branch points all sit at 0
    streams its word from the word's branch list, checked against
    ``apply_operator`` over the first ``probe`` indices (a mismatch raises
    RuntimeError); any other slot runs ``apply_operator``, letter by letter,
    over its coefficient sequence.  When both distributions
    admit point branches the Abel levels also get a closed form: the ladder
    letters transfer to the argument side of the eigenfunctions, so
    operator-applied pairs keep the kernel route (and its direct-summation
    cross-check).  Like branches are merged after every letter, so both
    sides cost polynomial time in the word length.

    ``probe`` also bounds the partial-sum deviation scan reported alongside
    the two classified values; the deviation need not vanish (truncation
    leaves ladder boundary terms), it is context for the value comparison.
    """
    cfg = cfg or SummationConfig()
    f = coeff_sequence(big, dps)
    g = coeff_sequence(small, dps)
    left_seq, left_branches = _word_stream(expr.ddagger(), f, dps, probe)
    right_seq, right_branches = _word_stream(expr, g, dps, probe)

    left_eval = right_eval = None
    if left_branches is not None and right_branches is not None:
        left_eval = kernel_eval(left_branches, g.branches, dps)
        right_eval = kernel_eval(f.branches, right_branches, dps)

    def left_fetch(n: int):
        gn = g(n)
        if gn == 0:
            return mpc(0)
        with working(dps):
            return mp.conj(left_seq(n)) * gn

    def right_fetch(n: int):
        fn = f(n)
        if fn == 0:
            return mpc(0)
        with working(dps):
            return mp.conj(fn) * right_seq(n)

    unsettled = f.low_confidence or g.low_confidence
    lsrc = TermSource(left_fetch, abel_eval=left_eval, low_confidence=unsettled)
    rsrc = TermSource(right_fetch, abel_eval=right_eval, low_confidence=unsettled)
    left = classify_series(lsrc, cfg, dps)
    right = classify_series(rsrc, cfg, dps)
    if not (left.has_value and right.has_value):
        raise InconclusivePairingError(
            f"sides classified {left.status} / {right.status}; nothing to compare"
        )
    with working(dps):
        difference = abs(left.value - right.value)
        sum_l = mpc(0)
        sum_r = mpc(0)
        dev = mpf(0)
        for n in range(probe):
            sum_l += lsrc.term(n)
            sum_r += rsrc.term(n)
            dev = max(dev, abs(sum_l - sum_r))
    return AdjointCheckReport(left, right, difference, dev)


def adjoint_defect(
    expr: OperatorExpr,
    seq_f: Callable[[int], object],
    seq_g: Callable[[int], object],
    n_max: int,
    dps: int = DEFAULT_DPS,
):
    """(lhs, rhs, |lhs - rhs|) for the moving identity

        sum_{n <= n_max} conj((X‡ f)_n) g_n  =  sum_{n <= n_max} conj(f_n) (X g)_n.

    Equality holds exactly in the limit; truncation leaves ladder boundary
    terms at n_max, so callers should pick sequences that decay.
    """
    left = apply_operator(expr.ddagger(), seq_f, dps)
    right = apply_operator(expr, seq_g, dps)
    with working(dps):
        lhs = 0
        rhs = 0
        for n in range(n_max + 1):
            lhs += mp.conj(left(n)) * seq_g(n)
            rhs += mp.conj(seq_f(n)) * right(n)
        return lhs, rhs, abs(lhs - rhs)
