"""Ladder-word algebra, the pairing adjoint, and the two-sided identity check."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from eprod import operators
from eprod.branches import word_branches
from eprod.distributions import (
    CosWave,
    DeltaDeriv,
    ExpReal,
    L2Sample,
    coeff_sequence,
    point_branches,
)
from eprod.eproduct import SummationConfig
from eprod.exact import ComplexRational
from eprod.operators import (
    LETTERS,
    MAX_WORD_LENGTH,
    InconclusivePairingError,
    OperatorExpr,
    adjoint_check,
    adjoint_defect,
    apply_operator,
)
from eprod.precision import working

mp.dps = 40

C = OperatorExpr.letter("c")
CDAG = OperatorExpr.letter("cdag")
X = OperatorExpr.letter("x")
D = OperatorExpr.letter("d")
ID = OperatorExpr.identity()


def _power(op, k):
    out = ID
    for _ in range(k):
        out = out @ op
    return out


def _seq(*coeffs):
    vals = tuple(mpf(c) for c in coeffs)

    def fn(n):
        return vals[n] if n < len(vals) else mpf(0)

    return fn


# -- algebra -------------------------------------------------------------


def test_letters_and_identity():
    assert LETTERS == ("c", "cdag", "x", "d")
    assert ID.terms == ((1, ()),)
    assert C.terms == ((1, ("c",)),)
    with pytest.raises(ValueError):
        OperatorExpr.letter("a")
    with pytest.raises(ValueError):
        OperatorExpr(((1, ("q",)),))


def test_word_length_cap_rejects_longer_words():
    assert MAX_WORD_LENGTH == 32
    with pytest.raises(ValueError, match="cap of 32"):
        OperatorExpr(((1, ("x",) * 33),))
    word = OperatorExpr(((1, ("c",) * 16),))
    with pytest.raises(ValueError, match="33 letters"):
        word @ word @ C


def test_composition_concatenates_words():
    assert (C @ X).terms == ((1, ("c", "x")),)
    assert ((C @ X) @ D).terms == ((1, ("c", "x", "d")),)
    assert (ID @ C) == C == (C @ ID)


def test_sum_and_scalar_weights():
    both = 2 * C + X * 3
    assert both.terms == ((2, ("c",)), (3, ("x",)))
    assert (-C).terms == ((-1, ("c",)),)
    diff = C - C
    assert diff.terms == ((1, ("c",)), (-1, ("c",)))
    z = ComplexRational(Fraction(2), Fraction(3))
    assert (z * D).terms[0][0] == z


def test_distribution_of_products_over_sums():
    left = (C + X) @ D
    assert left.terms == ((1, ("c", "d")), (1, ("x", "d")))


# -- pairing adjoint ------------------------------------------------------


def test_ddagger_on_letters():
    assert C.ddagger() == CDAG
    assert CDAG.ddagger() == C
    assert X.ddagger() == X
    assert D.ddagger() == -D
    assert ID.ddagger() == ID


def test_ddagger_reverses_words_and_conjugates():
    assert (C @ X).ddagger() == X @ CDAG
    assert (C @ D).ddagger() == (-D) @ CDAG
    z = ComplexRational(Fraction(2), Fraction(3))
    adj = (z * C).ddagger()
    assert adj.terms == ((ComplexRational(Fraction(2), Fraction(-3)), ("cdag",)),)


_scalars = st.one_of(
    st.integers(min_value=-4, max_value=4).filter(bool),
    st.builds(
        ComplexRational,
        st.fractions(min_value=-3, max_value=3),
        st.fractions(min_value=-3, max_value=3),
    ),
)
_words = st.lists(st.sampled_from(LETTERS), max_size=4).map(tuple)
_exprs = st.lists(st.tuples(_scalars, _words), min_size=1, max_size=3).map(
    lambda ts: OperatorExpr(tuple(ts))
)


@settings(max_examples=100, deadline=None)
@given(_exprs)
def test_ddagger_is_an_involution(expr):
    assert expr.ddagger().ddagger() == expr


@settings(max_examples=60, deadline=None)
@given(_exprs, _exprs)
def test_ddagger_antidistributes_over_composition(a, b):
    # the two expansions enumerate cross terms in different orders
    lhs = Counter((a @ b).ddagger().terms)
    rhs = Counter((b.ddagger() @ a.ddagger()).terms)
    assert lhs == rhs


# -- coefficient actions ----------------------------------------------------


def test_lowering_action():
    out = apply_operator(C, _seq(0, 0, 0, 1), 40)  # e_3
    with working(40):
        assert abs(out(2) - mp.sqrt(3)) < mpf("1e-37")
    assert out(0) == out(1) == out(3) == out(4) == 0


def test_raising_action():
    out = apply_operator(CDAG, _seq(0, 0, 0, 1), 40)
    assert out(4) == 2  # sqrt(4)
    assert out(0) == out(2) == out(3) == 0


def test_position_and_derivative_actions():
    xout = apply_operator(X, _seq(0, 0, 0, 1), 40)
    dout = apply_operator(D, _seq(0, 0, 0, 1), 40)
    with working(40):
        r3 = mp.sqrt(3) / mp.sqrt(2)
        assert abs(xout(2) - r3) < mpf("1e-37")
        assert abs(xout(4) - mp.sqrt(2)) < mpf("1e-37")
        assert abs(dout(2) - r3) < mpf("1e-37")
        assert abs(dout(4) + mp.sqrt(2)) < mpf("1e-37")


def test_word_equals_nested_application():
    word = apply_operator(C @ C, _seq(0, 0, 0, 1), 40)
    nested = apply_operator(C, apply_operator(C, _seq(0, 0, 0, 1), 40), 40)
    for n in range(6):
        assert word(n) == nested(n)
    with working(40):
        assert abs(word(1) - mp.sqrt(6)) < mpf("1e-37")


def test_negative_index_rejected():
    out = apply_operator(C, _seq(1), 40)
    with pytest.raises(ValueError):
        out(-1)


def test_canonical_commutator_is_identity():
    comm = C @ CDAG - CDAG @ C
    f = _seq(*[1 / mpf(n + 1) for n in range(12)])
    out = apply_operator(comm, f, 40)
    with working(40):
        for n in range(10):
            assert abs(out(n) - f(n)) < mpf("1e-36")


def _letter_by_letter(word, seq):
    """(word s)_n by the letter definitions, rightmost letter first."""

    def act(letter, fn):
        def value(n):
            up = mp.sqrt(n + 1) * fn(n + 1)
            down = mp.sqrt(n) * fn(n - 1) if n else mpf(0)
            if letter == "c":
                return up
            if letter == "cdag":
                return down
            return (up + down if letter == "x" else up - down) / mp.sqrt(2)

        return value

    fn = seq
    for letter in reversed(word):
        fn = act(letter, fn)
    return fn


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(LETTERS), max_size=6).map(tuple),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6),
)
def test_apply_operator_matches_letter_by_letter_definition(word, coeffs):
    seq = _seq(*coeffs)
    ordered = apply_operator(OperatorExpr(((1, word),)), seq, 40)
    reference = _letter_by_letter(word, seq)
    with working(40):
        for n in range(len(coeffs) + 7):  # n = 0 is the cdag boundary
            want = reference(n)
            assert abs(ordered(n) - want) <= mpf("1e-35") * max(1, abs(want))


@pytest.mark.parametrize("length", range(1, 9))
def test_apply_operator_reads_at_most_length_plus_one_entries(length):
    reads = []

    def seq(n):
        reads.append(n)
        return mpf(1) / (n + 1)

    out = apply_operator(_power(X, length), seq, 40)
    for n in range(3 * length):
        before = len(reads)
        out(n)
        assert len(reads) - before <= length + 1


def test_word_branches_of_a_long_word_stay_few():
    delta = point_branches(DeltaDeriv(0), 60)
    assert len(word_branches(_power(X, 8).terms, delta, 60)) <= 9


# -- the adjoint identity ------------------------------------------------------


def test_adjoint_defect_on_finite_sequences():
    lhs, rhs, defect = adjoint_defect(C, _seq(0, 0, 0, 1), _seq(0, 0, 0, 0, 1), 8, 40)
    assert lhs == rhs == 2  # <cdag e_3, e_4> = sqrt(4) = <e_3, c e_4>
    assert defect == 0


def test_adjoint_defect_decays_with_the_sequences():
    f = lambda n: mpf(2) ** -n
    _, _, defect = adjoint_defect(X, f, f, 40, 40)
    assert defect < mpf("1e-20")


_CFG = SummationConfig(max_terms=2000, tolerance="1e-18")


def test_adjoint_check_lowering_against_point_mass():
    rep = adjoint_check(C, DeltaDeriv(0), L2Sample(coeffs=(0, 0, 0, 1)), _CFG, 50)
    with working(50):
        want = -mp.sqrt(3) / (mp.sqrt(2) * mp.pi ** mpf("0.25"))  # sqrt(3) e_2(0)
        assert abs(rep.left.value - want) < mpf("1e-40")
        assert abs(rep.right.value - want) < mpf("1e-40")
    assert rep.difference < mpf("1e-40")


@pytest.mark.parametrize(
    "expr,big,small",
    [
        (X, DeltaDeriv(0), ExpReal(1)),
        (D, DeltaDeriv(0), ExpReal(1)),
        (X @ D, DeltaDeriv(1), ExpReal(Fraction(1, 2))),
    ],
)
def test_adjoint_check_point_family_triples(expr, big, small):
    rep = adjoint_check(expr, big, small, _CFG, 50)
    with working(50):
        scale = max(mpf(1), abs(rep.left.value), abs(rep.right.value))
        assert rep.difference <= mpf("1e-15") * scale


def test_adjoint_check_long_word_at_30_digits():
    # the closed-form cross-check at r = 15/16 must not trip on the slowly
    # decaying terms of a rate-3/2 exponential
    word = C @ C @ C @ C @ C
    rep = adjoint_check(word, DeltaDeriv(1), ExpReal(Fraction(3, 2)), dps=30)
    with working(30):
        scale = max(mpf(1), abs(rep.left.value), abs(rep.right.value))
        assert rep.difference <= mpf("1e-15") * scale


def test_adjoint_check_identity_is_bit_for_bit():
    rep = adjoint_check(ID, CosWave(1), DeltaDeriv(0), _CFG, 40)
    assert rep.difference == 0
    assert rep.max_partial_dev == 0


def test_adjoint_check_probe_guards_the_branch_stream(monkeypatch):
    # one word branch coefficient off by 1e-20 relative
    real = operators.word_branches

    def skewed(terms, branches, dps):
        (coeff, s, x0, j), *rest = real(terms, branches, dps)
        with working(dps):
            return [(coeff * (1 + mpf("1e-20")), s, x0, j), *rest]

    monkeypatch.setattr(operators, "word_branches", skewed)
    with pytest.raises(RuntimeError, match="disagrees with apply_operator"):
        adjoint_check(C @ X, DeltaDeriv(1), ExpReal(Fraction(1, 2)), dps=60)


@pytest.mark.parametrize("dps", [30, 60])
def test_adjoint_check_probe_passes_a_word_that_cancels_to_zero(dps):
    # x^32 delta = 0: the branch stream reads exact zeros, while
    # apply_operator sums terms near 1e31 that cancel down to its rounding
    cfg = SummationConfig()
    rep = adjoint_check(_power(X, 32), DeltaDeriv(0), ExpReal(Fraction(1, 2)), cfg, dps)
    assert rep.left.value == 0
    assert abs(rep.right.value) <= cfg.tolerance


@pytest.mark.parametrize("swap", [False, True])
def test_adjoint_check_reads_words_only_where_the_other_slot_is_nonzero(
    monkeypatch, swap
):
    # delta vanishes at odd indices; its own side streams from the branch
    # list, and only the probe guard evaluates apply_operator there
    calls = []
    real = operators.apply_operator

    def counted(expr, seq, dps):
        out = real(expr, seq, dps)

        def evaluate(n):
            calls.append(n)
            return out(n)

        return evaluate

    monkeypatch.setattr(operators, "apply_operator", counted)
    cfg = SummationConfig()
    probe = 64
    slots = (DeltaDeriv(0), ExpReal(Fraction(1, 2)))
    adjoint_check(C, *(slots[::-1] if swap else slots), cfg, 60, probe)
    assert len(calls) <= cfg.max_terms // 2 + probe + 1 + 1  # L = 1


def test_letters_keep_a_window_and_recompute_what_falls_out():
    # each intermediate letter keeps only the entries in-order reads come
    # back to; a read far behind recomputes them from the letter below
    def seq(n):
        return mpf(1) / (n + 1) + (-1) ** n * mpf(n) / 3

    word = _power(X, 8)
    read_in_order = apply_operator(word, seq, 30)
    for n in range(4000):
        read_in_order(n)
    behind = apply_operator(word, seq, 30)
    behind(3999)  # the letters' windows sit near 4,000
    for n in (10, 2000):
        fresh = apply_operator(word, seq, 30)
        assert read_in_order(n) == fresh(n)
        assert behind(n) == fresh(n)


def test_adjoint_check_refuses_divergent_sides():
    with pytest.raises(InconclusivePairingError):
        adjoint_check(ID, DeltaDeriv(0), DeltaDeriv(0), _CFG, 40)


def test_adjoint_check_with_complex_weights():
    expr = ComplexRational(Fraction(2), Fraction(3)) * C + X
    rep = adjoint_check(expr, DeltaDeriv(2), ExpReal(-1), _CFG, 50)
    with working(50):
        scale = max(mpf(1), abs(rep.left.value), abs(rep.right.value))
        assert rep.difference <= mpf("1e-15") * scale


@pytest.mark.parametrize(
    "expr,big,want",
    [
        (_power(D, 8), DeltaDeriv(0), Fraction(1, 2**8)),  # (1/2)**8
        (_power(X, 8), DeltaDeriv(8), 40320),  # 8!
        (_power(C + CDAG, 4), DeltaDeriv(4), 96),  # (sqrt(2) x)**4: 4 * 4!
    ],
)
def test_adjoint_check_long_words_exact_values(expr, big, want):
    cfg = SummationConfig()
    rep = adjoint_check(expr, big, ExpReal(Fraction(1, 2)), cfg, 60)
    with working(60):
        target = mpf(want.numerator) / want.denominator
        gate = mpf(cfg.tolerance) * max(1, target)
        assert abs(rep.left.value - target) <= gate
        assert abs(rep.right.value - target) <= gate
