"""Ladder-word algebra, the pairing adjoint, and the two-sided identity check."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from eprod.distributions import (
    CosWave,
    DeltaDeriv,
    ExpReal,
    L2Sample,
    coeff_sequence,
)
from eprod.eproduct import SummationConfig
from eprod.exact import ComplexRational
from eprod.operators import (
    LETTERS,
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


def test_adjoint_check_refuses_divergent_sides():
    with pytest.raises(InconclusivePairingError):
        adjoint_check(ID, DeltaDeriv(0), DeltaDeriv(0), _CFG, 40)


def test_adjoint_check_with_complex_weights():
    expr = ComplexRational(Fraction(2), Fraction(3)) * C + X
    rep = adjoint_check(expr, DeltaDeriv(2), ExpReal(-1), _CFG, 50)
    with working(50):
        scale = max(mpf(1), abs(rep.left.value), abs(rep.right.value))
        assert rep.difference <= mpf("1e-15") * scale
