"""Branch-list streams: the shared recurrence-factor and square-root table."""

from mpmath import mp

from eprod import branches, distributions
from eprod.distributions import DeltaDeriv, coeff_sequence
from eprod.operators import OperatorExpr, apply_operator
from eprod.precision import working

LOWER = OperatorExpr.letter("c")


def test_factor_table_keeps_the_eight_latest_precisions(monkeypatch):
    monkeypatch.setattr(branches, "_ladder_tables", {})
    monkeypatch.setattr(distributions, "_sequence_cache", {})
    for dps in range(30, 39):
        coeff_sequence(DeltaDeriv(0), dps)(8)
        apply_operator(LOWER, lambda n: 1, dps)(8)
    tables = branches._ladder_tables
    assert len(tables) == 8
    with working(30):  # a stream's working precision
        assert mp.prec not in tables
    with working(38):
        a, b, roots = tables[mp.prec]
        assert len(a) == len(b) == 9  # a[0..8]
        assert len(roots) == 10  # sqrt(0..9): (c s)_8 reads sqrt(9)


def test_square_roots_follow_the_working_precision(monkeypatch):
    monkeypatch.setattr(branches, "_ladder_tables", {})
    with working(40):  # the ambient precision differs from both calls
        low = apply_operator(LOWER, lambda n: 1, 40)
        high = apply_operator(LOWER, lambda n: 1, 60)
        for n in range(50):
            low(n)  # (c 1)_n = sqrt(n + 1)
        got = [high(n) for n in range(50)]
    with working(60):
        assert got == [mp.sqrt(n + 1) for n in range(50)]
