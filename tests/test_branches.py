"""Branch-list streams: the shared recurrence-factor table."""

from mpmath import mp

from eprod import branches, distributions
from eprod.distributions import DeltaDeriv, coeff_sequence
from eprod.precision import working


def test_factor_table_keeps_the_eight_latest_precisions(monkeypatch):
    monkeypatch.setattr(branches, "_ladder_tables", {})
    monkeypatch.setattr(distributions, "_sequence_cache", {})
    for dps in range(30, 39):
        coeff_sequence(DeltaDeriv(0), dps)(8)
    tables = branches._ladder_tables
    assert len(tables) == 8
    with working(30):  # a stream's working precision
        assert mp.prec not in tables
    with working(38):
        assert len(tables[mp.prec][0]) == 9  # a[0..8]
