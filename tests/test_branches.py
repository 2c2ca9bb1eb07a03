"""Branch-list streams: the integer recurrence against an mpf oracle, and
the shared recurrence-factor and square-root table."""

from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from eprod import branches, distributions
from eprod.branches import I_POWERS
from eprod.distributions import (
    CosWave,
    DeltaDeriv,
    ExpReal,
    LinearCombo,
    NormalizedDeltaDeriv,
    NormalizedMonomial,
    SinWave,
    coeff_sequence,
    point_branches,
)
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
        assert len(a) == len(b) == 64  # a[0..63]: the stream's first block, through index 8
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


# -- the integer stream against the mpf recurrence ----------------------------------


def _mpf_stream(branch_list, dps: int, n_max: int) -> list:
    """The stream of a branch list through index n_max, by the differentiated
    recurrence run in mpf arithmetic at the working precision of dps.

    The same recurrence as ``branches.branch_stream`` (see there), with the
    same grouping by point, phase tables and parity skip at y = 0."""
    tables: dict = {}
    with working(dps):
        for coeff, s, x0, j in branch_list:
            if x0.imag == 0:
                key = (x0.real, 1)
            else:
                key = (x0.imag, -1)
                coeff, s = coeff * I_POWERS[3 * j % 4], s + 1
            row = tables.setdefault(key, {}).setdefault(j, [0, 0, 0, 0])
            for r in range(4):
                row[r] += coeff * I_POWERS[s * r % 4]
        groups = []
        for (y, eps), rows in tables.items():
            top = max(rows)
            col = [mp.pi ** mpf("-0.25") * mp.exp(-eps * y * y / 2)]
            for j in range(top):
                col.append(-eps * (y * col[j] + (j * col[j - 1] if j else 0)))
            groups.append((y, eps, rows, top, [[mpf(0)] * (top + 1), col]))
        out = []
        for n in range(n_max + 1):
            total = mpc(0)
            for y, eps, rows, top, cols in groups:
                if n:
                    prev, cur = cols  # columns n - 2, n - 1
                    an, bn = mp.sqrt(mpf(2) / n), mp.sqrt(mpf(n - 1) / n)
                    if y == 0:
                        for j in range(n % 2, top + 1, 2):
                            prev[j] = an * j * cur[j - 1] - bn * prev[j] if j else -bn * prev[j]
                    else:
                        for j in range(top + 1):
                            v = y * cur[j] + j * cur[j - 1] if j else y * cur[j]
                            prev[j] = an * v - eps * bn * prev[j]
                    cols.reverse()
                for j, row in rows.items():
                    total += row[n % 4] * cols[1][j]
            out.append(total)
        return out


ORACLE_DPS = 340
STREAM_CASES = {
    "delta^(64)": DeltaDeriv(64),
    "psi_64": NormalizedDeltaDeriv(64),
    "phi_64": NormalizedMonomial(64),
    "delta + delta^(64)": LinearCombo(((1, DeltaDeriv(0)), (1, DeltaDeriv(64)))),
    "delta'' + 1e-40 delta^(40)": LinearCombo(
        ((1, DeltaDeriv(2)), (Fraction(1, 10**40), DeltaDeriv(40)))
    ),
    "exp(100)": ExpReal(100),
    "exp(-1/2)": ExpReal(Fraction(-1, 2)),
    "cos(100)": CosWave(100),
    "sin(1/3)": SinWave(Fraction(1, 3)),
    "cos(100) + exp(-1/2)": LinearCombo(((1, CosWave(100)), (1, ExpReal(Fraction(-1, 2))))),
}


@pytest.mark.parametrize("name", list(STREAM_CASES))
def test_stream_matches_the_mpf_recurrence(name):
    # |stream - ref| <= 10**-dps max_{m <= n} |ref_m| for n < 4,000, with the
    # reference run at 340 digits: columns 63!! ~ 1e44 apart (delta^(64)),
    # a factor 1e-40 on a large column, entries from exp(-5000) (cos(100))
    # to exp(100 sqrt(8000)) (exp(100)), and two points in one stream
    dist = STREAM_CASES[name]
    ref = _mpf_stream(point_branches(dist, ORACLE_DPS), ORACLE_DPS, 3999)
    for dps in (30, 100, 300):
        seq = coeff_sequence(dist, dps)
        with working(ORACLE_DPS):
            gate = mpf(10) ** -dps
            peak = mpf(0)
            for n, want in enumerate(ref):
                peak = max(peak, abs(want))
                err = abs(seq(n) - want)
                assert err <= gate * peak, f"{name} at {dps} digits, n = {n}: {err} > {gate * peak}"


@pytest.mark.parametrize("shift", [40, 0, -40])
def test_columns_are_renormalised_near_the_working_bits(shift):
    # from the second step on, each column's two integers stay within
    # _SLACK_BITS of `bits`, whether the column grows (exp(100)) or not, and
    # from a start 40 bits too large or too small: a step costs the same at
    # n = 4,000 as at n = 0
    with working(30):
        prec = mp.prec
    bits = prec + branches._GUARD_BITS
    a, b = branches._ladder_table(4000, prec)
    for y, eps, top in ((mpf(0), 1, 6), (mpf(100), -1, 0), (mpf(3) / 2, 1, 3)):
        y_fixed = branches._fixed(y, bits)
        cols, ex = branches._start(y, y_fixed, eps, top, bits)
        cols[1] = [branches._shifted(m, -shift) for m in cols[1]]
        ex[:] = [e - shift for e in ex]
        group = (y_fixed, eps, [[]] * 4, top, cols, ex)
        for n in range(1, 4000):
            branches._steps(group, n, n, a, b, bits)
            for j in range(top + 1) if n >= 2 else ():
                size = (abs(cols[0][j]) | abs(cols[1][j])).bit_length()
                assert not size or abs(size - bits) <= branches._SLACK_BITS, (y, n, j, size - bits)
