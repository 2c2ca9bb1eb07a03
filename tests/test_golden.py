"""Golden status/value grid: the pipeline's verdicts on a fixed set of pairings.

Each group recomputes its cells and compares them with `golden_grid.json`:
the same status on every cell, and values within 1e-12 relative to
max(1, |reference|).  An optimisation or refactor must leave this grid
unchanged.  Regenerate the file (only when a change of behaviour is
intended, and say so) with

    PYTHONPATH=src python tests/test_golden.py --write

The writer keeps every stored cell that the test accepts, adds the missing
ones, and prints each key it changes, adds or removes.
"""

import json
import pathlib
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from eprod.cli import parse_operator
from eprod.distributions import (
    CosWave,
    DeltaDeriv,
    ExpReal,
    L2Sample,
    SinWave,
)
from eprod.eproduct import (
    SummationConfig,
    abel_sum,
    classify_and_sum,
    phi_phi_product,
    phi_psi_product,
    psi_psi_product,
    series_row_source,
)
from eprod.exact import ComplexRational
from eprod.operators import OperatorExpr, adjoint_check
from eprod.precision import working

GOLDEN = pathlib.Path(__file__).with_name("golden_grid.json")
_LADDER_CFG = SummationConfig(max_terms=2000, tolerance=1e-13)
_DIGITS = 30  # printed digits per stored value


def _cell(status, value):
    if value is None:
        return {"status": status, "value": None}
    with working(40):
        v = mpc(value)
        return {
            "status": status,
            "value": [mp.nstr(v.real, _DIGITS), mp.nstr(v.imag, _DIGITS)],
        }


def _result_cell(res):
    return _cell(res.status, res.value)


def _ladder():
    cells = {}
    for n in range(5):
        for m in range(5):
            cells[f"phi({n}) psi({m})"] = _result_cell(
                phi_psi_product(n, m, _LADDER_CFG, 30)
            )
    for n in range(4):
        for m in range(4):
            cells[f"phi({n}) phi({m})"] = _result_cell(
                phi_phi_product(n, m, _LADDER_CFG, 30)
            )
            cells[f"psi({n}) psi({m})"] = _result_cell(
                psi_psi_product(n, m, _LADDER_CFG, 30)
            )
    return cells


_POINTS = (
    ("exp(1)", ExpReal(1)),
    ("exp(-1/2)", ExpReal(Fraction(-1, 2))),
    ("cos(1)", CosWave(1)),
    ("sin(1)", SinWave(1)),
)


def _points():
    cells = {}
    for dps in (30, 60):
        for label, F in _POINTS:
            for k in range(4):
                res = classify_and_sum(F, DeltaDeriv(k), SummationConfig(), dps)
                cells[f"{label} delta^({k}) @{dps}"] = _result_cell(res)
    return cells


def _deltas():
    cells = {}
    for k in range(4):
        for l in range(4):
            res = classify_and_sum(DeltaDeriv(k), DeltaDeriv(l), SummationConfig(), 40)
            cells[f"delta^({k}) delta^({l})"] = _result_cell(res)
    return cells


def _rows():
    # rows a and b close at pi/sqrt(2) and pi/(8 sqrt(2)); rows c and d
    # diverge at r = 1, so no level budget settles them
    cells = {}
    for kind in "ab":
        value, ok, _ = abel_sum(
            series_row_source(kind, 50), SummationConfig(tolerance=1e-16), 50
        )
        cells[f"row {kind} @50"] = _cell("ok" if ok else "not ok", value if ok else None)
    for kind in "cd":
        value, ok, _ = abel_sum(
            series_row_source(kind, 30), SummationConfig(abel_levels=10), 30
        )
        cells[f"row {kind} @30"] = _cell("ok" if ok else "not ok", value if ok else None)
    return cells


# the adjoint_words benchmark words, with their delta order k and rate g
_BENCH_WORDS = (
    ("c", 0, Fraction(1, 2)),
    ("D c", 1, Fraction(2, 3)),
    ("c x cdag", 0, Fraction(3, 4)),
    ("cdag c x c", 1, Fraction(1, 2)),
    ("x c cdag c cdag", 0, Fraction(2, 3)),
)


def _adjoint():
    c = OperatorExpr.letter("c")
    cdag = OperatorExpr.letter("cdag")
    x = OperatorExpr.letter("x")
    d = OperatorExpr.letter("d")
    triples = (
        ("c", c, DeltaDeriv(0), L2Sample(coeffs=(0, 0, 0, 1))),
        ("cdag", cdag, L2Sample(coeffs=(0, 0, 0, 0, 1)),
         L2Sample(coeffs=(0, 0, 0, 1))),
        ("x", x, DeltaDeriv(0), ExpReal(1)),
        ("D", d, DeltaDeriv(0), ExpReal(1)),
        ("x D", x @ d, DeltaDeriv(1), ExpReal(Fraction(1, 2))),
        ("(2+3i)c + x", ComplexRational(Fraction(2), Fraction(3)) * c + x,
         DeltaDeriv(2), ExpReal(-1)),
        ("identity", OperatorExpr.identity(), CosWave(1), DeltaDeriv(0)),
        ("x x", x @ x, DeltaDeriv(0), ExpReal(1)),
        ("D D", d @ d, ExpReal(Fraction(1, 2)), DeltaDeriv(0)),
        ("[c, cdag]", c @ cdag - cdag @ c, DeltaDeriv(0), ExpReal(1)),
    )
    cfg = SummationConfig(max_terms=2000, tolerance=1e-18)
    cells = {}
    for label, op, big, small in triples:
        rep = adjoint_check(op, big, small, cfg, 60)
        cells[f"{label} left"] = _result_cell(rep.left)
        cells[f"{label} right"] = _result_cell(rep.right)
    # the benchmark's words of length 1..5, delta^(k) against exp(g x) and
    # exp(-g x) against delta^(k), so each route serves either slot
    for text, k, g in _BENCH_WORDS:
        op = parse_operator(text)
        for big, small, pair in (
            (DeltaDeriv(k), ExpReal(g), f"delta^({k}), exp({g})"),
            (ExpReal(-g), DeltaDeriv(k), f"exp({-g}), delta^({k})"),
        ):
            rep = adjoint_check(op, big, small, SummationConfig(), 60)
            cells[f"{text}; {pair} left"] = _result_cell(rep.left)
            cells[f"{text}; {pair} right"] = _result_cell(rep.right)
    return cells


GROUPS = {
    "ladder": _ladder,
    "points": _points,
    "deltas": _deltas,
    "rows": _rows,
    "adjoint": _adjoint,
}


def _mismatch(key, cell, ref):
    """Why the grid rejects a recomputed cell against its stored one, or None."""
    if cell["status"] != ref["status"]:
        return f"{key}: status {cell['status']} vs {ref['status']}"
    if (cell["value"] is None) != (ref["value"] is None):
        return f"{key}: value {cell['value']} vs {ref['value']}"
    if ref["value"] is not None:
        with working(40):
            a = mpc(*map(mpf, cell["value"]))
            b = mpc(*map(mpf, ref["value"]))
            if abs(a - b) > mpf("1e-12") * max(1, abs(b)):
                return f"{key}: value {cell['value']} vs {ref['value']}"
    return None


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden_grid(group):
    want = json.loads(GOLDEN.read_text())[group]
    got = GROUPS[group]()
    assert sorted(got) == sorted(want)
    failures = [f for key, ref in want.items() if (f := _mismatch(key, got[key], ref))]
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    # keep every stored cell the test accepts, so that adding cells does not
    # rewrite the far digits of the others; report each key that changes
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    grid = {}
    for name, fn in sorted(GROUPS.items()):
        old = stored.get(name, {})
        grid[name] = {}
        for key, cell in fn().items():
            if key in old and _mismatch(key, cell, old[key]) is None:
                grid[name][key] = old[key]
            else:
                grid[name][key] = cell
                print(f"{name}: {key}: {'changed' if key in old else 'added'}")
        for key in sorted(set(old) - set(grid[name])):
            print(f"{name}: {key}: removed")
    GOLDEN.write_text(json.dumps(grid, indent=1, sort_keys=True) + "\n")
