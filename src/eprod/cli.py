"""Command-line front end.

Distribution expressions come in a small mini-language:

    delta, delta^(k), x, x^n, phi(n), psi(n), exp(g), cos(w), sin(w)

combined with + and -, and scaled by exact scalars: ``2.5*``, ``1/2*``,
``i*``, ``2i*``, or a parenthesized complex one like ``(2+3i)*``.  Operator
expressions use the letters c, cdag, x, D with whitespace juxtaposition for
composition and the same scalar syntax.

Every subcommand emits a report as text, CSV, or schema-versioned JSON with
all numbers as decimal strings at the configured precision.  Defaults can be
overridden by a flat JSON config file (the EPROD_CONFIG environment variable
names one), and flags override the file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf

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
    coeff,
)
from .eproduct import (
    ABEL_SUMMABLE,
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    ZERO_BY_PARITY,
    SummationConfig,
    abel_sum,
    classify_and_sum,
    pair_partial_sums_exact,
    phi_phi_product,
    phi_psi_product,
    psi_psi_product,
    series_row_source,
)
from .exact import ComplexRational, ExactTerm, SqrtTerm
from .hermite import SingularKernelError
from .operators import InconclusivePairingError, OperatorExpr, adjoint_check
from .precision import DEFAULT_DPS, check_dps, working

__all__ = [
    "parse_distribution",
    "parse_operator",
    "canonical_text",
    "operator_text",
    "ExprError",
    "main",
]

CONFIG_ENV = "EPROD_CONFIG"
SCHEMA_VERSION = 1

_FAMILIES = {
    "phi": NormalizedMonomial,
    "psi": NormalizedDeltaDeriv,
    "x": Monomial,
    "delta": DeltaDeriv,
}


# -- expression mini-language --------------------------------------------------


class ExprError(ValueError):
    """Syntax or symbol error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self, ahead: int = 0):
        idx = self.k + ahead
        return self.tokens[idx] if idx < len(self.tokens) else None

    def advance(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression", len(self.text))
        self.k += 1
        return tok

    def at_sym(self, ch: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "sym" and tok[1] == ch

    def expect_sym(self, ch: str):
        tok = self.peek()
        if tok is None:
            raise ExprError(f"expected {ch!r}", len(self.text))
        if tok[0] != "sym" or tok[1] != ch:
            raise ExprError(f"expected {ch!r}, found {tok[1]!r}", tok[2])
        self.k += 1

    def done(self) -> bool:
        return self.k >= len(self.tokens)

    # -- shared numeric pieces ------------------------------------------

    def _fraction(self, tok) -> Fraction:
        try:
            return Fraction(tok[1])
        except ValueError:
            raise ExprError(f"invalid number {tok[1]!r}", tok[2]) from None

    def number(self) -> Fraction:
        """NUM with an optional /NUM denominator."""
        tok = self.advance()
        if tok[0] != "num":
            raise ExprError(f"expected a number, found {tok[1]!r}", tok[2])
        value = self._fraction(tok)
        if self.at_sym("/"):
            self.k += 1
            den = self.advance()
            if den[0] != "num":
                raise ExprError("expected a denominator", den[2])
            d = self._fraction(den)
            if d == 0:
                raise ExprError("zero denominator", den[2])
            value /= d
        return value

    def signed_rational(self) -> Fraction:
        sign = 1
        while self.at_sym("+") or self.at_sym("-"):
            if self.advance()[1] == "-":
                sign = -sign
        return sign * self.number()

    def integer(self) -> int:
        tok = self.advance()
        if tok[0] != "num" or "." in tok[1]:
            raise ExprError(f"expected an integer, found {tok[1]!r}", tok[2])
        return int(tok[1])

    def _scalar_part(self) -> ComplexRational:
        """[sign] ( NUM [/NUM] [i] | i )"""
        sign = 1
        while self.at_sym("+") or self.at_sym("-"):
            if self.advance()[1] == "-":
                sign = -sign
        tok = self.peek()
        if tok is not None and tok[0] == "name" and tok[1] == "i":
            self.k += 1
            return ComplexRational(Fraction(0), Fraction(sign))
        value = self.number()
        tok = self.peek()
        if tok is not None and tok[0] == "name" and tok[1] == "i":
            self.k += 1
            return ComplexRational(Fraction(0), sign * value)
        return ComplexRational(sign * value)

    def complex_group(self) -> ComplexRational:
        """( part { (+|-) part } )"""
        self.expect_sym("(")
        total = self._scalar_part()
        while self.at_sym("+") or self.at_sym("-"):
            total = total + self._scalar_part()
        self.expect_sym(")")
        return total

    def scalar_lookahead(self) -> bool:
        """Does a scalar factor start here?"""
        tok = self.peek()
        if tok is None:
            return False
        if tok[0] == "num":
            return True
        if tok[0] == "name" and tok[1] == "i":
            return True
        if tok[0] == "sym" and tok[1] == "(":
            return True
        return False

    def scalar_factor(self) -> ComplexRational:
        if self.at_sym("("):
            return self.complex_group()
        return self._scalar_part()


def _simplify_scalar(s: ComplexRational):
    return s.re if s.is_real else s


def _parse_dist_atom(p: _Parser) -> Distribution:
    tok = p.advance()
    if tok[0] == "num":
        # a bare constant is that multiple of the constant function x^0
        p.k -= 1
        value = p.number()
        if value == 1:
            return Monomial(0)
        return LinearCombo(((value, Monomial(0)),))
    if tok[0] != "name":
        raise ExprError(f"expected a distribution, found {tok[1]!r}", tok[2])
    name = tok[1]
    if name == "delta":
        if p.at_sym("^"):
            p.k += 1
            p.expect_sym("(")
            order = p.integer()
            p.expect_sym(")")
            return DeltaDeriv(order)
        return DeltaDeriv(0)
    if name == "x":
        if p.at_sym("^"):
            p.k += 1
            if p.at_sym("("):
                p.k += 1
                degree = p.integer()
                p.expect_sym(")")
            else:
                degree = p.integer()
            return Monomial(degree)
        return Monomial(1)
    if name == "phi" or name == "psi":
        p.expect_sym("(")
        index = p.integer()
        p.expect_sym(")")
        return NormalizedMonomial(index) if name == "phi" else NormalizedDeltaDeriv(index)
    if name in ("exp", "cos", "sin"):
        p.expect_sym("(")
        arg = p.signed_rational()
        p.expect_sym(")")
        if name == "exp":
            return ExpReal(arg)
        return CosWave(arg) if name == "cos" else SinWave(arg)
    raise ExprError(f"unknown symbol {name!r}", tok[2])


def _parse_dist_term(p: _Parser):
    """-> (ComplexRational, Distribution)"""
    scalar = ComplexRational(Fraction(1))
    saw_scalar = False
    while p.scalar_lookahead():
        mark = p.k
        factor = p.scalar_factor()
        if p.at_sym("*"):
            p.k += 1
            scalar = scalar * factor
            saw_scalar = True
            continue
        if p.peek() is None or p.at_sym("+") or p.at_sym("-"):
            # trailing bare number: a constant term
            return scalar * factor, Monomial(0)
        # not a scalar after all (e.g. plain "1" would have returned above)
        p.k = mark
        break
    atom = _parse_dist_atom(p)
    del saw_scalar
    return scalar, atom


def parse_distribution(text: str) -> Distribution:
    """Parse the distribution mini-language; raises ExprError with position."""
    p = _Parser(text)
    if p.done():
        raise ExprError("empty expression", 0)
    parts = []
    sign = 1
    if p.at_sym("+") or p.at_sym("-"):
        if p.advance()[1] == "-":
            sign = -1
    while True:
        scalar, atom = _parse_dist_term(p)
        parts.append((scalar * sign, atom))
        if p.done():
            break
        tok = p.advance()
        if tok[0] != "sym" or tok[1] not in "+-":
            raise ExprError(f"expected '+' or '-', found {tok[1]!r}", tok[2])
        sign = 1 if tok[1] == "+" else -1
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    return LinearCombo(tuple((_simplify_scalar(s), d) for s, d in parts))


# -- canonical printing --------------------------------------------------------


def _rat_text(value: Fraction) -> str:
    return str(Fraction(value))


def _scalar_text(s) -> tuple[int, str]:
    """(sign, magnitude-prefix) for a combination scalar; '' means scalar 1."""
    if isinstance(s, ComplexRational) and s.is_real:
        s = s.re
    if isinstance(s, (int, Fraction)):
        f = Fraction(s)
        sign = -1 if f < 0 else 1
        mag = abs(f)
        return sign, ("" if mag == 1 else f"{mag}*")
    if isinstance(s, ComplexRational):
        if s.re == 0:
            sign = -1 if s.im < 0 else 1
            im = abs(s.im)
            return sign, ("i*" if im == 1 else f"{im}i*")
        return 1, f"({s})*"
    raise ValueError(f"scalar {s!r} has no expression form")


def canonical_text(d: Distribution) -> str:
    """Expression text that parses back to d (grammar-expressible variants)."""
    if isinstance(d, DeltaDeriv):
        return "delta" if d.order == 0 else f"delta^({d.order})"
    if isinstance(d, Monomial):
        if d.degree == 1:
            return "x"
        return f"x^{d.degree}"
    if isinstance(d, NormalizedMonomial):
        return f"phi({d.index})"
    if isinstance(d, NormalizedDeltaDeriv):
        return f"psi({d.index})"
    if isinstance(d, ExpReal):
        return f"exp({_rat_text(d.rate)})"
    if isinstance(d, CosWave):
        return f"cos({_rat_text(d.freq)})"
    if isinstance(d, SinWave):
        return f"sin({_rat_text(d.freq)})"
    if isinstance(d, LinearCombo):
        if not d.parts:
            return "0*x^0"
        pieces = []
        for s, part in d.parts:
            inner = canonical_text(part)
            if isinstance(part, LinearCombo):
                raise ValueError("nested combinations have no expression form")
            sign, prefix = _scalar_text(s)
            pieces.append((sign, prefix + inner))
        out = ("-" if pieces[0][0] < 0 else "") + pieces[0][1]
        for sign, text in pieces[1:]:
            out += (" - " if sign < 0 else " + ") + text
        return out
    raise ValueError(f"{type(d).__name__} has no expression form")


# -- operator mini-language ------------------------------------------------------

_OP_LETTERS = {"c": "c", "cdag": "cdag", "x": "x", "D": "d"}
_OP_NAMES = {"c": "c", "cdag": "cdag", "x": "x", "d": "D"}


def parse_operator(text: str) -> OperatorExpr:
    """c, cdag, x, D with juxtaposition, +/-, and complex scalars."""
    p = _Parser(text)
    if p.done():
        raise ExprError("empty operator expression", 0)
    terms = []
    sign = 1
    if p.at_sym("+") or p.at_sym("-"):
        if p.advance()[1] == "-":
            sign = -1
    while True:
        scalar = ComplexRational(Fraction(sign))
        while p.scalar_lookahead():
            factor = p.scalar_factor()
            if p.at_sym("*"):
                p.k += 1
            scalar = scalar * factor
        word = []
        while True:
            tok = p.peek()
            if tok is None or tok[0] != "name":
                break
            if tok[1] not in _OP_LETTERS:
                raise ExprError(f"unknown operator letter {tok[1]!r}", tok[2])
            word.append(_OP_LETTERS[tok[1]])
            p.k += 1
        if not word and scalar == sign and not p.done():
            tok = p.peek()
            raise ExprError(f"expected an operator letter, found {tok[1]!r}", tok[2])
        terms.append((_simplify_scalar(scalar), tuple(word)))
        if p.done():
            break
        tok = p.advance()
        if tok[0] != "sym" or tok[1] not in "+-":
            raise ExprError(f"expected '+' or '-', found {tok[1]!r}", tok[2])
        sign = 1 if tok[1] == "+" else -1
    return OperatorExpr(tuple(terms))


def operator_text(expr: OperatorExpr) -> str:
    if not expr.terms:
        return "0*1"
    pieces = []
    for s, word in expr.terms:
        body = " ".join(_OP_NAMES[letter] for letter in word) if word else "1"
        if isinstance(s, ComplexRational) and s.is_real:
            s = s.re
        if isinstance(s, (int, Fraction)):
            f = Fraction(s)
            sign = -1 if f < 0 else 1
            mag = abs(f)
            text = body if mag == 1 else f"{mag}*{body}"
        elif isinstance(s, ComplexRational) and s.re == 0:
            sign = -1 if s.im < 0 else 1
            im = abs(s.im)
            text = f"i*{body}" if im == 1 else f"{im}i*{body}"
        elif isinstance(s, ComplexRational):
            sign, text = 1, f"({s})*{body}"
        else:
            raise ValueError(f"scalar {s!r} has no expression form")
        pieces.append((sign, text))
    out = ("-" if pieces[0][0] < 0 else "") + pieces[0][1]
    for sign, text in pieces[1:]:
        out += (" - " if sign < 0 else " + ") + text
    return out


# -- configuration ---------------------------------------------------------------


@dataclass
class RunSettings:
    digits: int = DEFAULT_DPS
    sweep_cap: int = 128
    cfg: SummationConfig = SummationConfig()


_CFG_FIELDS = (
    "max_terms",
    "tolerance",
    "abel_levels",
    "extrapolation_depth",
    "divergence_margin",
    "partial_sum_cap",
)


def load_settings(args) -> RunSettings:
    values = {
        "digits": DEFAULT_DPS,
        "sweep_cap": 128,
        "max_terms": 4000,
        "tolerance": "1e-16",
        "abel_levels": 20,
        "extrapolation_depth": 6,
        "divergence_margin": 0.1,
        "partial_sum_cap": 1e40,
    }
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        unknown = set(loaded) - set(values)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    if getattr(args, "digits", None) is not None:
        values["digits"] = args.digits
    if getattr(args, "terms", None) is not None:
        values["max_terms"] = args.terms
    if getattr(args, "tol", None) is not None:
        values["tolerance"] = args.tol
    if getattr(args, "abel_levels", None) is not None:
        values["abel_levels"] = args.abel_levels
    digits = check_dps(int(values["digits"]))
    cfg = SummationConfig(
        max_terms=int(values["max_terms"]),
        tolerance=values["tolerance"],
        abel_levels=int(values["abel_levels"]),
        extrapolation_depth=int(values["extrapolation_depth"]),
        divergence_margin=float(values["divergence_margin"]),
        partial_sum_cap=float(values["partial_sum_cap"]),
    )
    return RunSettings(digits=digits, sweep_cap=int(values["sweep_cap"]), cfg=cfg)


def _config_snapshot(settings: RunSettings) -> dict:
    cfg = settings.cfg
    return {
        "digits": settings.digits,
        "max_terms": cfg.max_terms,
        "tolerance": str(cfg.tolerance),
        "abel_levels": cfg.abel_levels,
        "extrapolation_depth": cfg.extrapolation_depth,
        "divergence_margin": str(cfg.divergence_margin),
        "partial_sum_cap": str(cfg.partial_sum_cap),
    }


# -- report plumbing ---------------------------------------------------------------


def _dec(x, digits: int) -> str:
    return mp.nstr(x, digits)


def _value_obj(value, digits: int):
    if value is None:
        return None
    with working(digits):
        return {"re": _dec(mp.re(value), digits), "im": _dec(mp.im(value), digits)}


def _value_text(value, digits: int) -> str:
    if value is None:
        return "-"
    obj = _value_obj(value, digits)
    if obj["im"] in ("0.0", "-0.0"):
        return obj["re"]
    return f"{obj['re']} + {obj['im']}i"


def _diag_obj(diag, digits: int) -> dict:
    def opt(x):
        return None if x is None else _dec(x, digits)

    return {
        "n_nonzero": diag.n_nonzero,
        "ratio_estimate": opt(diag.ratio_estimate),
        "raabe_estimate": opt(diag.raabe_estimate),
        "stabilization_dev": opt(diag.stabilization_dev),
        "abel_trace": [
            {"k": lvl.k, "value": _value_obj(lvl.value, digits)}
            for lvl in diag.abel_trace
        ],
        "overflow_index": diag.overflow_index,
        "low_confidence": diag.low_confidence,
        "message": diag.message,
    }


def _emit(payload: str, out: Optional[str]):
    sys.stdout.write(payload)
    if not payload.endswith("\n"):
        sys.stdout.write("\n")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")


def _json_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- subcommands -----------------------------------------------------------------


def cmd_compute(args) -> int:
    settings = load_settings(args)
    left = parse_distribution(args.left)
    right = parse_distribution(args.right)
    t0 = time.perf_counter()
    result = classify_and_sum(left, right, settings.cfg, settings.digits)
    wall_ms = (time.perf_counter() - t0) * 1000
    digits = settings.digits
    report = {
        "schema": SCHEMA_VERSION,
        "command": "compute",
        "inputs": {"left": canonical_text(left), "right": canonical_text(right)},
        "config": _config_snapshot(settings),
        "status": result.status,
        "value": _value_obj(result.value, digits),
        "n_terms_used": result.n_terms,
        "diagnostics": _diag_obj(result.diagnostics, digits),
        "wall_time_ms": round(wall_ms, 3),
    }
    if args.format == "json":
        payload = _json_text(report)
    elif args.format == "csv":
        value = report["value"] or {"re": "", "im": ""}
        payload = _csv_text(
            ["left", "right", "status", "value_re", "value_im",
             "n_terms_used", "raabe_estimate", "wall_time_ms"],
            [[report["inputs"]["left"], report["inputs"]["right"], result.status,
              value["re"], value["im"], result.n_terms,
              report["diagnostics"]["raabe_estimate"] or "", report["wall_time_ms"]]],
        )
    else:
        lines = [
            f"left:    {report['inputs']['left']}",
            f"right:   {report['inputs']['right']}",
            f"status:  {result.status}",
            f"value:   {_value_text(result.value, digits)}",
            f"terms:   {result.n_terms}",
        ]
        d = report["diagnostics"]
        for key in ("ratio_estimate", "raabe_estimate", "stabilization_dev"):
            if d[key] is not None:
                lines.append(f"{key.replace('_', ' ')}: {d[key]}")
        if d["abel_trace"]:
            lines.append(f"abel levels: {len(d['abel_trace'])}")
        if d["message"]:
            lines.append(f"note:    {d['message']}")
        lines.append(f"time:    {report['wall_time_ms']} ms")
        payload = "\n".join(lines)
    _emit(payload, args.out)
    return 3 if result.status == INCONCLUSIVE else 0


def cmd_coeffs(args) -> int:
    settings = load_settings(args)
    dist = parse_distribution(args.dist)
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    digits = settings.digits
    rows = []
    for n in range(args.n_max + 1):
        value = coeff(dist, n, digits)
        obj = _value_obj(value, digits)
        rows.append({"n": n, "re": obj["re"], "im": obj["im"]})
    report = {
        "schema": SCHEMA_VERSION,
        "command": "coeffs",
        "input": canonical_text(dist),
        "digits": digits,
        "coefficients": rows,
    }
    if args.format == "json":
        payload = _json_text(report)
    elif args.format == "csv":
        payload = _csv_text(["n", "re", "im"], [[r["n"], r["re"], r["im"]] for r in rows])
    else:
        width = len(str(args.n_max))
        lines = [f"coefficients of {report['input']}"]
        lines += [f"  {r['n']:>{width}}  {r['re']}  {r['im']}i" for r in rows]
        payload = "\n".join(lines)
    _emit(payload, args.out)
    return 0


def _row(identity: str, expected: str, got: str, tolerance: str, ok: bool) -> dict:
    return {
        "identity": identity,
        "expected": expected,
        "got": got,
        "tolerance": tolerance,
        "pass": bool(ok),
    }


def _reproduce_ex1(digits: int) -> list:
    cfg = SummationConfig(max_terms=2000, tolerance="1e-20")
    rows = []
    for g in (Fraction(0), Fraction(1, 2), Fraction(-1, 2),
              Fraction(1), Fraction(-1), Fraction(2)):
        res = classify_and_sum(ExpReal(g), DeltaDeriv(0), cfg, digits)
        with working(digits):
            err = abs(res.value - 1) if res.value is not None else mpf("inf")
        ok = res.status in (ABEL_SUMMABLE, CONVERGENT) and err <= mpf("1e-20")
        rows.append(_row(f"<exp({g}), delta> = 1", "1",
                         _value_text(res.value, 21), "1e-20", ok))
    return rows


def _reproduce_ex2(digits: int) -> list:
    cfg = SummationConfig(max_terms=2000, tolerance="1e-20")
    rows = []
    res = classify_and_sum(CosWave(1), DeltaDeriv(0), cfg, digits)
    with working(digits):
        err = abs(res.value - 1) if res.value is not None else mpf("inf")
    rows.append(_row("<cos, delta> = 1", "1", _value_text(res.value, 21),
                     "1e-20", res.has_value and err <= mpf("1e-20")))
    res = classify_and_sum(SinWave(1), DeltaDeriv(0), cfg, digits)
    rows.append(_row("<sin, delta> = 0", "0 (ZeroByParity)",
                     f"{_value_text(res.value, 6)} ({res.status})", "exact",
                     res.status == ZERO_BY_PARITY and res.value == 0))
    return rows


def _reproduce_ex3(digits: int) -> list:
    cfg = SummationConfig(max_terms=5000, tolerance="1e-16")
    rows = []
    res = classify_and_sum(DeltaDeriv(0), DeltaDeriv(0), cfg, digits)
    rows.append(_row("<delta, delta> divergent", "Divergent", res.status,
                     "-", res.status == DIVERGENT))
    raabe = res.diagnostics.raabe_estimate
    got = "-" if raabe is None else _dec(raabe, 6)
    ok = raabe is not None and mpf("0.45") <= raabe <= mpf("0.55")
    rows.append(_row("delta-delta Raabe exponent", "0.5 within [0.45, 0.55]",
                     got, "0.05", ok))
    for k, l in ((0, 1), (0, 3), (1, 2), (2, 3)):
        res = classify_and_sum(DeltaDeriv(k), DeltaDeriv(l), cfg, digits)
        rows.append(_row(f"<delta^({k}), delta^({l})> = 0", "0 (ZeroByParity)",
                         f"{_value_text(res.value, 6)} ({res.status})", "exact",
                         res.status == ZERO_BY_PARITY and res.value == 0))
    res = classify_and_sum(DeltaDeriv(1), DeltaDeriv(1), cfg, digits)
    rows.append(_row("<delta', delta'> divergent", "Divergent", res.status,
                     "-", res.status == DIVERGENT))
    return rows


def _reproduce_ex4(digits: int) -> list:
    cfg = SummationConfig(max_terms=2000, tolerance="1e-13")
    rows = []
    with working(digits):
        for n in range(7):
            for m in range(7):
                res = phi_psi_product(n, m, cfg, digits)
                target = 1 if n == m else 0
                err = abs(res.value - target) if res.value is not None else mpf("inf")
                rows.append(_row(f"<phi({n}), psi({m})> = {target}", str(target),
                                 _value_text(res.value, 15), "1e-12",
                                 res.has_value and err <= mpf("1e-12")))
    series_cfg = SummationConfig(max_terms=2000, tolerance="1e-16")
    with working(digits):
        targets = {
            "a": ("sum of even-pair row terms", mp.pi / mp.sqrt(2), "pi/sqrt(2)"),
            "b": ("odd-pair row limit at z = -4", mp.pi / (8 * mp.sqrt(2)), "pi/(8 sqrt(2))"),
        }
    for kind, (label, target, target_text) in targets.items():
        src = series_row_source(kind, digits)
        value, ok, _levels = abel_sum(src, series_cfg, digits)
        with working(digits):
            err = abs(value - target) if value is not None else mpf("inf")
        rows.append(_row(label, target_text,
                         "-" if value is None else _dec(value, 21),
                         "1e-15", ok and err <= mpf("1e-15")))
    return rows


def _reproduce_ex5(digits: int) -> list:
    cfg = SummationConfig(max_terms=2000, tolerance="1e-16")
    rows = []
    for maker, tag in ((phi_phi_product, "phi-phi"), (psi_psi_product, "psi-psi")):
        for n in range(4):
            for m in range(4):
                res = maker(n, m, cfg, digits)
                if (n + m) % 2:
                    expected = "ZeroByParity"
                    ok = res.status == ZERO_BY_PARITY and res.value == 0
                else:
                    expected = "Divergent"
                    ok = res.status == DIVERGENT
                rows.append(_row(f"{tag}({n},{m}) status", expected, res.status,
                                 "-", ok))
    for n, m in ((0, 0), (1, 1), (2, 2), (1, 3), (0, 2)):
        p = n % 2
        a, b = (n - p) // 2, (m - p) // 2
        factor = SqrtTerm.from_exact_term(ExactTerm(Fraction(2 * (-1) ** (a + b)), 2, 0))
        phi_sums = pair_partial_sums_exact(
            NormalizedMonomial(n), NormalizedMonomial(m), 200)
        psi_sums = pair_partial_sums_exact(
            NormalizedDeltaDeriv(n), NormalizedDeltaDeriv(m), 200)
        ok = all(sp == factor * sq for sp, sq in zip(phi_sums, psi_sums))
        rows.append(_row(
            f"S_K(phi-phi {n},{m}) = 2pi(-1)^(a+b) S_K(psi-psi {n},{m}), K<=200",
            "exact", "exact" if ok else "mismatch", "0", ok))
    return rows


def _reproduce_adjoint(digits: int) -> list:
    c = OperatorExpr.letter("c")
    cdag = OperatorExpr.letter("cdag")
    x = OperatorExpr.letter("x")
    d = OperatorExpr.letter("d")
    rows = [
        _row("ddagger(c) = cdag", "cdag", operator_text(c.ddagger()), "exact",
             c.ddagger() == cdag),
        _row("ddagger(cdag) = c", "c", operator_text(cdag.ddagger()), "exact",
             cdag.ddagger() == c),
        _row("ddagger(x) = x", "x", operator_text(x.ddagger()), "exact",
             x.ddagger() == x),
        _row("ddagger(D) = -D", "-D", operator_text(d.ddagger()), "exact",
             d.ddagger() == -d),
        _row("ddagger(ddagger(c)) = c", "c", operator_text(c.ddagger().ddagger()),
             "exact", c.ddagger().ddagger() == c),
    ]
    from .distributions import L2Sample

    cfg = SummationConfig(max_terms=2000, tolerance="1e-18")
    triples = (
        ("c, delta, e_3", c, DeltaDeriv(0), L2Sample(coeffs=(0, 0, 0, 1))),
        ("x, delta, exp(1)", x, DeltaDeriv(0), ExpReal(1)),
        ("D, delta, exp(1)", d, DeltaDeriv(0), ExpReal(1)),
        ("x D, delta', exp(1/2)", x @ d, DeltaDeriv(1), ExpReal(Fraction(1, 2))),
    )
    for label, op, big, small in triples:
        rep = adjoint_check(op, big, small, cfg, digits)
        with working(digits):
            scale = max(mpf(1), abs(rep.left.value), abs(rep.right.value))
            ok = rep.difference <= mpf("1e-15") * scale
        rows.append(_row(f"adjoint identity: {label}", "sides equal",
                         _dec(rep.difference, 4), "1e-15", ok))
    return rows


_REPRODUCERS = {
    "ex1": _reproduce_ex1,
    "ex2": _reproduce_ex2,
    "ex3": _reproduce_ex3,
    "ex4": _reproduce_ex4,
    "ex5": _reproduce_ex5,
    "adjoint": _reproduce_adjoint,
}


def cmd_reproduce(args) -> int:
    settings = load_settings(args)
    t0 = time.perf_counter()
    rows = _REPRODUCERS[args.example_id](settings.digits)
    wall_ms = (time.perf_counter() - t0) * 1000
    all_pass = all(r["pass"] for r in rows)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "reproduce",
        "example_id": args.example_id,
        "digits": settings.digits,
        "rows": rows,
        "all_pass": all_pass,
        "wall_time_ms": round(wall_ms, 3),
    }
    if args.format == "json":
        payload = _json_text(report)
    elif args.format == "csv":
        payload = _csv_text(
            ["identity", "expected", "got", "tolerance", "pass"],
            [[r["identity"], r["expected"], r["got"], r["tolerance"], r["pass"]]
             for r in rows],
        )
    else:
        lines = []
        for r in rows:
            mark = "PASS" if r["pass"] else "FAIL"
            lines.append(f"{mark}  {r['identity']}  expected={r['expected']}"
                         f"  got={r['got']}  tol={r['tolerance']}")
        lines.append(f"{'all pass' if all_pass else 'FAILURES'} "
                     f"({len(rows)} rows, {report['wall_time_ms']} ms)")
        payload = "\n".join(lines)
    _emit(payload, args.out)
    return 0 if all_pass else 2


def cmd_sweep(args) -> int:
    settings = load_settings(args)
    left_maker = _FAMILIES[args.left_family]
    right_maker = _FAMILIES[args.right_family]
    n_lo, n_hi = _parse_range(args.n_range)
    m_lo, m_hi = _parse_range(args.m_range)
    total = (n_hi - n_lo + 1) * (m_hi - m_lo + 1)
    if total > settings.sweep_cap:
        raise ValueError(
            f"sweep of {total} cells exceeds the cap of {settings.sweep_cap}"
        )
    digits = settings.digits
    t0 = time.perf_counter()
    rows = []
    for n in range(n_lo, n_hi + 1):
        for m in range(m_lo, m_hi + 1):
            res = classify_and_sum(left_maker(n), right_maker(m), settings.cfg, digits)
            rows.append({
                "n": n,
                "m": m,
                "status": res.status,
                "value": _value_obj(res.value, digits),
            })
    wall_ms = (time.perf_counter() - t0) * 1000
    report = {
        "schema": SCHEMA_VERSION,
        "command": "sweep",
        "inputs": {
            "left_family": args.left_family,
            "right_family": args.right_family,
            "n_range": f"{n_lo}:{n_hi}",
            "m_range": f"{m_lo}:{m_hi}",
        },
        "config": _config_snapshot(settings),
        "rows": rows,
        "wall_time_ms": round(wall_ms, 3),
    }
    if args.format == "json":
        payload = _json_text(report)
    elif args.format == "csv":
        payload = _csv_text(
            ["n", "m", "status", "value_re", "value_im"],
            [[r["n"], r["m"], r["status"],
              r["value"]["re"] if r["value"] else "",
              r["value"]["im"] if r["value"] else ""] for r in rows],
        )
    else:
        lines = [f"{args.left_family}({{n}}) x {args.right_family}({{m}}), "
                 f"n in {n_lo}:{n_hi}, m in {m_lo}:{m_hi}"]
        for r in rows:
            val = r["value"]["re"] if r["value"] else "-"
            lines.append(f"  n={r['n']} m={r['m']}  {r['status']}  {val}")
        payload = "\n".join(lines)
    _emit(payload, args.out)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must look like A:B, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    return lo, hi


def cmd_adjoint(args) -> int:
    settings = load_settings(args)
    op = parse_operator(args.op)
    left = parse_distribution(args.left)
    right = parse_distribution(args.right)
    digits = settings.digits
    t0 = time.perf_counter()
    rep = adjoint_check(op, left, right, settings.cfg, digits)
    wall_ms = (time.perf_counter() - t0) * 1000
    report = {
        "schema": SCHEMA_VERSION,
        "command": "adjoint",
        "inputs": {
            "op": operator_text(op),
            "left": canonical_text(left),
            "right": canonical_text(right),
        },
        "config": _config_snapshot(settings),
        "left_status": rep.left.status,
        "right_status": rep.right.status,
        "left_value": _value_obj(rep.left.value, digits),
        "right_value": _value_obj(rep.right.value, digits),
        "difference": _dec(rep.difference, digits),
        "max_partial_dev": _dec(rep.max_partial_dev, digits),
        "wall_time_ms": round(wall_ms, 3),
    }
    if args.format == "json":
        payload = _json_text(report)
    elif args.format == "csv":
        payload = _csv_text(
            ["op", "left", "right", "left_status", "right_status", "difference"],
            [[report["inputs"]["op"], report["inputs"]["left"],
              report["inputs"]["right"], rep.left.status, rep.right.status,
              report["difference"]]],
        )
    else:
        payload = "\n".join([
            f"op:      {report['inputs']['op']}",
            f"left:    <{report['inputs']['op']}‡ {report['inputs']['left']}, "
            f"{report['inputs']['right']}> = {_value_text(rep.left.value, digits)}"
            f"  ({rep.left.status})",
            f"right:   <{report['inputs']['left']}, {report['inputs']['op']} "
            f"{report['inputs']['right']}> = {_value_text(rep.right.value, digits)}"
            f"  ({rep.right.status})",
            f"|diff|:  {report['difference']}",
            f"time:    {report['wall_time_ms']} ms",
        ])
    _emit(payload, args.out)
    return 0


# -- entry point -------------------------------------------------------------------


class _Parser1(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(_json_text({"error": message}) + "\n")
        raise SystemExit(1)


def _add_common(sub, fmt_default="text"):
    sub.add_argument("--digits", type=int, default=None,
                     help="result precision in decimal digits")
    sub.add_argument("--format", choices=("json", "csv", "text"), default=fmt_default)
    sub.add_argument("--out", default=None, help="also write the report here")
    sub.add_argument("--config", default=None,
                     help=f"JSON config file (default from ${CONFIG_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser1(prog="eprod",
                      description="pairings of distributions in the oscillator basis")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("compute", help="classify and evaluate one pairing")
    sub.add_argument("left")
    sub.add_argument("right")
    sub.add_argument("--terms", type=int, default=None, help="term-scan budget")
    sub.add_argument("--tol", default=None, help="summation tolerance")
    sub.add_argument("--abel-levels", type=int, default=None)
    _add_common(sub)
    sub.set_defaults(fn=cmd_compute)

    sub = subs.add_parser("coeffs", help="basis coefficients of one distribution")
    sub.add_argument("dist")
    sub.add_argument("--n-max", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(fn=cmd_coeffs)

    sub = subs.add_parser("reproduce", help="rerun a named identity table")
    sub.add_argument("example_id", choices=sorted(_REPRODUCERS))
    _add_common(sub)
    sub.set_defaults(fn=cmd_reproduce)

    sub = subs.add_parser("sweep", help="status/value matrix over index ranges")
    sub.add_argument("left_family", choices=sorted(_FAMILIES))
    sub.add_argument("right_family", choices=sorted(_FAMILIES))
    sub.add_argument("--n-range", required=True, help="inclusive A:B")
    sub.add_argument("--m-range", required=True, help="inclusive A:B")
    sub.add_argument("--terms", type=int, default=None)
    sub.add_argument("--tol", default=None)
    sub.add_argument("--abel-levels", type=int, default=None)
    _add_common(sub)
    sub.set_defaults(fn=cmd_sweep)

    sub = subs.add_parser("adjoint", help="check <X‡F, G> = <F, XG> for one triple")
    sub.add_argument("op")
    sub.add_argument("left")
    sub.add_argument("right")
    sub.add_argument("--terms", type=int, default=None)
    sub.add_argument("--tol", default=None)
    sub.add_argument("--abel-levels", type=int, default=None)
    _add_common(sub)
    sub.set_defaults(fn=cmd_adjoint)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ExprError as exc:
        sys.stderr.write(
            _json_text({"error": str(exc), "position": exc.position}) + "\n"
        )
        return 1
    except InconclusivePairingError as exc:
        sys.stderr.write(_json_text({"error": str(exc)}) + "\n")
        return 3
    except (SingularKernelError, RuntimeError) as exc:
        # internal faults: a failed closed-form cross-check, disagreeing
        # moment routes, a stalled quadrature rule, a singular kernel
        sys.stderr.write(
            _json_text({"error": str(exc), "fault": type(exc).__name__}) + "\n"
        )
        return 4
    except (ValueError, OSError) as exc:
        sys.stderr.write(_json_text({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
