"""Command-line front end.

Distribution expressions come in a small mini-language:

    delta, delta^(k), x, x^n, phi(n), psi(n), exp(g), cos(w), sin(w)

combined with + and -, and scaled by exact scalars: ``2.5*``, ``1/2*``,
``i*``, ``2i*``, or a parenthesized complex one like ``(2+3i)*``.  Operator
expressions use the letters c, cdag, x, D with whitespace juxtaposition for
composition and the same scalar syntax.  ``_ATOMS`` is the one table of atoms.

Every subcommand emits a report as text, CSV, or schema-versioned JSON with
all numbers as decimal strings at the configured precision.  The config keys
are digits, sweep_cap and the fields of ``SummationConfig``, with their
defaults; a flat JSON config file (the EPROD_CONFIG environment variable
names one) overrides them, and flags override the file.  ``reproduce``
checks the rows of ``_TABLES``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple, Optional

from mpmath import mp, mpf

from .distributions import (
    CosWave,
    DeltaDeriv,
    Distribution,
    ExpReal,
    L2Sample,
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

# largest --n-max, so that input bounds the rows coeffs computes and prints
MAX_N_MAX = 10_000


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
        j = i + 1
        if ch in "+-*/^()":
            tokens.append(("sym", ch, i))
        elif ch.isdigit() or ch == ".":
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(("num", text[i:j], i))
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
        elif not ch.isspace():
            raise ExprError(f"unexpected character {ch!r}", i)
        i = j
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def advance(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression", len(self.text))
        self.k += 1
        return tok

    def at_sym(self, ch: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "sym" and tok[1] == ch

    def at_i(self) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "name" and tok[1] == "i"

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

    def sign(self) -> int:
        """A run of + and - signs, possibly empty, as +1 or -1."""
        sign = 1
        while self.at_sym("+") or self.at_sym("-"):
            if self.advance()[1] == "-":
                sign = -sign
        return sign

    def signed_rational(self) -> Fraction:
        return self.sign() * self.number()

    def integer(self) -> int:
        tok = self.advance()
        if tok[0] != "num" or "." in tok[1]:
            raise ExprError(f"expected an integer, found {tok[1]!r}", tok[2])
        return int(tok[1])

    def _scalar_part(self) -> ComplexRational:
        """[sign] ( NUM [/NUM] [i] | i )"""
        sign = self.sign()
        if self.at_i():
            self.k += 1
            return ComplexRational(Fraction(0), Fraction(sign))
        value = sign * self.number()
        if self.at_i():
            self.k += 1
            return ComplexRational(Fraction(0), value)
        return ComplexRational(value)

    def scalar_lookahead(self) -> bool:
        """Does a scalar factor start here?"""
        tok = self.peek()
        return tok is not None and (tok[0] == "num" or self.at_i() or self.at_sym("("))

    def scalar_factor(self) -> ComplexRational:
        """part, or ( part { (+|-) part } )"""
        if not self.at_sym("("):
            return self._scalar_part()
        self.k += 1
        total = self._scalar_part()
        while self.at_sym("+") or self.at_sym("-"):
            total = total + self._scalar_part()
        self.expect_sym(")")
        return total

    def terms(self, term) -> list:
        """[sign] term {(+|-) term}, calling term(self, sign) for each term."""
        sign = 1
        if self.at_sym("+") or self.at_sym("-"):
            sign = -1 if self.advance()[1] == "-" else 1
        out = []
        while True:
            out.append(term(self, sign))
            if self.done():
                return out
            tok = self.advance()
            if tok[0] != "sym" or tok[1] not in "+-":
                raise ExprError(f"expected '+' or '-', found {tok[1]!r}", tok[2])
            sign = 1 if tok[1] == "+" else -1


# The grammar's atoms: name -> (class, printed form, argument reader, the
# argument when the name stands alone).  An atom with a bare value takes its
# argument after "^" (x's parentheses are optional); the others need "(arg)".
_ATOMS = {
    "delta": (DeltaDeriv, "delta^({})", _Parser.integer, 0),
    "x": (Monomial, "x^{}", _Parser.integer, 1),
    "phi": (NormalizedMonomial, "phi({})", _Parser.integer, None),
    "psi": (NormalizedDeltaDeriv, "psi({})", _Parser.integer, None),
    "exp": (ExpReal, "exp({})", _Parser.signed_rational, None),
    "cos": (CosWave, "cos({})", _Parser.signed_rational, None),
    "sin": (SinWave, "sin({})", _Parser.signed_rational, None),
}
_ATOM_NAMES = {row[0]: name for name, row in _ATOMS.items()}
# sweep's families: the atoms with an integer index
_FAMILIES = sorted(name for name, row in _ATOMS.items() if row[2] is _Parser.integer)


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
    if tok[1] not in _ATOMS:
        raise ExprError(f"unknown symbol {tok[1]!r}", tok[2])
    cls, form, read, bare = _ATOMS[tok[1]]
    opener = form[len(tok[1]) : form.index("{")]  # "^(", "^" or "("
    if opener[0] == "^":
        if not p.at_sym("^"):
            return cls(bare)
        p.k += 1
    paren = opener[-1] == "(" or p.at_sym("(")
    if paren:
        p.expect_sym("(")
    arg = read(p)
    if paren:
        p.expect_sym(")")
    return cls(arg)


def _parse_dist_term(p: _Parser, sign: int):
    """-> (ComplexRational, Distribution)"""
    scalar = ComplexRational(Fraction(1))
    while p.scalar_lookahead():
        mark = p.k
        factor = p.scalar_factor()
        if p.at_sym("*"):
            p.k += 1
            scalar = scalar * factor
            continue
        if p.peek() is None or p.at_sym("+") or p.at_sym("-"):
            # trailing bare number: a constant term
            return scalar * factor * sign, Monomial(0)
        # not a scalar after all (e.g. plain "1" would have returned above)
        p.k = mark
        break
    return scalar * sign, _parse_dist_atom(p)


def parse_distribution(text: str) -> Distribution:
    """Parse the distribution mini-language; raises ExprError with position."""
    p = _Parser(text)
    if p.done():
        raise ExprError("empty expression", 0)
    parts = p.terms(_parse_dist_term)
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    return LinearCombo(tuple((_simplify_scalar(s), d) for s, d in parts))


# -- canonical printing --------------------------------------------------------


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


def _joined(pieces) -> str:
    """'a + b - c' from (sign, text) pieces."""
    out = ("-" if pieces[0][0] < 0 else "") + pieces[0][1]
    for sign, text in pieces[1:]:
        out += (" - " if sign < 0 else " + ") + text
    return out


def canonical_text(d: Distribution) -> str:
    """Expression text that parses back to d (grammar-expressible variants)."""
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
        return _joined(pieces)
    name = _ATOM_NAMES.get(type(d))
    if name is None:
        raise ValueError(f"{type(d).__name__} has no expression form")
    _, form, _, bare = _ATOMS[name]
    arg = getattr(d, fields(d)[0].name)
    return name if arg == bare else form.format(arg)


# -- operator mini-language ------------------------------------------------------

_OP_LETTERS = {"c": "c", "cdag": "cdag", "x": "x", "D": "d"}
_OP_NAMES = {letter: name for name, letter in _OP_LETTERS.items()}


def _parse_op_term(p: _Parser, sign: int):
    """-> (scalar, word)"""
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
    return _simplify_scalar(scalar), tuple(word)


def parse_operator(text: str) -> OperatorExpr:
    """c, cdag, x, D with juxtaposition, +/-, and complex scalars."""
    p = _Parser(text)
    if p.done():
        raise ExprError("empty operator expression", 0)
    return OperatorExpr(tuple(p.terms(_parse_op_term)))


def operator_text(expr: OperatorExpr) -> str:
    if not expr.terms:
        return "0*1"
    pieces = []
    for s, word in expr.terms:
        sign, prefix = _scalar_text(s)
        body = " ".join(_OP_NAMES[letter] for letter in word) if word else "1"
        pieces.append((sign, prefix + body))
    return _joined(pieces)


# -- configuration ---------------------------------------------------------------


@dataclass
class RunSettings:
    digits: int
    sweep_cap: int
    cfg: SummationConfig


# every config key with its default
_DEFAULTS = {
    "digits": DEFAULT_DPS,
    "sweep_cap": 128,
    **{f.name: f.default for f in fields(SummationConfig)},
}


def load_settings(args) -> RunSettings:
    values = dict(_DEFAULTS)
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
    for key in values:  # a flag's dest is the key it overrides
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    digits = check_dps(int(values["digits"]))
    # the tolerance is passed on as given, so a decimal string keeps its value
    cfg = SummationConfig(**{
        f.name: values[f.name] if f.name == "tolerance" else type(f.default)(values[f.name])
        for f in fields(SummationConfig)
    })
    return RunSettings(digits, int(values["sweep_cap"]), cfg)


def _config_snapshot(settings: RunSettings) -> dict:
    snapshot = {"digits": settings.digits}
    for f in fields(SummationConfig):
        value = getattr(settings.cfg, f.name)
        snapshot[f.name] = value if isinstance(value, int) else str(value)
    return snapshot


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


def _json_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _timed(fn, *args):
    """fn(*args), and the wall-clock milliseconds it took."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, round((time.perf_counter() - t0) * 1000, 3)


def _emit_report(args, body: dict, header: list, rows: list, lines: list, wall_ms=None):
    """Print the report in args.format (JSON: body; CSV: header and rows;
    text: lines), and write it to args.out too."""
    report = {"schema": SCHEMA_VERSION, "command": args.command, **body}
    if wall_ms is not None:
        report["wall_time_ms"] = wall_ms
    if args.format == "json":
        payload = _json_text(report)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        payload = buf.getvalue()
    else:
        payload = "\n".join(lines)
    if not payload.endswith("\n"):
        payload += "\n"
    sys.stdout.write(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)


# -- subcommands -----------------------------------------------------------------


def cmd_compute(args, settings: RunSettings) -> int:
    left = parse_distribution(args.left)
    right = parse_distribution(args.right)
    digits = settings.digits
    result, wall_ms = _timed(classify_and_sum, left, right, settings.cfg, digits)
    inputs = {"left": canonical_text(left), "right": canonical_text(right)}
    value = _value_obj(result.value, digits)
    d = _diag_obj(result.diagnostics, digits)
    lines = [
        f"left:    {inputs['left']}",
        f"right:   {inputs['right']}",
        f"status:  {result.status}",
        f"value:   {_value_text(result.value, digits)}",
        f"terms:   {result.n_terms}",
    ]
    for key in ("ratio_estimate", "raabe_estimate", "stabilization_dev"):
        if d[key] is not None:
            lines.append(f"{key.replace('_', ' ')}: {d[key]}")
    if d["abel_trace"]:
        lines.append(f"abel levels: {len(d['abel_trace'])}")
    if d["message"]:
        lines.append(f"note:    {d['message']}")
    lines.append(f"time:    {wall_ms} ms")
    cell = value or {"re": "", "im": ""}
    _emit_report(
        args,
        {
            "inputs": inputs,
            "config": _config_snapshot(settings),
            "status": result.status,
            "value": value,
            "n_terms_used": result.n_terms,
            "diagnostics": d,
        },
        ["left", "right", "status", "value_re", "value_im",
         "n_terms_used", "raabe_estimate", "wall_time_ms"],
        [[inputs["left"], inputs["right"], result.status, cell["re"], cell["im"],
          result.n_terms, d["raabe_estimate"] or "", wall_ms]],
        lines,
        wall_ms,
    )
    return 3 if result.status == INCONCLUSIVE else 0


def cmd_coeffs(args, settings: RunSettings) -> int:
    dist = parse_distribution(args.dist)
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    if args.n_max > MAX_N_MAX:
        raise ValueError(f"--n-max of {args.n_max} exceeds the cap of {MAX_N_MAX}")
    digits = settings.digits
    rows = [{"n": n, **_value_obj(coeff(dist, n, digits), digits)}
            for n in range(args.n_max + 1)]
    text = canonical_text(dist)
    width = len(str(args.n_max))
    _emit_report(
        args,
        {"input": text, "digits": digits, "coefficients": rows},
        ["n", "re", "im"],
        [[r["n"], r["re"], r["im"]] for r in rows],
        [f"coefficients of {text}"]
        + [f"  {r['n']:>{width}}  {r['re']}  {r['im']}i" for r in rows],
    )
    return 0


# -- reproduce tables --------------------------------------------------------------


class _Row(NamedTuple):
    """A reproduce row: a pairing, and the value or the status it must give."""

    label: str
    left: Distribution
    right: Distribution
    cfg: SummationConfig
    want: object  # a value (int) or a status (str)
    tol: str  # the tolerance as printed; a value must lie within it
    shown: Optional[int] = None  # digits printed of the value found
    statuses: tuple = ()  # the statuses a value may come with; () takes any


_OUTCOME_KEYS = ("identity", "expected", "got", "tolerance", "pass")


def _outcome(identity: str, expected: str, got: str, tolerance: str, ok: bool) -> dict:
    return dict(zip(_OUTCOME_KEYS, (identity, expected, got, tolerance, bool(ok))))


def _check(row: _Row, digits: int, res=None) -> dict:
    """Compare a row's pairing, classified here unless res is given, with its want."""
    res = res or classify_and_sum(row.left, row.right, row.cfg, digits)
    if isinstance(row.want, str):
        ok = res.status == row.want and (row.want != ZERO_BY_PARITY or res.value == 0)
        if row.shown is None:
            return _outcome(row.label, row.want, res.status, row.tol, ok)
        # a status row that prints its value is a ZeroByParity row
        got = f"{_value_text(res.value, row.shown)} ({res.status})"
        return _outcome(row.label, f"0 ({row.want})", got, row.tol, ok)
    with working(digits):
        err = abs(res.value - row.want) if res.value is not None else mpf("inf")
        valued = res.status in row.statuses if row.statuses else res.has_value
        ok = valued and err <= mpf(row.tol)
    return _outcome(row.label, str(row.want), _value_text(res.value, row.shown), row.tol, ok)


def _delta_delta_rows(digits: int) -> list:
    """<delta, delta> diverges, and its Raabe exponent is 1/2: one pairing, two rows."""
    row = _Row("<delta, delta> divergent", DeltaDeriv(0), DeltaDeriv(0), _EX3_CFG,
               DIVERGENT, "-")
    res = classify_and_sum(row.left, row.right, row.cfg, digits)
    raabe = res.diagnostics.raabe_estimate
    got = "-" if raabe is None else _dec(raabe, 6)
    ok = raabe is not None and mpf("0.45") <= raabe <= mpf("0.55")
    label, expected = "delta-delta Raabe exponent", "0.5 within [0.45, 0.55]"
    return [_check(row, digits, res), _outcome(label, expected, got, "0.05", ok)]


def _row_limits(digits: int) -> list:
    with working(digits):
        targets = (
            ("a", "sum of even-pair row terms", mp.pi / mp.sqrt(2), "pi/sqrt(2)"),
            ("b", "odd-pair row limit at z = -4", mp.pi / (8 * mp.sqrt(2)),
             "pi/(8 sqrt(2))"),
        )
    rows = []
    for kind, label, target, target_text in targets:
        value, ok, _levels = abel_sum(series_row_source(kind, digits), _EX5_CFG, digits)
        with working(digits):
            err = abs(value - target) if value is not None else mpf("inf")
        got = "-" if value is None else _dec(value, 21)
        rows.append(_outcome(label, target_text, got, "1e-15", ok and err <= mpf("1e-15")))
    return rows


def _proportionality_rows(digits: int) -> list:
    rows = []
    for n, m in ((0, 0), (1, 1), (2, 2), (1, 3), (0, 2)):
        p = n % 2
        a, b = (n - p) // 2, (m - p) // 2
        factor = SqrtTerm.from_exact_term(ExactTerm(Fraction(2 * (-1) ** (a + b)), 2, 0))
        phi_sums = pair_partial_sums_exact(
            NormalizedMonomial(n), NormalizedMonomial(m), 200)
        psi_sums = pair_partial_sums_exact(
            NormalizedDeltaDeriv(n), NormalizedDeltaDeriv(m), 200)
        ok = all(sp == factor * sq for sp, sq in zip(phi_sums, psi_sums))
        rows.append(_outcome(
            f"S_K(phi-phi {n},{m}) = 2pi(-1)^(a+b) S_K(psi-psi {n},{m}), K<=200",
            "exact", "exact" if ok else "mismatch", "0", ok))
    return rows


def _adjoint_rows(digits: int) -> list:
    c, cdag, x, d = (OperatorExpr.letter(name) for name in ("c", "cdag", "x", "d"))
    cases = (("c", c, cdag), ("cdag", cdag, c), ("x", x, x), ("D", d, -d),
             ("ddagger(c)", c.ddagger(), c))
    rows = [
        _outcome(f"ddagger({name}) = {operator_text(want)}", operator_text(want),
                 operator_text(op.ddagger()), "exact", op.ddagger() == want)
        for name, op, want in cases
    ]
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
        rows.append(_outcome(f"adjoint identity: {label}", "sides equal",
                             _dec(rep.difference, 4), "1e-15", ok))
    return rows


_EX1_CFG = SummationConfig(max_terms=2000, tolerance="1e-20")
_EX3_CFG = SummationConfig(max_terms=5000, tolerance="1e-16")
_EX4_CFG = SummationConfig(max_terms=2000, tolerance="1e-13")
_EX5_CFG = SummationConfig(max_terms=2000, tolerance="1e-16")

# example id -> the rows _check checks, and functions of the digits for the
# rows that check something other than one pairing
_TABLES = {
    "ex1": [
        _Row(f"<exp({g}), delta> = 1", ExpReal(g), DeltaDeriv(0), _EX1_CFG, 1, "1e-20", 21,
             (ABEL_SUMMABLE, CONVERGENT))
        for g in (Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                  Fraction(1), Fraction(-1), Fraction(2))
    ],
    "ex2": [
        _Row("<cos, delta> = 1", CosWave(1), DeltaDeriv(0), _EX1_CFG, 1, "1e-20", 21),
        _Row("<sin, delta> = 0", SinWave(1), DeltaDeriv(0), _EX1_CFG,
             ZERO_BY_PARITY, "exact", 6),
    ],
    "ex3": [
        _delta_delta_rows,
        *[_Row(f"<delta^({k}), delta^({l})> = 0", DeltaDeriv(k), DeltaDeriv(l), _EX3_CFG,
               ZERO_BY_PARITY, "exact", 6)
          for k, l in ((0, 1), (0, 3), (1, 2), (2, 3))],
        _Row("<delta', delta'> divergent", DeltaDeriv(1), DeltaDeriv(1), _EX3_CFG,
             DIVERGENT, "-"),
    ],
    "ex4": [
        *[_Row(f"<phi({n}), psi({m})> = {int(n == m)}", NormalizedMonomial(n),
               NormalizedDeltaDeriv(m), _EX4_CFG, int(n == m), "1e-12", 15)
          for n in range(7) for m in range(7)],
        _row_limits,
    ],
    "ex5": [
        *[_Row(f"{tag}({n},{m}) status", family(n), family(m), _EX5_CFG,
               ZERO_BY_PARITY if (n + m) % 2 else DIVERGENT, "-")
          for tag, family in (("phi-phi", NormalizedMonomial),
                              ("psi-psi", NormalizedDeltaDeriv))
          for n in range(4) for m in range(4)],
        _proportionality_rows,
    ],
    "adjoint": [_adjoint_rows],
}


def _reproduce(example_id: str, digits: int) -> list:
    rows = []
    for item in _TABLES[example_id]:
        rows += item(digits) if callable(item) else [_check(item, digits)]
    return rows


def cmd_reproduce(args, settings: RunSettings) -> int:
    rows, wall_ms = _timed(_reproduce, args.example_id, settings.digits)
    all_pass = all(r["pass"] for r in rows)
    lines = [
        f"{'PASS' if r['pass'] else 'FAIL'}  {r['identity']}  expected={r['expected']}"
        f"  got={r['got']}  tol={r['tolerance']}"
        for r in rows
    ]
    lines.append(f"{'all pass' if all_pass else 'FAILURES'} "
                 f"({len(rows)} rows, {wall_ms} ms)")
    _emit_report(
        args,
        {
            "example_id": args.example_id,
            "digits": settings.digits,
            "rows": rows,
            "all_pass": all_pass,
        },
        list(_OUTCOME_KEYS),
        [[r[key] for key in _OUTCOME_KEYS] for r in rows],
        lines,
        wall_ms,
    )
    return 0 if all_pass else 2


def cmd_sweep(args, settings: RunSettings) -> int:
    left_maker = _ATOMS[args.left_family][0]
    right_maker = _ATOMS[args.right_family][0]
    n_lo, n_hi = _parse_range(args.n_range)
    m_lo, m_hi = _parse_range(args.m_range)
    total = (n_hi - n_lo + 1) * (m_hi - m_lo + 1)
    if total > settings.sweep_cap:
        raise ValueError(
            f"sweep of {total} cells exceeds the cap of {settings.sweep_cap}"
        )
    digits = settings.digits

    def cell(n, m):
        res = classify_and_sum(left_maker(n), right_maker(m), settings.cfg, digits)
        return {
            "n": n,
            "m": m,
            "status": res.status,
            "value": _value_obj(res.value, digits),
        }

    rows, wall_ms = _timed(lambda: [cell(n, m) for n in range(n_lo, n_hi + 1)
                                    for m in range(m_lo, m_hi + 1)])
    lines = [f"{args.left_family}({{n}}) x {args.right_family}({{m}}), "
             f"n in {n_lo}:{n_hi}, m in {m_lo}:{m_hi}"]
    for r in rows:
        val = r["value"]["re"] if r["value"] else "-"
        lines.append(f"  n={r['n']} m={r['m']}  {r['status']}  {val}")
    _emit_report(
        args,
        {
            "inputs": {
                "left_family": args.left_family,
                "right_family": args.right_family,
                "n_range": f"{n_lo}:{n_hi}",
                "m_range": f"{m_lo}:{m_hi}",
            },
            "config": _config_snapshot(settings),
            "rows": rows,
        },
        ["n", "m", "status", "value_re", "value_im"],
        [[r["n"], r["m"], r["status"],
          r["value"]["re"] if r["value"] else "",
          r["value"]["im"] if r["value"] else ""] for r in rows],
        lines,
        wall_ms,
    )
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must look like A:B, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    return lo, hi


def cmd_adjoint(args, settings: RunSettings) -> int:
    op = parse_operator(args.op)
    left = parse_distribution(args.left)
    right = parse_distribution(args.right)
    digits = settings.digits
    rep, wall_ms = _timed(adjoint_check, op, left, right, settings.cfg, digits)
    inputs = {
        "op": operator_text(op),
        "left": canonical_text(left),
        "right": canonical_text(right),
    }
    difference = _dec(rep.difference, digits)
    _emit_report(
        args,
        {
            "inputs": inputs,
            "config": _config_snapshot(settings),
            "left_status": rep.left.status,
            "right_status": rep.right.status,
            "left_value": _value_obj(rep.left.value, digits),
            "right_value": _value_obj(rep.right.value, digits),
            "difference": difference,
            "max_partial_dev": _dec(rep.max_partial_dev, digits),
        },
        ["op", "left", "right", "left_status", "right_status", "difference"],
        [[inputs["op"], inputs["left"], inputs["right"], rep.left.status,
          rep.right.status, difference]],
        [
            f"op:      {inputs['op']}",
            f"left:    <{inputs['op']}‡ {inputs['left']}, {inputs['right']}> = "
            f"{_value_text(rep.left.value, digits)}  ({rep.left.status})",
            f"right:   <{inputs['left']}, {inputs['op']} {inputs['right']}> = "
            f"{_value_text(rep.right.value, digits)}  ({rep.right.status})",
            f"|diff|:  {difference}",
            f"time:    {wall_ms} ms",
        ],
        wall_ms,
    )
    return 0


# -- entry point -------------------------------------------------------------------


def _error(message, code: int, **extra) -> int:
    """Print an error report on standard error; return the exit code."""
    sys.stderr.write(_json_text({"error": str(message), **extra}) + "\n")
    return code


class _Parser1(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(_error(message, 1))


# flag -> (the config key it overrides, type, help)
_SUMMATION_FLAGS = {
    "--terms": ("max_terms", int, "term-scan budget"),
    "--tol": ("tolerance", str, "summation tolerance"),
    "--abel-levels": ("abel_levels", int, None),
}


def _add_common(sub, fn, summation: bool = False):
    if summation:
        for flag, (key, kind, text) in _SUMMATION_FLAGS.items():
            sub.add_argument(flag, dest=key, type=kind, default=None, help=text,
                             metavar=flag[2:].upper().replace("-", "_"))
    sub.add_argument("--digits", type=int, default=None,
                     help="result precision in decimal digits")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.add_argument("--out", default=None, help="also write the report here")
    sub.add_argument("--config", default=None,
                     help=f"JSON config file (default from ${CONFIG_ENV})")
    sub.set_defaults(fn=fn)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser1(prog="eprod",
                      description="pairings of distributions in the oscillator basis")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("compute", help="classify and evaluate one pairing")
    sub.add_argument("left")
    sub.add_argument("right")
    _add_common(sub, cmd_compute, summation=True)

    sub = subs.add_parser("coeffs", help="basis coefficients of one distribution")
    sub.add_argument("dist")
    sub.add_argument("--n-max", type=int, required=True)
    _add_common(sub, cmd_coeffs)

    sub = subs.add_parser("reproduce", help="rerun a named identity table")
    sub.add_argument("example_id", choices=sorted(_TABLES))
    _add_common(sub, cmd_reproduce)

    sub = subs.add_parser("sweep", help="status/value matrix over index ranges")
    sub.add_argument("left_family", choices=_FAMILIES)
    sub.add_argument("right_family", choices=_FAMILIES)
    sub.add_argument("--n-range", required=True, help="inclusive A:B")
    sub.add_argument("--m-range", required=True, help="inclusive A:B")
    _add_common(sub, cmd_sweep, summation=True)

    sub = subs.add_parser("adjoint", help="check <X‡F, G> = <F, XG> for one triple")
    sub.add_argument("op")
    sub.add_argument("left")
    sub.add_argument("right")
    _add_common(sub, cmd_adjoint, summation=True)

    return parser


# exit code when the reader of standard output goes away (128 + SIGPIPE)
EXIT_BROKEN_PIPE = 141


def _discard_stdout():
    """Point standard output at devnull, so that the flush at interpreter
    exit does not hit the closed pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor: nothing is left to flush
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args, load_settings(args))
        sys.stdout.flush()  # a closed pipe may only show on the flush
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except ExprError as exc:
        return _error(exc, 1, position=exc.position)
    except InconclusivePairingError as exc:
        return _error(exc, 3)
    except (SingularKernelError, RuntimeError) as exc:
        # internal faults: a failed closed-form cross-check, disagreeing
        # moment routes, a stalled quadrature rule, a singular kernel
        return _error(exc, 4, fault=type(exc).__name__)
    except (ValueError, OSError) as exc:
        return _error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
