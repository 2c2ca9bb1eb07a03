"""Span tracing of eprod from outside the package.

``install`` wraps the public functions (each module's ``__all__``) of the
eprod modules and rebinds every module-level reference to them, so calls
between modules pass through the wrappers too.  A few class-level hooks add
the counters that no public function exposes: series terms computed by a
``TermSource``, coefficient-stream extensions and stream-cache hits, the
exact 2F1 rows, and each evaluation of a sequence ``apply_operator`` returns.

Each span has a name, a parent, a start and an end.  Aggregates (calls,
inclusive and self time) are kept for every span; the spans themselves are
kept in compact arrays up to a cap and written out at the end of the run.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

__all__ = ["Tracer", "install", "layer_metrics", "PER_LAYER"]

_clock = time.perf_counter

# modules whose public functions are wrapped; eprod.exact holds only scalar
# classes and eprod.precision has no public interface (__all__)
MODULES = (
    "cli",
    "distributions",
    "eproduct",
    "extrapolate",
    "hermite",
    "operators",
    "quadrature",
    "special",
)


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.origin = _clock()

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str):
        frame = [self._next_id, name, _clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame):
        end = _clock()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.span_id) < self.span_cap:
            self.span_id.append(span_id)
            self.span_parent.append(parent)
            self.span_name.append(self._name_id(name))
            self.span_start.append(start - self.origin)
            self.span_end.append(end - self.origin)
        else:
            self.dropped += 1

    def wrap(self, fn, name: str, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def dump(self, path, extra: dict):
        spans = [
            {
                "id": self.span_id[i],
                "parent": self.span_parent[i],
                "name": self.names[self.span_name[i]],
                "start": self.span_start[i],
                "end": self.span_end[i],
            }
            for i in range(len(self.span_id))
        ]
        payload = dict(extra)
        payload.update(
            spans=spans,
            spans_dropped=self.dropped,
            aggregates={
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            counters=dict(sorted(self.counters.items())),
        )
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _public_functions(module):
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        # plain functions and functools.lru_cache wrappers around them
        if inspect.isfunction(obj) or inspect.isfunction(getattr(obj, "__wrapped__", None)):
            yield name, obj


def install(tracer: Tracer):
    """Wrap eprod's public functions and hook the counted classes."""
    import importlib

    import eprod

    modules = {short: importlib.import_module(f"eprod.{short}") for short in MODULES}
    hooks = _return_hooks(tracer)
    replacement = {}
    for short, module in modules.items():
        for name, fn in _public_functions(module):
            label = f"{short}.{name}"
            replacement[id(fn)] = (fn, tracer.wrap(fn, label, hooks.get(label)))
    for module in [eprod, *modules.values()]:
        for attr, value in list(vars(module).items()):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    _hook_classes(tracer, eprod, modules)


def _return_hooks(tracer: Tracer):
    def abel_levels(result):
        tracer.count("eproduct.abel_levels", len(result[2]))

    def scanned(result):
        tracer.count("eproduct.terms_scanned", result.n_terms)

    return {
        "eproduct.abel_sum": abel_levels,
        "eproduct.classify_series": scanned,
    }


def _hook_classes(tracer: Tracer, eprod, modules):
    eproduct = modules["eproduct"]
    distributions = modules["distributions"]
    special = modules["special"]
    operators = modules["operators"]

    # series terms computed by any TermSource (memo misses)
    source_init = eproduct.TermSource.__init__

    def counted_source_init(self, fetch, *args, **kwargs):
        def counted_fetch(j):
            tracer.count("eproduct.term_calls")
            return fetch(j)

        source_init(self, counted_fetch, *args, **kwargs)

    eproduct.TermSource.__init__ = counted_source_init

    # coefficient streams: constructions, extensions (spans) and cache hits
    seq_cls = distributions.CoeffSequence
    seq_init = seq_cls.__init__
    seq_call = seq_cls.__call__
    built = [0]

    def counted_seq_init(self, *args, **kwargs):
        seq_init(self, *args, **kwargs)
        built[0] += 1
        self._bench_serial = built[0]
        tracer.count("distributions.streams_built")

    def traced_seq_call(self, n):
        if n >= len(self._values) and (self.support is None or n < self.support):
            frame = tracer.open("distributions.CoeffSequence.extend")
            try:
                return seq_call(self, n)
            finally:
                tracer.close(frame)
        return seq_call(self, n)

    seq_cls.__init__ = counted_seq_init
    seq_cls.__call__ = traced_seq_call

    coeff_sequence = distributions.coeff_sequence  # already the traced wrapper

    def counted_coeff_sequence(d, *args, **kwargs):
        before = built[0]
        seq = coeff_sequence(d, *args, **kwargs)
        tracer.count("distributions.stream_lookups")
        if getattr(seq, "_bench_serial", 0) <= before:
            tracer.count("distributions.stream_hits")
        return seq

    for module in [eprod, *modules.values()]:
        if getattr(module, "coeff_sequence", None) is coeff_sequence:
            module.coeff_sequence = counted_coeff_sequence

    # exact terminating 2F1 rows
    row_cls = special.Terminating2F1Sequence
    for method in ("__init__", "signed_polynomial", "fraction", "newton_coefficients"):
        fn = getattr(row_cls, method)
        setattr(row_cls, method, tracer.wrap(fn, f"special.Terminating2F1Sequence.{method}"))

    # apply_operator returns the sequence n -> (X s)_n; its evaluations are
    # the operator work, so each one is an "operators.apply" span
    apply_operator = operators.apply_operator  # already the traced wrapper

    def traced_apply_operator(*args, **kwargs):
        return tracer.wrap(apply_operator(*args, **kwargs), "operators.apply")

    for module in [eprod, *modules.values()]:
        if getattr(module, "apply_operator", None) is apply_operator:
            module.apply_operator = traced_apply_operator


# -- per-layer metrics ---------------------------------------------------------------

# (name, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("eproduct.abel_s", "s"),
    ("eproduct.term_calls", "count"),
    ("special.row_s", "s"),
    ("eproduct.pair_partial_sums_exact_s", "s"),
    ("hermite.kernel_calls", "count"),
    ("hermite.kernel_s", "s"),
    ("operators.adjoint_s", "s"),
    ("operators.apply_calls", "count"),
    ("operators.apply_s", "s"),
    ("distributions.coeff_s", "s"),
    ("distributions.streams_built", "count"),
    ("distributions.stream_hit_ratio", "ratio"),
    ("eproduct.classify_s", "s"),
    ("eproduct.abel_levels", "count"),
    ("eproduct.terms_scanned", "count"),
    ("extrapolate.calls", "count"),
    ("extrapolate.s", "s"),
    ("quadrature.rule_s", "s"),
    ("quadrature.projection_calls", "count"),
    ("quadrature.projection_s", "s"),
    ("cli.parse_s", "s"),
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of everything traced so far."""
    calls, total, own, ctr = tracer.calls, tracer.total, tracer.self_time, tracer.counters

    def self_of(*names):
        return sum(own.get(n, 0.0) for n in names)

    def self_prefix(prefix):
        return sum(v for n, v in own.items() if n.startswith(prefix))

    lookups = ctr.get("distributions.stream_lookups", 0)
    values = {
        "eproduct.abel_s": self_of("eproduct.abel_sum"),
        "eproduct.term_calls": ctr.get("eproduct.term_calls", 0),
        "special.row_s": self_prefix("special."),
        "eproduct.pair_partial_sums_exact_s": total.get("eproduct.pair_partial_sums_exact", 0.0),
        "hermite.kernel_calls": calls.get("hermite.eigenfunction_kernel", 0),
        "hermite.kernel_s": total.get("hermite.eigenfunction_kernel", 0.0),
        "operators.adjoint_s": self_of("operators.adjoint_check"),
        "operators.apply_calls": calls.get("operators.apply", 0),
        "operators.apply_s": self_of("operators.apply", "operators.apply_operator"),
        "distributions.coeff_s": self_prefix("distributions."),
        "distributions.streams_built": ctr.get("distributions.streams_built", 0),
        "eproduct.classify_s": self_of("eproduct.classify_series", "eproduct.classify_and_sum"),
        "eproduct.abel_levels": ctr.get("eproduct.abel_levels", 0),
        "eproduct.terms_scanned": ctr.get("eproduct.terms_scanned", 0),
        "extrapolate.calls": calls.get("extrapolate.richardson_dyadic", 0)
        + calls.get("extrapolate.wynn_epsilon", 0),
        "extrapolate.s": self_prefix("extrapolate."),
        "quadrature.rule_s": total.get("quadrature.gauss_hermite_rule", 0.0),
        "quadrature.projection_calls": calls.get("quadrature.basis_projection", 0),
        "quadrature.projection_s": self_of("quadrature.basis_projection", "quadrature.basis_rows"),
    }
    values["distributions.stream_hit_ratio"] = (
        ctr.get("distributions.stream_hits", 0) / lookups if lookups else 0.0
    )
    values["cli.parse_s"] = self_of("cli.parse_distribution", "cli.parse_operator")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
