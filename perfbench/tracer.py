"""Span tracing of the package's layers from outside ``src/``.

Every public function of each layer module is wrapped, and the wrapper
is bound under every name that held the original in any ``tracecodes``
namespace (``cli``, ``codes`` and ``verification`` bind ``make_field``
at import, ``__init__`` re-exports most names).  A span records its
name, start, end and parent; spans stay in memory until the run ends.

Spans and counts inside pool workers are not collected: the workers of
``codes.exhaustive_cwe`` and ``cli.cmd_sweep`` run in other processes,
so their time shows only as the self time of the span that waits for
them.
"""

from __future__ import annotations

import inspect
import os
import sys

LAYERS = ("fields", "codes", "closedform", "charsums", "verification", "report", "cli")

# cli.main is the root the benchmark times itself; build_parser is set-up.
# Scalar helpers called once per element or per term are left unwrapped:
# a span each would double their cost, so their time counts in the caller.
_UNWRAPPED = {"cli.main", "cli.build_parser", "fields.legendre", "fields.is_prime",
              "closedform.gauss_int", "closedform.gauss_pair_int",
              "closedform.predicted_length", "closedform.trace_pair_count_closed",
              "charsums.quadratic_gauss_sum"}
_EXTRA = {"cli._resolve_workers"}  # private, but it is where workers are resolved

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _targets():
    """(span name, function) of every function to wrap."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"tracecodes.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if (attr.startswith("_") and name not in _EXTRA) or name in _UNWRAPPED:
                continue
            out.append((name, obj))
    return out


def _rebind(replacements: dict) -> list:
    """Bind replacements[id(original)] wherever a tracecodes namespace
    holds the original; return the undo list."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "tracecodes" and not modname.startswith("tracecodes."):
            continue
        for attr, obj in list(vars(mod).items()):
            new = replacements.get(id(obj))
            if new is not None and new[0] is obj:
                setattr(mod, attr, new[1])
                undo.append((mod, attr, obj))
    return undo


def _restore(undo: list) -> None:
    for target, attr, obj in reversed(undo):
        setattr(target, attr, obj)


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, clock):
        self.clock = clock
        # [name, start, end, parent index, observed dict or None]
        self.spans: list[list] = []
        self.parallel_calls: list[tuple] = []  # (ctx, dset, budget, span index)
        self._stack: list[int] = []
        self._undo: list = []

    def _observe(self, name, fn, args, kwargs, result, pre, idx):
        if name == "fields.make_field":
            return {"elements": result.r, "rss_delta_mb": rss_mb() - pre}
        if name == "codes.build_defining_set":
            return {"n": len(result)}
        if name == "codes.exhaustive_cwe":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            ctx, dset, workers = a["ctx"], a["dset"], a["workers"]
            if workers > 1:
                self.parallel_calls.append((ctx, dset, a["budget"], idx))
            return {"symbol_evals": ctx.r * len(dset), "workers": workers,
                    "distinct": len(result.terms), "codewords": result.total()}
        if name == "report.render_json":
            return {"bytes": len(result.encode())}
        if name == "cli._resolve_workers":
            return {"workers": result}
        return None

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        measure_rss = name == "fields.make_field"

        def wrapper(*args, **kwargs):
            pre = rss_mb() if measure_rss else None
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[4] = self._observe(name, fn, args, kwargs, result, pre, idx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self._undo = _rebind({id(fn): (fn, self._wrap(name, fn))
                              for name, fn in _targets()})

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []


def count_field_ops(run) -> dict:
    """Run ``run()`` with FieldContext.add and .mul counted.  This is a
    separate pass because counting every call would inflate span times."""
    fields = sys.modules["tracecodes.fields"]
    cls = fields.FieldContext
    counts = {"add": 0, "mul": 0}
    originals = {op: getattr(cls, op) for op in counts}

    def counting(op, fn):
        def wrapper(*args):
            counts[op] += 1
            return fn(*args)
        return wrapper

    try:
        for op, fn in originals.items():
            setattr(cls, op, counting(op, fn))
        run()
    finally:
        for op, fn in originals.items():
            setattr(cls, op, fn)
    return counts


def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct children."""
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose in-process wall was ``wall``."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s, st in zip(spans, selfs):
        agg = by_name.setdefault(s[0], [0.0, 0, []])
        agg[0] += st
        agg[1] += 1
        if s[4] is not None:
            agg[2].append(s[4])

    def self_s(name):
        return by_name.get(name, (0.0,))[0]

    def calls(name):
        return by_name.get(name, (0, 0))[1]

    def observed(name, key):
        return [o[key] for o in by_name.get(name, (0, 0, []))[2]]

    out: dict[str, float] = {}
    for name in ("fields.make_field", "codes.build_defining_set", "codes.exhaustive_cwe",
                 "codes.scaled_defining_set_equivalent", "codes.trace_pair_table",
                 "closedform.prediction", "closedform.symbol_count_closed",
                 "charsums.gauss_sum_direct", "charsums.quadratic_exponential_sum",
                 "charsums.cyclotomic_number_direct", "report.code_document",
                 "report.render_json"):
        out[f"{name}.s"] = self_s(name)
    for check in ("verify_gauss_sums", "verify_quadratic_sums", "verify_cyclotomic_numbers",
                  "verify_counts", "verify_cwe", "verify_griesmer", "verify_equivalence"):
        out[f"verification.{check}.s"] = self_s(f"verification.{check}")
    for name in ("fields.make_field", "codes.exhaustive_cwe", "closedform.prediction",
                 "closedform.symbol_count_closed", "charsums.quadratic_exponential_sum"):
        out[f"{name}.calls"] = calls(name)

    out["fields.make_field.elements"] = sum(observed("fields.make_field", "elements"))
    out["fields.make_field.rss_delta_mb"] = max(
        observed("fields.make_field", "rss_delta_mb"), default=0.0)
    out["codes.defining_set.n"] = sum(observed("codes.build_defining_set", "n"))
    out["codes.exhaustive_cwe.symbol_evals"] = sum(
        observed("codes.exhaustive_cwe", "symbol_evals"))
    out["codes.exhaustive_cwe.workers"] = max(
        observed("codes.exhaustive_cwe", "workers"), default=0)
    codewords = sum(observed("codes.exhaustive_cwe", "codewords"))
    out["codes.exhaustive_cwe.distinct_ratio"] = (
        sum(observed("codes.exhaustive_cwe", "distinct")) / codewords if codewords else 0.0)
    out["report.bytes"] = sum(observed("report.render_json", "bytes"))
    out["cli.workers_resolved"] = max(observed("cli._resolve_workers", "workers"), default=0)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, st in zip(spans, selfs):
        layer_self[s[0].split(".", 1)[0]] += st
    for layer, total in layer_self.items():
        out[f"{layer}.self_s"] = total
    out["verification.checks_s"] = sum(
        s[2] - s[1] for s in spans if s[0].startswith("verification.verify_")
        and (s[3] < 0 or not spans[s[3]][0].startswith("verification.")))
    out["trace.wall_s"] = wall
    out["trace.coverage"] = sum(layer_self.values()) / wall if wall > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out
