"""Spans around the calls between liecheck's modules.

Each target is a function as its calling module looks it up, so patching
that module attribute records exactly the calls that cross the boundary,
for example ``fastscan.bulk_margins_scaled`` as ``_Scanner._flush`` finds
it. Spans are kept in memory and written once, at the end of the run.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter_ns


def _rows(index):
    return lambda args, kwargs, result: {"rows": len(args[index])}


def _variants(args, kwargs, result):
    return {"rows": len(args[1]), "variants": len(args[0].shift)}


def _scan(args, kwargs, result):
    return {"scanned": result["scanned"], "filtered": result["filtered"]}


def _count(args, kwargs, result):
    return {"count": result}


# (module, attribute, span name, note on the call)
TARGETS = (
    ("report_cli", "main", "report_cli.main", None),
    ("report_cli", "get_case", "cases.get_case", None),
    ("report_cli", "ambient_to_ktype", "cases.ambient_to_ktype", None),
    ("report_cli", "enumerate_usmall", "usmall.enumerate_usmall", _count),
    ("report_cli", "iter_usmall", "usmall.iter_usmall", None),
    ("report_cli", "spin_norm_sq", "spin.spin_norm_sq", None),
    ("report_cli", "parabolic_bound", "pencil.parabolic_bound", None),
    ("report_cli", "naive_bound", "pencil.naive_bound", None),
    ("report_cli", "sp4r_family", "pencil.sp4r_family", None),
    ("report_cli", "verify_box", "pencil.verify_box", None),
    ("cases", "build_case", "cases.build_case", None),
    ("cases", "validate_case", "cases.validate_case", None),
    ("usmall", "usmall_system", "usmall.usmall_system", None),
    ("fastscan", "usmall_system", "usmall.usmall_system", None),
    ("pencil", "spin_norm_sq", "spin.spin_norm_sq", None),
    ("pencil", "scan_box", "fastscan.scan_box", _scan),
    ("pencil", "to_dominant", "weyl.to_dominant", None),
    ("spin", "to_dominant", "weyl.to_dominant", None),
    ("fastscan", "build_tables", "fastscan.build_tables", None),
    ("fastscan", "bulk_margins_scaled", "fastscan.bulk_margins_scaled", _rows(1)),
    ("fastscan", "bulk_spin_sq_scaled", "fastscan.bulk_spin_sq_scaled", _variants),
    ("fastscan", "conjugate_dominant_bulk", "fastscan.conjugate_dominant_bulk", _rows(0)),
    ("fastscan", "_save_checkpoint", "fastscan.save_checkpoint", None),
)


class Tracer:
    """Records spans [id, parent, op, name, start_ns, duration_ns, note]."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.op = "setup"
        self._stack = []
        self._saved = []

    def _open(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, self.op, name, 0, 0, None]
        self.spans.append(rec)
        return rec

    def _wrap(self, name, fn, note):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One span per generator; its duration is the time spent inside
            # the generator, not the time the caller held it.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec = tracer._open(name)
                it = fn(*args, **kwargs)
                while True:
                    tracer._stack.append(rec[0])
                    t0 = perf_counter_ns()
                    rec[4] = rec[4] or t0
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec[5] += perf_counter_ns() - t0
                        tracer._stack.pop()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            tracer._stack.append(rec[0])
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4], rec[5] = t0, perf_counter_ns() - t0
                tracer._stack.pop()
            if note is not None:
                rec[6] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for mod, attr, name, note in TARGETS:
            module = self.modules[mod]
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(name, orig, note))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "name", "start_ns", "duration_ns", "note"],
                    "spans": self.spans,
                },
                fh,
            )

    def summary(self):
        """Per span name: calls, total and self seconds, summed notes."""
        child = defaultdict(int)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[5]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": defaultdict(int)})
        for rec in self.spans:
            agg = out[rec[3]]
            agg["calls"] += 1
            agg["total_s"] += rec[5] / 1e9
            agg["self_s"] += (rec[5] - child[rec[0]]) / 1e9
            for key, value in (rec[6] or {}).items():
                agg["notes"][key] += value
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, extra):
    """The per-layer metrics of the benchmark from a span summary plus the
    figures the run measured without tracing (``extra``)."""

    def self_s(name):
        return summary[name]["self_s"] if name in summary else 0.0

    def total_s(name):
        return summary[name]["total_s"] if name in summary else 0.0

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def note(name, key):
        return summary[name]["notes"].get(key, 0) if name in summary else 0

    kernel_rows = note("fastscan.bulk_margins_scaled", "rows")
    filtered = note("fastscan.scan_box", "filtered")
    sweep_calls = calls("fastscan.conjugate_dominant_bulk")
    m = {
        "cases.build_case_s": (self_s("cases.build_case"), "s"),
        "cases.validate_case_s": (self_s("cases.validate_case"), "s"),
        "usmall.usmall_system_s": (self_s("usmall.usmall_system"), "s"),
        "usmall.enumerate_usmall_s": (self_s("usmall.enumerate_usmall"), "s"),
        "usmall.counted": (note("usmall.enumerate_usmall", "count"), "count"),
        "spin.spin_norm_sq_s": (self_s("spin.spin_norm_sq"), "s"),
        "spin.spin_norm_sq_calls": (calls("spin.spin_norm_sq"), "count"),
        "weyl.to_dominant_s": (self_s("weyl.to_dominant"), "s"),
        "weyl.to_dominant_calls": (calls("weyl.to_dominant"), "count"),
        "pencil.parabolic_bound_s": (self_s("pencil.parabolic_bound"), "s"),
        "pencil.sp4r_family_s": (self_s("pencil.sp4r_family"), "s"),
        "fastscan.build_tables_s": (self_s("fastscan.build_tables"), "s"),
        "fastscan.kernel_s": (total_s("fastscan.bulk_margins_scaled"), "s"),
        "fastscan.kernel_calls": (calls("fastscan.bulk_margins_scaled"), "count"),
        "fastscan.kernel_rows": (kernel_rows, "count"),
        "fastscan.kernel_us_per_row": (
            1e6 * _ratio(total_s("fastscan.bulk_margins_scaled"), kernel_rows), "us"),
        "fastscan.sweep_s": (total_s("fastscan.conjugate_dominant_bulk"), "s"),
        "fastscan.sweep_calls": (sweep_calls, "count"),
        "fastscan.sweep_rows": (note("fastscan.conjugate_dominant_bulk", "rows"), "count"),
        "fastscan.variants_swept_ratio": (
            _ratio(sweep_calls, note("fastscan.bulk_spin_sq_scaled", "variants")), "ratio"),
        "fastscan.floor_s": (self_s("fastscan.bulk_spin_sq_scaled"), "s"),
        "fastscan.walk_s": (self_s("fastscan.scan_box"), "s"),
        "fastscan.checkpoint_s": (total_s("fastscan.save_checkpoint"), "s"),
        "fastscan.scanned": (note("fastscan.scan_box", "scanned"), "count"),
        "fastscan.filtered": (filtered, "count"),
        "fastscan.evaluated_ratio": (_ratio(kernel_rows, filtered), "ratio"),
        "report_cli.overhead_s": (self_s("report_cli.main"), "s"),
    }
    m.update(extra)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
