"""Spans around the eulerprod layers, recorded from outside the package.

Tracer.install() replaces each instrumented public function, in every
module namespace of the package that binds it, with a wrapper that
records a span (name, start, end, parent, group).  Because the modules
call each other through those namespaces, the spans sit at the layer
boundaries: sweep -> coeffs_by_recurrence -> g_table, pipeline ->
max_product, and so on.  A span's self time is its duration minus the
time covered by its child spans.  Small helpers (member, divisors,
support_view, ...) are not instrumented; their time stays with the
layer that calls them.

Counts (multiply-adds, DP calls, mechanisms, ...) are taken from each
call's arguments and result inside a `trace.count` span, so the time
spent counting is excluded from every layer's self time.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

LAYERS = ("model", "qseries", "maxprod", "classify", "harness", "suites", "cli")
SUITES = ("oracles", "maxprod", "lemmas", "q-tables", "theorems", "figure1", "examples")
MECHANISMS = ("q-criterion", "a-criterion", "theorem-table", "s13-identity", "delta-branch", "none")

# (defining module, function) -> span name
SPANS = {
    ("model", "exceptions_from_spec"): "model.parse",
    ("model", "weight_from_spec"): "model.parse",
    ("qseries", "g_table"): "qseries.g_table",
    ("qseries", "coeffs_by_recurrence"): "qseries.recurrence",
    ("qseries", "coeffs_by_product"): "qseries.product",
    ("qseries", "delta"): "qseries.delta",
    ("qseries", "check_g_bounds"): "qseries.g_bounds",
    ("maxprod", "max_product"): "maxprod.max_product",
    ("maxprod", "max_product_values"): "maxprod.values",
    ("maxprod", "max_product_bruteforce"): "maxprod.bruteforce",
    ("maxprod", "closed_form_max"): "maxprod.closed_form",
    ("classify", "classify_pipeline"): "classify.pipeline",
    ("classify", "classify_refined"): "classify.refined",
    ("classify", "q_value"): "classify.q_value",
    ("harness", "sweep"): "harness.sweep",
    ("harness", "_sign_row"): "harness.sweep.row",
    ("harness", "stabilization"): "harness.stabilization",
    ("harness", "default_predictions"): "harness.default_predictions",
    ("harness", "emit_grid"): "harness.emit_grid",
    ("suites", "verify_suite"): "suites.verify",
    ("cli", "main"): "cli.main",
}
# called inside their own module by the pipeline, whose self time they belong to;
# they get spans only where another layer calls them (the q-tables and theorems suites)
OWN_MODULE_UNTRACED = {("classify", "q_value"), ("classify", "classify_refined")}
# one span per grid row, classified column or suite; their subtrees share its id
GROUP_SPANS = {"harness.sweep.row", "classify.pipeline", "suites.verify"}
COUNT_SPAN = "trace.count"

# per-pass metrics that must repeat exactly from pass to pass and run to run
COUNT_UNITS = {
    "model.parse.calls": "count",
    "qseries.recurrence.calls": "count",
    "qseries.recurrence.terms": "count",
    "qseries.recurrence.word_products": "computed_words2",
    "qseries.recurrence.max_bits": "bits",
    "qseries.g_table.calls": "count",
    "qseries.product.calls": "count",
    "harness.sweep.rows": "count",
    "harness.sweep.cells": "count",
    "harness.emit_grid.bytes": "bytes",
    "maxprod.max_product.calls": "count",
    "maxprod.max_product.distinct": "count",
    "maxprod.max_product.useful_ratio": "ratio",
    "maxprod.max_product.maximizers": "count",
    "maxprod.values.calls": "count",
    "maxprod.values.cells": "count",
    "maxprod.bruteforce.calls": "count",
    "classify.pipeline.calls": "count",
    **{f"classify.mechanism.{m}": "count" for m in MECHANISMS},
    "suites.checks.passed": "count",
    "suites.checks.failed": "count",
    "trace.spans": "count",
}
# per-pass times, reported as the median over the traced passes
SELF_TIMES = ("model.parse", "qseries.recurrence", "qseries.g_table", "qseries.product",
              "harness.stabilization", "harness.default_predictions", "harness.emit_grid",
              "maxprod.max_product", "maxprod.values", "maxprod.bruteforce",
              "classify.pipeline", "cli.main")
TIME_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    "harness.sweep.self_s": "s",
    "harness.sweep.row_sum_s": "s",
    **{f"suites.{s}.s": "s" for s in SUITES},
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.bookkeeping_s": "s",
    "trace.unattributed_s": "s",
}


def words(x: int) -> int:
    """64-bit words a multiplication reads for one factor."""
    return (x.bit_length() + 63) // 64 or 1


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest of the 99.9/99/95/90/75/50th percentiles with at least 10 samples beyond it.

    Returns (percentile, value), or (0, 0) when fewer than 11 samples exist.
    """
    ordered = sorted(samples)
    k = len(ordered)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = max(1, -(-int(pct * 10) * k // 1000))  # nearest rank, ceil(pct/100 * k)
        if k - rank >= 10:
            return pct, ordered[rank - 1]
    return 0, 0.0


class Tracer:
    """Installs span wrappers into the package and collects one pass at a time."""

    def __init__(self, ep):
        self.ep = ep
        self._originals = {(mod, fn): getattr(getattr(ep, mod), fn) for mod, fn in SPANS}
        self._g_table = self._originals["qseries", "g_table"]
        self._hooks = {
            "qseries.recurrence": self._count_recurrence,
            "harness.sweep.row": self._count_row,
            "harness.emit_grid": self._count_emit,
            "maxprod.max_product": self._count_max_product,
            "maxprod.values": self._count_values,
            "classify.pipeline": self._count_pipeline,
            "suites.verify": self._count_suite,
        }
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.spans: list[list] = []  # [id, parent, group, name, start, end]
        self._pass_start = 0
        self._reset_counts()

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        # the originals stay referenced by self._originals, so their ids are stable
        keys = {id(fn): key for key, fn in self._originals.items()}
        for module in [self.ep] + [getattr(self.ep, layer) for layer in LAYERS]:
            for attr, value in list(vars(module).items()):
                key = keys.get(id(value))
                if key is None:
                    continue
                if key in OWN_MODULE_UNTRACED and module.__name__ == f"{self.ep.__name__}.{key[0]}":
                    continue
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrap(SPANS[key], value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                counting = self._open(COUNT_SPAN)
                try:
                    hook(args, result, span[5] - span[4])
                finally:
                    self._close(counting)
            return result

        return traced

    def _open(self, name: str) -> list:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        group = sid if name in GROUP_SPANS else (parent[2] if parent else None)
        span = [sid, parent[0] if parent else None, group, name, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    # -- counting -----------------------------------------------------------

    def _reset_counts(self) -> None:
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.dp_keys: set = set()
        self.suite_seconds: dict[str, float] = defaultdict(float)

    def _count_recurrence(self, args, table, seconds) -> None:
        N = table.horizon
        self.counts["qseries.recurrence.terms"] += N * (N + 1) // 2
        self.max_bits = max(self.max_bits, max(c.bit_length() for c in table.coeffs))
        if N < 1:
            return
        g = self._g_table(table.exceptions, table.weights, table.ell, N).values
        # term (n, k) multiplies g[k] by p[n - k]; for fixed k, n - k runs over 0..N - k
        prefix = [0]
        for c in table.coeffs:
            prefix.append(prefix[-1] + words(c))
        self.counts["qseries.recurrence.word_products"] += sum(
            words(g[k]) * prefix[N - k + 1] for k in range(1, N + 1))

    def _count_row(self, args, result, seconds) -> None:
        self.counts["harness.sweep.cells"] += len(result[1])

    def _count_emit(self, args, result, seconds) -> None:
        self.counts["harness.emit_grid.bytes"] += os.path.getsize(args[1])

    def _count_max_product(self, args, report, seconds) -> None:
        self.dp_keys.add((args[0], report.n))
        self.counts["maxprod.max_product.maximizers"] += len(report.maximizers)

    def _count_values(self, args, values, seconds) -> None:
        self.counts["maxprod.values.cells"] += len(values)

    def _count_pipeline(self, args, prediction, seconds) -> None:
        self.counts[f"classify.mechanism.{prediction.mechanism}"] += 1

    def _count_suite(self, args, report, seconds) -> None:
        self.suite_seconds[args[0]] += seconds
        for check in report.checks:
            self.counts["suites.checks.passed" if check.passed else "suites.checks.failed"] += 1

    # -- one traced pass ----------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self._reset_counts()

    def end_pass(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since begin_pass()."""
        spans = self.spans[self._pass_start:]
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_time: dict[str, float] = defaultdict(float)
        roots = 0.0
        for sid, parent, _, name, start, end in spans:
            calls[name] += 1
            self_time[name] += end - start - covered[sid]
            if parent is None:
                roots += end - start

        m: dict[str, float] = {name: calls[name.removesuffix(".calls")] if name.endswith(".calls")
                               else self.counts[name] for name in COUNT_UNITS}
        m["qseries.recurrence.max_bits"] = self.max_bits
        m["harness.sweep.rows"] = calls["harness.sweep.row"]
        m["maxprod.max_product.distinct"] = len(self.dp_keys)
        dp_calls = calls["maxprod.max_product"]
        m["maxprod.max_product.useful_ratio"] = len(self.dp_keys) / dp_calls if dp_calls else 0.0
        m["trace.spans"] = len(spans)

        for name in SELF_TIMES:
            m[f"{name}.self_s"] = self_time[name]
        m["harness.sweep.self_s"] = self_time["harness.sweep"] + self_time["harness.sweep.row"]
        m["harness.sweep.row_sum_s"] = sum(end - start for _, _, _, name, start, end in spans
                                           if name == "harness.sweep.row")
        for suite in SUITES:
            m[f"suites.{suite}.s"] = self.suite_seconds[suite]
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = sum(t for name, t in self_time.items()
                                             if name.split(".")[0] == layer)
        m["trace.bookkeeping_s"] = self_time[COUNT_SPAN]
        m["trace.unattributed_s"] = wall - roots
        return m

    def durations(self, name: str) -> list[float]:
        """Durations of every span of one name recorded so far, over all passes."""
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tgroup\tname\tstart_s\tend_s\n")
            for sid, parent, group, name, start, end in self.spans:
                handle.write(f"{sid}\t{'' if parent is None else parent}\t"
                             f"{'' if group is None else group}\t{name}\t{start:.9f}\t{end:.9f}\n")
