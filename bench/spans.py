"""Span tracer that wraps outagekit's public functions from outside the package.

A layer is one outagekit module. ``Tracer.install`` replaces every public
function of every layer with a wrapper, in the defining module and in every
outagekit module that imported the function by name, so calls made through
another module's global (``local_hypotheses`` in ``detector``,
``branch_decompose`` in ``placement``) are seen too. Each wrapper records a
span (id, parent span, operation id, name, start, end) and a call count,
counts exceptions raised through it as ``<name>.raised``, and counts calls per
binding module as ``via.<module>.<function>``.

Self time is a span's duration minus the time its child spans cover. Calls
are nested and single-threaded, so that is the duration minus the sum of the
child durations, accumulated as each span closes.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("network", "hypotheses", "detector", "errors", "placement", "sim", "cli")

# Called once per hypothesis or per area, millions of times in one run: a
# span each would cost more than the work it measures, so these stay unwrapped.
UNWRAPPED = frozenset({"hypothesis_sort_key", "hypothesis_stats", "effective_measurement"})

# Work counts taken from arguments or results: span name -> (counter, amount).
WORK_COUNTERS = {
    "hypotheses.enumerate_unique": ("hyps_out", lambda args, result: len(result)),
    "hypotheses.local_hypotheses": ("hyps_out", lambda args, result: len(result)),
    "errors.all_missed_detection": ("hyps_in", lambda args, result: len(args[0])),
}


class Tracer:
    """Collects spans and per-function aggregates while installed."""

    def __init__(self, package: str = "outagekit"):
        self.package = package
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.via: Counter = Counter()
        self.work: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.operations: list[tuple[int, str]] = []
        self.op_id = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def operation(self, label: str):
        """Give the spans of one benchmark operation a shared id."""
        self.op_id = len(self.operations) + 1
        self.operations.append((self.op_id, label))
        try:
            yield
        finally:
            self.op_id = 0

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and attr not in UNWRAPPED:
                    targets[fn] = f"{layer}.{attr}"
        prefix = self.package + "."
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(prefix):
                continue
            binding = modname.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    setattr(mod, attr, self._wrap(value, targets[value], binding))
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    def _wrap(self, fn, name: str, binding: str):
        tracer = self
        via = f"via.{binding}.{fn.__name__}"
        work = WORK_COUNTERS.get(name)

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            tracer.via[via] += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_span += 1
            frame = [tracer._next_span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append(
                    (frame[0], parent[0] if parent else 0, tracer.op_id, name, start, end)
                )
            if work is not None:
                tracer.work[f"{name}.{work[0]}"] += work[1](args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def write_spans(self, path: str) -> None:
        """All spans as gzipped CSV, times relative to the first span.

        Operation 0 holds spans outside any benchmark operation.
        """
        t0 = self.spans[0][4] if self.spans else 0.0
        labels = dict(self.operations)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "operation", "operation_label", "name", "start_s", "end_s"])
            for sid, parent, op, name, start, end in self.spans:
                out.writerow(
                    [sid, parent, op, labels.get(op, ""), name, f"{start - t0:.9f}", f"{end - t0:.9f}"]
                )
