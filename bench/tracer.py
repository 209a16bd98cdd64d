"""Per-module span tracer that wraps ``distilcal`` from outside.

Every public function of the traced modules is replaced, in every module of
the package that binds it (including names that ``cli`` and ``toy`` import
with ``from .x import f``), by a wrapper that records a span. Spans are
aggregated as they close: a module's self time is the sum over its spans of
the span's duration minus the part covered by child spans, so the self times
of all modules add up to the time covered by root spans. Layer counters are
taken at the same function boundaries by the hooks below.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager

#: The library's layers, one per module.
MODULES = ("probs", "targets", "losses", "calibration", "tempscale", "alignment", "fileio", "toy", "cli")

#: Counters taken at function boundaries, reported beside self time and calls.
COUNTERS = (
    "fileio.read_s",
    "fileio.bytes_read",
    "fileio.write_s",
    "fileio.bytes_written",
    "calibration.rows",
    "tempscale.nll_evals",
    "alignment.frames",
    "alignment.tokens",
    "toy.train_steps",
    "toy.step_s",
    "toy.teacher_s",
    "toy.eval_s",
)


class Tracer:
    """Span aggregates for one traced stretch of work."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = dict.fromkeys(MODULES, 0.0)
        self.calls = dict.fromkeys(MODULES, 0)
        self.functions: dict[str, list] = {}  # "module.name" -> [calls, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.roots: list[tuple[float, float]] = []  # (start, end) of each root span
        self._stack: list[list] = []  # open spans: [module, child time]

    def wrap(self, module: str, name: str, fn):
        hook = _HOOKS.get((module, name)) or _HOOKS.get((module, "*"))
        per_function = self.functions.setdefault(f"{module}.{name}", [0, 0.0])
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [module, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - span[1]
                self.self_s[module] += own
                self.calls[module] += 1
                per_function[0] += 1
                per_function[1] += own
                if parent is None:
                    self.roots.append((start, end))
                else:
                    parent[1] += duration
            if hook is not None:
                hook(self.counters, name, duration, parent and parent[0], args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics as ``BENCHMARK.json`` names them."""
        out: dict[str, float] = {}
        for m in MODULES:
            out[f"{m}.self_s"] = self.self_s[m]
            out[f"{m}.calls"] = self.calls[m]
        out.update(self.counters)
        steps, tokens, step_s = out["toy.train_steps"], out["alignment.tokens"], out.pop("toy.step_s")
        out["toy.step_us"] = 1e6 * step_s / steps if steps else 0.0
        out["alignment.frames_per_token"] = out["alignment.frames"] / tokens if tokens else 0.0
        return out


def _fileio(c, name, duration, parent, args, result):
    if name.startswith("read_"):
        c["fileio.read_s"] += duration
        c["fileio.bytes_read"] += os.path.getsize(args[0])
    elif name == "write_text_atomic":
        c["fileio.write_s"] += duration
        c["fileio.bytes_written"] += os.path.getsize(args[0])


def _calibration(c, name, duration, parent, args, result):
    # Rows entering the layer from outside; calls inside it are not re-counted.
    if parent != "calibration" and name != "reliability_csv":
        c["calibration.rows"] += len(args[0])


def _nll(c, name, duration, parent, args, result):
    c["tempscale.nll_evals"] += 1


def _deduplicate(c, name, duration, parent, args, result):
    c["alignment.frames"] += sum(result.runs)
    c["alignment.tokens"] += len(result.runs)


def _step(c, name, duration, parent, args, result):
    c["toy.train_steps"] += 1
    c["toy.step_s"] += duration


def _add_time(key):
    def hook(c, name, duration, parent, args, result):
        c[key] += duration

    return hook


_HOOKS = {
    ("fileio", "*"): _fileio,
    ("calibration", "*"): _calibration,
    ("tempscale", "nll_at_temperature"): _nll,
    ("alignment", "deduplicate"): _deduplicate,
    ("toy", "network_loss_and_grad"): _step,
    ("toy", "make_teacher"): _add_time("toy.teacher_s"),
    ("toy", "evaluate"): _add_time("toy.eval_s"),
}


@contextmanager
def traced(tracer: Tracer):
    """Install ``tracer`` on every public function of :data:`MODULES`; undo on exit."""
    for m in MODULES:
        importlib.import_module(f"distilcal.{m}")
    namespaces = [
        mod for key, mod in list(sys.modules.items()) if key == "distilcal" or key.startswith("distilcal.")
    ]
    patches = []
    try:
        for m in MODULES:
            mod = sys.modules[f"distilcal.{m}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = tracer.wrap(m, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        yield tracer
    finally:
        for ns, attr, fn in reversed(patches):
            setattr(ns, attr, fn)
