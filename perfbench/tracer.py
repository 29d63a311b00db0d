"""In-memory span tracer installed from outside the program.

Every public function defined in an `elections.*` module is replaced, in
every `elections` namespace that holds it, by a wrapper that records one
span: name, parent span, start and end (perf_counter ns), process CPU time
and an optional work count.  Nothing in `src/` knows about the tracer.

Thread-pool workers start with an empty span stack, so `submit` is patched
to hand the submitting thread's innermost span to the worker as its parent:
`partial_batch` spans under `--threads 2` then belong to their `run_batch`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# span name -> function of the result giving the span's work count
WORK_COUNTS = {
    "generator.draw_noise_batch": len,   # noise rows (trials) drawn
    "generator.draw_noise": lambda _: 1,
    "montecarlo.run_batch": lambda summary: len(summary.records or ()),
}


class Tracer:
    """Spans are tuples (id, parent, name, start_ns, end_ns, cpu_ns, work)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []        # (namespace, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _wrap(self, name: str, fn):
        count = WORK_COUNTS.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            c0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                c1 = time.process_time_ns()
                stack.pop()
            spans.append((sid, parent, name, t0, t1, c1 - c0,
                          count(result) if count else None))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public `elections` function in every namespace holding it."""
        wrappers: dict[int, object] = {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "elections" or n.startswith("elections."))]
        for module in modules:
            ns = vars(module)
            for attr, obj in list(ns.items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("elections.")):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.split(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._patches.append((ns, attr, obj))
                ns[attr] = wrappers[id(obj)]

        tracer = self
        original_submit = ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def adopted(*a, **kw):
                saved = tracer._stack()
                tracer._local.stack = [parent] if parent is not None else []
                try:
                    return fn(*a, **kw)
                finally:
                    tracer._local.stack = saved

            return original_submit(pool, adopted, *args, **kwargs)

        self._patches.append((ThreadPoolExecutor, "submit", original_submit))
        ThreadPoolExecutor.submit = submit

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()


def _union_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of [a, b) intervals, clipped to [lo, hi)."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, CPU seconds, work count.

    Self time is a span's duration minus the union of its children's
    intervals, so parallel children are not subtracted twice.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    out: dict = {}
    for sid, _, name, t0, t1, cpu, work in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "cpu_s": 0.0, "work": 0})
        row["calls"] += 1
        row["total_s"] += (t1 - t0) / 1e9
        row["self_s"] += (t1 - t0 - _union_ns(children.get(sid, ()), t0, t1)) / 1e9
        row["cpu_s"] += cpu / 1e9
        row["work"] += work or 0
    return out

