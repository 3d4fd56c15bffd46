"""Outside-in spans and counters for the benchmark's traced run.

The tracer replaces a public function with a timing wrapper in every module
namespace that binds it, so calls made through those names (for example
``ensembles.assemble`` calling ``sample_ldgm``) are recorded without editing
the package.  ``uninstall`` puts the original objects back.

Spans are kept per thread: a span's self time is its duration minus the
durations of the spans it directly caused on the same thread.  Work that a
span hands to a thread pool runs under that pool's own top-level spans, so
under ``--threads 2`` a ``busy_s`` figure counts thread-seconds, including
time spent waiting for the interpreter lock.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter
from time import perf_counter


class Tracer:
    """Aggregated spans (calls, busy and self seconds) plus integer counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.busy_s.clear()
            self.self_s.clear()
            self.counts.clear()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def active(self, name: str) -> bool:
        """True when a span called ``name`` is open on the calling thread."""
        return any(span_name == name for span_name, _ in self._stack())

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, modules: list, spans: dict) -> None:
        """Wrap ``spans`` (span name -> (function, hook or None)) everywhere
        a module in ``modules`` binds the function."""
        for name, (fn, hook) in spans.items():
            wrapper = self._wrap(name, fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            child_s = [0.0]
            stack.append((name, child_s))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1][0] += dur
                with self._lock:
                    self.calls[name] += 1
                    self.busy_s[name] += dur
                    self.self_s[name] += dur - child_s[0]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def snapshot_counts(self) -> dict:
        """Every integer this tracer holds: span call counts and counters."""
        with self._lock:
            out = {f"{k}.calls": v for k, v in self.calls.items()}
            out.update(self.counts)
        return dict(sorted(out.items()))
