"""Per-layer self time and call counts, recorded from outside the program.

Every public function of each simulheat module is replaced, in every
simulheat module namespace that holds it, by a wrapper that times the call
in CPU seconds of the process (CLOCK), the clock the whole benchmark uses.
A call's self time is its duration minus the durations of the wrapped calls
it made, so the self times of one op sum to the time spent inside wrapped
calls; the rest of the op is the benchmark's own code. Calls must come from
one thread: the wrappers keep a single call stack.
"""

from __future__ import annotations

import functools
import inspect
import time
from types import ModuleType
from typing import Callable

CLOCK = time.process_time

# extra work counts recorded at a wrapped call, from its arguments
EXTRAS: dict[str, tuple[str, Callable]] = {
    # each exact-LP estimate solves one LP per grid cell of its basis
    "specineq.estimate_constant_lp": ("cells", lambda args, kwargs: args[0].grid.n),
}


class _Record:
    __slots__ = ("self_s", "calls", "extra")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.extra = 0


class Tracer:
    """Wraps the public functions of `layers`, patching them in `namespaces` too."""

    def __init__(self, layers: list[ModuleType], namespaces: list[ModuleType]) -> None:
        self.records: dict[str, _Record] = {}
        self.top_s = 0.0  # time inside outermost wrapped calls
        self._stack: list[float] = []
        self._wrappers: dict[Callable, Callable] = {}
        self._patched: list[tuple[ModuleType, str, Callable]] = []
        self._namespaces = list(layers) + [m for m in namespaces if m not in layers]
        for mod in layers:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    self._wrappers[obj] = self._wrap(f"{layer}.{name}", obj)

    def _wrap(self, key: str, fn: Callable) -> Callable:
        rec = self.records.setdefault(key, _Record())
        extra = EXTRAS.get(key, (None, None))[1]
        stack = self._stack
        clock = CLOCK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                rec.self_s += dur - stack.pop()
                rec.calls += 1
                if extra is not None:
                    rec.extra += extra(args, kwargs)
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur

        return wrapper

    def install(self) -> None:
        for mod in self._namespaces:
            for name, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, obj))

    def remove(self) -> None:
        while self._patched:
            mod, name, obj = self._patched.pop()
            setattr(mod, name, obj)

    def totals(self) -> dict[str, float]:
        """Summed self time, calls and extras per function and per layer."""
        out: dict[str, float] = {}
        for key, rec in self.records.items():
            layer = key.split(".", 1)[0]
            out[f"{key}.self_s"] = rec.self_s
            out[f"{key}.calls"] = rec.calls
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + rec.self_s
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + rec.calls
            if key in EXTRAS:
                out[f"{key}.{EXTRAS[key][0]}"] = rec.extra
        return out
