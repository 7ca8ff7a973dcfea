"""Spans around each layer's public functions, recorded from outside the
program.

Modules import functions by name (`fans` calls `feasible_strict`, not
`lp.feasible_strict`), so a wrapped function replaces the original in every
module attribute that holds it.  Classes are traced through `__init__`
(counted as constructions, named after the class) and methods in place, so
every reference to the class sees the wrapper.  A name that is missing
raises instead of reporting zero.

A span's self time is its duration minus the time of the spans it caused;
only traced functions open spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

PACKAGE = "toriclg"

# (module, attribute path); a class path traces its constructor.
TRACED = [
    ("rational", "rref"),
    ("lp", "feasible_strict"),
    ("cones", "dual_description"),
    ("fans", "StackyFan"),
    ("secondary", "PLConeData"),
    ("secondary", "enumerate_adapted_fans"),
    ("secondary", "wall_between"),
    ("lg", "critical_points"),
    ("lg", "LGPotential.grad"),
    ("lg", "LGPotential.hess"),
    ("lg", "LGPotential.expected_count"),
    ("lg", "track_critical_values"),
    ("lg", "Trajectory.resolve"),
    ("ktheory", "CohomologyRing"),
    ("ktheory", "CohomologyRing.todd_class"),
    ("ktheory", "Cls.__mul__"),
    ("ktheory", "euler_pairing_hrr"),
    ("ktheory", "GammaData.pairing"),
    ("ktheory", "BlowupData.orlov_basis"),
    ("ktheory", "verify_sod"),
    ("mutation", "KBackend"),
    ("mutation", "KBackend.pair"),
    ("mutation", "evolve"),
]


# Traced functions whose results are counted: span name -> items returned.
RESULT_SIZE = {
    "lg.critical_points": len,
    "secondary.enumerate_adapted_fans": lambda result: len(result[0]),
}


def span_name(module, path):
    return f"{module}.{path.replace('__mul__', 'mul')}"


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.returned = {}      # span name -> summed RESULT_SIZE of results
        self._stack = []
        self._undo = []
        self._paused = [False]

    # -- recording ------------------------------------------------------------
    def _wrap(self, name, fn):
        stack = self._stack
        calls, self_s, returned = self.calls, self.self_s, self.returned
        clock = time.thread_time
        size = RESULT_SIZE.get(name)
        paused = self._paused

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + dur - frame[1]
            if size is not None:
                returned[name] = returned.get(name, 0) + size(result)
            return result
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are neither recorded nor counted."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    # -- installing -----------------------------------------------------------
    def _replace_everywhere(self, original, wrapped):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def install(self):
        for module, path in TRACED:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            name = span_name(module, path)
            parts = path.split(".")
            owner = mod
            for p in parts[:-1]:
                owner = _require(owner, p, module, path)
            target = _require(owner, parts[-1], module, path)
            if isinstance(target, type):
                init = target.__dict__.get("__init__")
                if init is None:
                    raise AttributeError(f"{module}.{path} has no __init__")
                target.__init__ = self._wrap(name, init)
                self._undo.append((target, "__init__", init))
            elif isinstance(owner, type):
                setattr(owner, parts[-1], self._wrap(name, target))
                self._undo.append((owner, parts[-1], target))
            else:
                self._replace_everywhere(target, self._wrap(name, target))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _require(owner, attr, module, path):
    if attr not in vars(owner):
        raise AttributeError(f"traced name {module}.{path} is missing "
                             f"({attr!r} not found)")
    return vars(owner)[attr]
