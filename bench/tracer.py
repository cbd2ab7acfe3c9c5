"""Call tracer for the densitylab modules, installed from outside ``src/``.

``Tracer.install()`` wraps the public functions and methods of every layer
module and rebinds every reference to them that a ``densitylab`` module
holds: module attributes (``suite`` and ``cli`` import library names with
``from ... import``), tuples such as ``suite.CRITERIA`` and dicts such as
``cli.RUNNERS``.  ``Tracer.uninstall()`` puts every original back.

Each traced call adds to its function's call count, inclusive time and self
time (inclusive time minus the time of the traced calls it made).  Calls at
coarse boundaries (``SPANS`` and the batteries of ``suite.CRITERIA``) are
also recorded as spans: name, start, end, parent span and op id.
Everything stays in memory until the pass ends.  Properties are attribute
reads and are not traced.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from fractions import Fraction

# The library modules, one layer each, in dependency order.
LAYERS = (
    "bits", "roottwo", "intervals", "piecewise", "density", "porosity",
    "randomness", "martingales", "calculus", "counterexample", "instances",
    "report", "suite", "cli",
)

# Dunder methods that are operations of the type (QuadValue arithmetic and
# order) or explicit constructors and call protocols; other names starting
# with an underscore are private and are timed as part of their caller.
OPERATORS = frozenset({
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
    "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
})

# Calls recorded as spans, besides the batteries of suite.CRITERIA.
SPANS = frozenset({
    "cli.main",
    "martingales.fairness_violations",
    "martingales.martingale_to_function",
    "calculus.MonotoneExtension.__init__",
    "density.brute_force_low_density_oracle",
    "porosity.porosity_test",
    "randomness.build_escape_sets",
    "counterexample.verify_denjoy_failure",
    "report.to_json_bytes",
    "report.to_csv_bytes",
})


def _oracle_points(c, eps, grid_depth, extra_points=()) -> int:
    """Candidate endpoints of brute_force_low_density_oracle: the dyadic grid
    plus the distinct part endpoints and extra points that lie off it."""
    scale = 1 << grid_depth
    off = {x for p in c.parts for x in (p.lo, p.hi)}
    off.update(Fraction(x) for x in extra_points)
    return scale + 1 + sum(1 for x in off if (x * scale).denominator != 1)


# Counters computed from a traced call's arguments or result.
COUNTERS = {
    "report.to_json_bytes": ("report.bytes", lambda args, kwargs, result: len(result)),
    "report.to_csv_bytes": ("report.bytes", lambda args, kwargs, result: len(result)),
    "density.brute_force_low_density_oracle": (
        "density.oracle_points",
        lambda args, kwargs, result: _oracle_points(*args, **kwargs),
    ),
}


def library_modules() -> list:
    """Every imported densitylab module, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "densitylab" or name.startswith("densitylab.")]


def _defined_in(fn, module) -> bool:
    return os.path.abspath(fn.__code__.co_filename) == os.path.abspath(module.__file__)


def traced_members(module):
    """(owner, attribute, member, function) for each public function and
    method whose code lives in ``module``."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and _defined_in(obj, module):
            yield module, name, obj, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in list(vars(obj).items()):
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                fn = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
                if inspect.isfunction(fn) and _defined_in(fn, module):
                    yield obj, attr, member, fn


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive_s, self_s]
        self.raised: dict[tuple[str, str], int] = {}  # (key, exception) -> count
        self.counters: dict[str, int] = {}
        self.spans: list = []  # (key, start, end, parent index, op id)
        self.op_id = -1
        self.wrapped: dict[object, object] = {}  # original function -> wrapper
        self.batteries: list[str] = []  # keys of the suite.CRITERIA functions
        self._spans = SPANS
        # child time of each open call, above a bottom entry for calls made
        # outside any traced call
        self._stack: list[float] = [0.0]
        self._open_span = -1
        self._undo: list = []

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        if key not in self._spans and key not in COUNTERS:
            def traced(*args, **kwargs):  # hot path: counts and times only
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    tag = (key, type(exc).__name__)
                    raised[tag] = raised.get(tag, 0) + 1
                    raise
                finally:
                    elapsed = clock() - start
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - stack.pop()
                    stack[-1] += elapsed
        else:
            tracer, counter = self, COUNTERS.get(key)

            def traced(*args, **kwargs):  # boundary: also a span and counters
                stack.append(0.0)
                index, parent = len(tracer.spans), tracer._open_span
                tracer.spans.append(None)
                tracer._open_span = index
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tag = (key, type(exc).__name__)
                    raised[tag] = raised.get(tag, 0) + 1
                    raise
                finally:
                    end = clock()
                    elapsed = end - start
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - stack.pop()
                    stack[-1] += elapsed
                    tracer.spans[index] = (key, start, end, parent, tracer.op_id)
                    tracer._open_span = parent
                if counter is not None:
                    name, count = counter
                    tracer.counters[name] = tracer.counters.get(name, 0) + count(args, kwargs, result)
                return result

        return functools.update_wrapper(traced, fn)

    def _substitute(self, value):
        """value with wrapped functions in place of originals; dicts and lists
        are changed in place and recorded for uninstall."""
        if inspect.isfunction(value):
            return self.wrapped.get(value, value)
        if isinstance(value, tuple):
            items = tuple(self._substitute(v) for v in value)
            return value if all(a is b for a, b in zip(items, value)) else items
        if isinstance(value, (dict, list)):
            keys = value.keys() if isinstance(value, dict) else range(len(value))
            for k in list(keys):
                new = self._substitute(value[k])
                if new is not value[k]:
                    self._undo.append((value.__setitem__, k, value[k]))
                    value[k] = new
        return value

    def install(self) -> None:
        import densitylab.cli  # noqa: F401  (imports every layer)

        criteria = sys.modules["densitylab.suite"].CRITERIA
        self.batteries = [f"suite.{fn.__name__}" for _number, _title, fn in criteria]
        self._spans = SPANS | set(self.batteries)
        for layer in LAYERS:
            module = sys.modules[f"densitylab.{layer}"]
            for owner, attr, member, fn in traced_members(module):
                qual = fn.__qualname__ if owner is module else f"{owner.__name__}.{attr}"
                wrapper = self._wrap(f"{layer}.{qual}", fn)
                self.wrapped[fn] = wrapper
                if owner is not module:
                    replacement = type(member)(wrapper) if member is not fn else wrapper
                    self._undo.append((lambda k, v, o=owner: setattr(o, k, v), attr, member))
                    setattr(owner, attr, replacement)
        for module in library_modules():
            for name, value in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                new = self._substitute(value)
                if new is not value:
                    self._undo.append((lambda k, v, m=module: setattr(m, k, v), name, value))
                    setattr(module, name, new)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    def layer_totals(self) -> dict[str, list]:
        """layer -> [calls, self_s]."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for key, (calls, _inclusive, self_s) in self.stats.items():
            entry = totals[key.split(".", 1)[0]]
            entry[0] += calls
            entry[1] += self_s
        return totals

    def export(self) -> dict:
        return {
            "stats": self.stats,
            "raised": [[key, exc, n] for (key, exc), n in sorted(self.raised.items())],
            "counters": self.counters,
            "layers": self.layer_totals(),
            "batteries": self.batteries,
            "spans": self.spans,
        }
