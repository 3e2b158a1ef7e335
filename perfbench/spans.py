"""Span tracer that wraps fiberforge's public functions from outside.

Nothing in ``src/`` knows about it: ``instrument`` swaps every public
module-level function of the traced layers for a timing wrapper, in every
fiberforge module that holds a reference to it.  It also times
``Polynomial.__mul__`` and counts calls to the two hottest methods,
``OrderSpec.key`` and ``Polynomial.leading``.

A span is ``(id, name, start, end, parent id, sample id)``.  Spans live
in memory and are returned with the sample's result; the parent process
writes them out when the run ends.  A layer's self time is the time its
spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Layers in call order.  ``symmat`` is reached only through
# ``candidate.generators_lambda``, so it is left unwrapped and its time
# is that function's self time.
LAYERS = ("rings", "candidate", "groebner", "hilbert", "census", "rees", "cli")

# Variable and ring constructors, called about 10^5 times per sample: a
# wrapper would cost more than their work, so their time is their caller's.
UNTRACED = frozenset(
    f"rings.{name}"
    for name in ("xvar", "wvar", "uvar", "tvar", "ring_R", "ring_W", "ring_U",
                 "ring_S", "ring_Rees", "omega_order")
)

# Functions whose results are counted: span name -> (counter, size of result).
RESULT_COUNTS = {
    "candidate.generators_lambda": ("candidate.generators_count", len),
    "census.verify_census": ("census.checks_count", lambda report: len(report.checks)),
}


class Tracer:
    def __init__(self, sample_id: int):
        self.sample_id = sample_id
        self.spans: list = []
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []  # [span id, child seconds] per open span
        self._next_id = 0

    def wrap(self, name: str, fn, record: bool = True):
        """A wrapper timing ``fn`` as span ``name``.

        With ``record=False`` only the self time is kept, for methods
        called too often to store one span per call.
        """
        stack = self._stack
        self_s = self.self_s
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    spans.append((span_id, name, start, end, parent, self.sample_id))

        return traced

    def counting(self, name: str, fn):
        """A wrapper that only counts calls of ``fn``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield attr, obj


def _rebind(modules, original, replacement):
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if obj is original:
                setattr(module, attr, replacement)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer in already-imported fiberforge."""
    from fiberforge import errors, rings

    modules = [m for n, m in sys.modules.items() if n.startswith("fiberforge.")]
    for layer in LAYERS:
        module = sys.modules[f"fiberforge.{layer}"]
        for attr, fn in list(_public_functions(module)):
            name = f"{layer}.{attr}"
            if name in UNTRACED:
                continue
            if name == "groebner.buchberger":
                wrapped = _buchberger(tracer, fn, errors.BudgetExceeded)
            elif name in RESULT_COUNTS:
                wrapped = _counting_results(tracer, name, fn)
            else:
                wrapped = tracer.wrap(name, fn)
            _rebind(modules, fn, wrapped)

    rings.OrderSpec.key = tracer.counting("rings.order_key_calls", rings.OrderSpec.key)
    rings.Polynomial.leading = tracer.counting(
        "rings.leading_calls", rings.Polynomial.leading
    )
    rings.Polynomial.__mul__ = tracer.wrap(
        "rings.poly_mul", rings.Polynomial.__mul__, record=False
    )


def _counting_results(tracer, name, fn):
    counter, size = RESULT_COUNTS[name]
    inner = tracer.wrap(name, fn)

    def call(*args, **kwargs):
        result = inner(*args, **kwargs)
        tracer.counts[counter] += size(result)
        return result

    return call


def _buchberger(tracer, fn, budget_exceeded):
    """Split Buchberger into truncated and full runs; count basis sizes
    and budget aborts."""
    full = tracer.wrap("groebner.buchberger_full", fn)
    trunc = tracer.wrap("groebner.buchberger_trunc", fn)

    def buchberger(gens, order, max_degree=None, time_budget=None):
        run = full if max_degree is None else trunc
        try:
            gb = run(gens, order, max_degree, time_budget)
        except budget_exceeded:
            tracer.counts["groebner.budget_exceeded"] += 1
            raise
        tracer.counts["groebner.basis_size"] += len(gb.elements)
        return gb

    return buchberger
