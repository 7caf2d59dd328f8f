"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` by
wrappers.  ``from .x import f`` copies a function into the importing
module, so every binding of the original object in every ``localfourier``
module is replaced, and class aliases such as ``__rmul__ = __mul__`` are
replaced together with the method they alias.

While ``enabled`` is set, each wrapped call appends a span
``(name, start, end, parent)`` to ``spans``.  ``fold`` turns the spans of
one operation into call counts and self times (a span's duration minus
the duration of its direct children) and empties the list, so memory
stays bounded by one operation.  A layer's ``errors`` counts exceptions
that leave a function of the layer to a caller outside it.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "exactfield": (
        "FieldElement.__mul__",
        "FieldElement.__add__",
        "FieldElement._invert",
        "FieldElement.__eq__",
        "FieldElement.sort_key",
        "adjoin_root",
    ),
    "series": (
        "LaurentSeries.__mul__",
        "LaurentSeries.inverse",
        "LaurentSeries.nth_root",
        "LaurentSeries.reversion",
        "LaurentSeries.compose",
    ),
    "connection": ("normalize_ramification", "reduce_minimal", "canonicalize", "is_isomorphic"),
    "fourier": (
        "fourier_0_inf",
        "fourier_inf_0",
        "fourier_inf_inf",
        "fourier_s_inf",
        "stationary_phase_at_infinity",
    ),
    "structure": ("tensor", "hom", "dual", "determinant"),
    "rigidity": ("rigidity_breakdown", "z_zhat_discrepancy", "pushforward_monodromy"),
    "oracle": ("oracle_check",),
    "dsl": ("parse", "render_connection", "render_document"),
    "cli": ("main",),
}

PACKAGE = "localfourier"


def span_names():
    return [f"{layer}.{qual}" for layer, quals in LAYERS.items() for qual in quals]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []
        self._open = []  # (span index, layer) of the calls in progress
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, quals in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for qual in quals:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owners = [getattr(home, cls_name)]
                    original = owners[0].__dict__[attr]
                else:
                    owners = modules
                    original = getattr(home, qual)
                wrapped = self._wrap(layer, name, original)
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, key, wrapped)

    def _wrap(self, layer, name, fn):
        spans, opened = self.spans, self._open

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = opened[-1] if opened else None
            index = len(spans)
            spans.append(None)
            opened.append((index, layer))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[1] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                opened.pop()
                spans[index] = (name, start, end, -1 if parent is None else parent[0])

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def fold(self):
        """Add the spans recorded so far to the totals, then drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            self.calls[name] += 1
            self.self_s[name] += end - start - inner
        spans.clear()

    def metrics(self) -> dict:
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return out
