"""Per-layer spans recorded around calls into boolrg's public functions.

The tracer replaces each traced function, in every boolrg module that binds
it, with a wrapper that records a span: layer name, start, end and the
index of the enclosing span.  Calls made inside the package (``classify``
calling ``empirical_flow`` calling ``decimate``) therefore nest, and a
layer's self time is its span time less the time of the spans it encloses.
Nothing in ``src/`` changes; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (module, function, layer).  One layer may cover several functions.
TRACED = [
    ("rg", "decimate", "rg.decimate"),
    ("rg", "annihilation_depth", "rg.annihilation_depth"),
    ("truth_table", "mobius", "truth_table.mobius"),
    ("truth_table", "table_to_anf", "truth_table.table_to_anf"),
    ("truth_table", "write_table", "truth_table.io"),
    ("truth_table", "read_table", "truth_table.io"),
    ("families", "random_table", "families.generate"),
    ("families", "random_polynomial", "families.generate"),
    ("families", "planted_near_polynomial", "families.generate"),
    ("families", "majority", "families.generate"),
    ("families", "mod_p", "families.generate"),
    ("families", "parity", "families.generate"),
    ("families", "majority_sym", "families.generate"),
    ("families", "mod_p_sym", "families.generate"),
    ("families", "parity_sym", "families.generate"),
    ("flow", "empirical_flow", "flow.empirical_flow"),
    ("flow", "classify", "flow.classify"),
    ("symmetric", "sym_decimate", "symmetric.sym_decimate"),
    ("symmetric", "sym_density", "symmetric.sym_density"),
    ("symmetric", "sym_flow", "symmetric.sym_flow"),
    ("detector", "exhaustive_nearest_polynomial", "detector.exhaustive"),
    ("detector", "anf_truncation", "detector.truncation"),
    ("detector", "derivative_sieve", "detector.sieve"),
    ("counting", "separation_margin", "counting.separation_margin"),
]


def _table_bytes(n: int) -> int:
    return ((1 << n) + 7) // 8


def _decimate_mb(args, kwargs, result) -> dict:
    n = args[0].n
    return {"mb_computed": (_table_bytes(n) + _table_bytes(n - 1)) / 1e6}


def _io_mb(args, kwargs, result) -> dict:
    table = args[0] if result is None else result  # write_table(t, path) or t = read_table(path)
    return {"mb": (len(f"BFRG 1 n={table.n}\n") + _table_bytes(table.n)) / 1e6}


def _candidates(args, kwargs, result) -> dict:
    t, xi = args[0], args[1]
    k = sum(math.comb(t.n, j) for j in range(xi + 1))
    return {"candidates": float(1 << k)}


EXTRA = {
    "rg.decimate": _decimate_mb,
    "truth_table.io": _io_mb,
    "detector.exhaustive": _candidates,
}


class Tracer:
    """Spans and per-layer totals; recording only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.classify_searches = 0
        self.classify_useful = 0
        self._stack: list[list] = []  # [span index, child seconds, searches]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        extra = EXTRA.get(layer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((layer, 0.0, 0.0, parent))
            frame = [index, 0.0, 0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (layer, start, end, parent)
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
            tracer.calls[layer] += 1
            tracer.self_s[layer] += end - start - frame[1]
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    tracer.counters[f"{layer}.{key}"] += value
            if layer == "detector.exhaustive":
                # an exact search run by classify counts toward its ratio
                for outer in reversed(tracer._stack):
                    if tracer.spans[outer[0]][0] == "flow.classify":
                        outer[2] += 1
                        break
            if layer == "flow.classify" and frame[2]:
                tracer.classify_searches += frame[2]
                detector = result.detector
                if detector is not None and detector.method == "EXHAUSTIVE":
                    tracer.classify_useful += 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded boolrg module."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "boolrg"]
        for module_name, func_name, layer in TRACED:
            original = getattr(sys.modules[f"boolrg.{module_name}"], func_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
