"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public name of kakeya with a
wrapper, in every kakeya module that holds the name (that is where the
calling module looks it up), and on the class for methods.  A timed
wrapper records a span: calls, total time and self time (total minus the
time of traced spans it caused), per caller.  A counted wrapper only
counts calls and work.  Counts are computed from each call's arguments;
the costly ones (pairs that contribute, distinct inputs) are kept as
argument references and computed by ``finish`` after the timed rounds.
``uninstall`` restores every original object.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))
    callers: dict = field(default_factory=lambda: defaultdict(int))


# (module, attribute, owning class or None, timed)
TARGETS = [
    ("cantor", "direction_set", None, True),
    ("cantor", "estimate_bilipschitz", None, True),
    ("cantor", "slope_floats", "DirectionSet", False),
    ("kernels", "union_lengths_1d", None, True),
    ("kernels", "pair_sum_1d", None, True),
    ("kernels", "union_areas_2d", None, True),
    ("kernels", "node_bits", None, False),
    ("tubes", "pair_sum_over_range", None, True),
    ("tubes", "intersection_necessary", None, False),
    ("tubes", "pair_measure", None, True),
    ("tubes", "union_volume", None, True),
    ("tubes", "poss_set", None, True),
    ("trees", "from_leaves", "FiniteTree", True),
    ("percolation", "resistance", None, True),
    ("sticky", "all_slope_indices", "SlopeAssignment", True),
]


# counts taken at each call, from its bound arguments and its result
COUNTERS = {
    "kernels.union_lengths_1d": lambda a, r: {"positions": len(a["centers"]) * len(a["xs"])},
    "kernels.pair_sum_1d": lambda a, r: {"pairs_evaluated": len(a["centers"]) * (len(a["centers"]) - 1) // 2},
    "kernels.union_areas_2d": lambda a, r: {"nodes": len(a["xs"])},
    "kernels.node_bits": lambda a, r: {"ids": len(a["node_ids"])},
    "tubes.poss_set": lambda a, r: {"directions_scanned": a["dirset"].n, "roots": len(r)},
    "percolation.resistance": lambda a, r: {"vertices": len(a["tree"].vertices)},
}


def _bilipschitz_pairs(a):
    """Distinct parameter pairs scanned: the given parameters plus the grid."""
    grid = a["grid"]
    pts = [float(t) for t in a["params"]] + [i / (grid - 1) for i in range(grid)]
    n = np.unique(pts).size
    return {"pairs": n * (n - 1) // 2}


def _contributing_pairs_1d(a, rows=256):
    """Unordered pairs whose intersection over the slab has positive length."""
    centers = np.asarray(a["centers"], dtype=np.float64)
    slopes = np.asarray(a["slopes"], dtype=np.float64)
    lo, hi, width = float(a["lo"]), float(a["hi"]), float(a["width"])
    n = centers.shape[0]
    hits = 0
    for s in range(0, n, rows):
        d = centers[None, :] - centers[s : s + rows, None]
        b = slopes[None, :] - slopes[s : s + rows, None]
        u0, u1 = d + b * lo, d + b * hi
        meets = np.maximum(np.minimum(u0, u1), -width) < np.minimum(np.maximum(u0, u1), width)
        upper = np.arange(n)[None, :] > np.arange(s, min(s + rows, n))[:, None]
        hits += int((meets & upper).sum())
    return {"pairs_contributing": hits}


# counts too costly for a timed region: ``finish`` computes them afterwards
DEFERRED = {
    "cantor.estimate_bilipschitz": _bilipschitz_pairs,
    "kernels.pair_sum_1d": _contributing_pairs_1d,
}
# layers whose distinct inputs are counted, as ``distinct_calls``
DISTINCT = {"tubes.pair_sum_over_range"}


def _input_digest(a) -> str:
    h = hashlib.sha256()
    for value in a.values():
        h.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    return h.hexdigest()


class Tracer:
    """Wrappers around kakeya's public names, and what they recorded."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.deferred: list = []
        self._stack: list[list] = []  # [layer name, time of traced children]
        self._saved: list = []

    def reset(self) -> None:
        self.stats = defaultdict(LayerStats)
        self.deferred = []

    def _count(self, name, bind, args, kwargs, result) -> None:
        if bind is None:
            return
        bound = bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if name in COUNTERS:
            for key, value in COUNTERS[name](a, result).items():
                self.stats[name].counts[key] += value
        if name in DEFERRED or name in DISTINCT:
            self.deferred.append((name, a))

    def _timed(self, name, fn, bind):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = tracer._stack[-1][0] if tracer._stack else "harness"
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                st = tracer.stats[name]
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                st.callers[caller] += 1
            tracer._count(name, bind, args, kwargs, result)
            return result

        return traced

    def _counted(self, name, fn, bind):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.stats[name].calls += 1
            tracer._count(name, bind, args, kwargs, result)
            return result

        return counted

    def install(self) -> None:
        """Wrap every target in the loaded kakeya modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "kakeya" or n.startswith("kakeya.")]
        for mod_name, attr, cls_name, timed in TARGETS:
            name = f"{mod_name}.{attr}"
            home = sys.modules[f"kakeya.{mod_name}"]
            make = self._timed if timed else self._counted
            if cls_name:
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(name, raw.__func__, None))
                else:
                    wrapped = make(name, raw, None)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            orig = getattr(home, attr)
            counted = name in COUNTERS or name in DEFERRED or name in DISTINCT
            wrapped = make(name, orig, inspect.signature(orig).bind if counted else None)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def finish(self) -> None:
        """Compute the deferred counts (outside any timed region)."""
        digests = defaultdict(set)
        for name, a in self.deferred:
            if name in DEFERRED:
                for key, value in DEFERRED[name](a).items():
                    self.stats[name].counts[key] += value
            if name in DISTINCT:
                digests[name].add(_input_digest(a))
        for name, seen in digests.items():
            self.stats[name].counts["distinct_calls"] = len(seen)
        self.deferred = []
