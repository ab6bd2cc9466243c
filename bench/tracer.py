"""Outside-in span tracer for the omfree layers.

The tracer wraps named public functions from outside the package: each
wrapper is installed on every ``omfree`` module attribute bound to the
wrapped object, because calls resolve through imported names (``weil`` calls
``pairing_counts`` through ``from .lattice import pairing_counts``, so
patching only ``omfree.lattice`` would miss those calls).  Every call records one
span: name, start, end and parent.  Spans stay in memory until
``summary()`` folds them into per-name totals.

A named function that no longer exists raises ``LookupError`` at install
time, so a rename updates the benchmark instead of silently reporting zeros.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (layer module, attribute path, counter).  The counter, when given, maps
# (args, kwargs, result) to extra per-name counts; it runs after the span
# has ended, so its cost is not charged to the wrapped function.


def _pairing_counts_stats(args, kwargs, result) -> Dict[str, int]:
    return {"vectors": sum(result.values()), "keys": len(result)}


def _pullback_stats(args, kwargs, result) -> Dict[str, int]:
    return {"coeffs": len(result.coeffs)}


def _multiply_stats(args, kwargs, result) -> Dict[str, int]:
    f, g = args[0], args[1]
    return {"pairs": len(f.coeffs) * len(g.coeffs)}


def _bareiss_stats(args, kwargs, result) -> Dict[str, int]:
    rows = args[0]
    cells = sum(len(r) for r in rows)
    bits = max((abs(x).bit_length() for r in rows for x in r), default=0)
    return {"cells": cells, "max_bits": bits}


TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", None),
    ("freealg", "dim_upper_bound", None),
    ("certify", "certify_freeness", None),
    ("certify", "case_independence", None),
    ("certify", "independence", None),
    ("certify", "verify_weight14", None),
    ("certify", "express_in_basis", None),
    ("certify", "bareiss_rank", _bareiss_stats),
    ("certify", "left_kernel", None),
    ("lifts", "gritsenko_lift", None),
    ("lifts", "hecke_V", None),
    ("lifts", "multiply", _multiply_stats),
    ("weil", "jacobi_eisenstein", None),
    ("weil", "pullback", _pullback_stats),
    ("classical", "eisenstein_sl2", None),
    ("classical", "gamma0_2_eisenstein_basis", None),
    ("classical", "slash_level2", None),
    ("classical", "decompose_level2", None),
    ("classical", "trace_to_sl2", None),
    ("classical", "eta_pow", None),
    ("classical", "cohen_eisenstein", None),
    ("classical", "plus_eisenstein_gamma0_3", None),
    ("qseries", "QSeries.__mul__", None),
    ("lattice", "pairing_counts", _pairing_counts_stats),
)

ROOT = "cli.main"


class Tracer:
    """Records spans for the targets while installed; single-threaded."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.stats: Dict[str, Dict[str, int]] = {}
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter
        stats = self.stats.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    stats[key] = max(stats.get(key, 0), n) if key == "max_bits" else stats.get(key, 0) + n
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if m is not None and (k == "omfree" or k.startswith("omfree."))]
        for layer, path, counter in self.targets:
            owner = sys.modules.get(f"omfree.{layer}")
            if owner is None:
                raise LookupError(f"omfree.{layer} is not imported; cannot trace {layer}.{path}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
                if owner is None:
                    raise LookupError(f"omfree.{layer} has no {part}; cannot trace {layer}.{path}")
            original = getattr(owner, attr, None)
            if original is None or not callable(original):
                raise LookupError(f"omfree.{layer}.{path} no longer exists; update the benchmark's tracer targets")
            wrapper = self._wrap(f"{layer}.{path}", original, counter)
            for holder in [owner] if cls_path else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
            if vars(holder)[key] is not original:
                raise RuntimeError(f"could not restore {key} on {holder!r}")
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def summary(self) -> dict:
        """Per-name self time, calls and counts, plus what the coverage checks need.

        A span's self time is its duration minus the time its child spans
        cover; the wrapped functions are not generators and run on one
        thread, so children nest inside their parent without overlapping.
        """
        n = len(self.names)
        if len(self._stack) != 1:
            raise RuntimeError("summary() called with spans still open")
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        per_name: Dict[str, Dict[str, float]] = {}
        min_self = 0.0
        for i in range(n):
            rec = per_name.setdefault(self.names[i], {"self_s": 0.0, "calls": 0})
            self_time = self.ends[i] - self.starts[i] - child_time[i]
            min_self = min(min_self, self_time)
            rec["self_s"] += self_time
            rec["calls"] += 1
        for name, counts in self.stats.items():
            per_name.setdefault(name, {"self_s": 0.0, "calls": 0}).update(counts)
        roots = [i for i in range(n) if self.parents[i] < 0]
        root_wall = sum(self.ends[i] - self.starts[i] for i in roots)

        # A pullback "hits" the counts cache when no pairing_counts span runs under it.
        counted = set()
        for i in range(n):
            if self.names[i] == "lattice.pairing_counts":
                p = self.parents[i]
                while p >= 0:
                    if self.names[p] == "weil.pullback":
                        counted.add(p)
                    p = self.parents[p]
        pullbacks = [i for i in range(n) if self.names[i] == "weil.pullback"]
        return {
            "per_name": per_name,
            "root_names": sorted({self.names[i] for i in roots}),
            "root_wall_s": root_wall,
            "min_self_s": min_self,
            "pullbacks": len(pullbacks),
            "counts_hits": sum(1 for i in pullbacks if i not in counted),
        }
