"""Outside-in span tracer for the sawmollow layers.

``Tracer.install`` wraps every public function of ``bloch``, ``spectrum``,
``cooling`` and ``cli`` (plus ``splu`` as bound in ``cooling``) and rebinds
each wrapper in every ``sawmollow`` module namespace that holds the original,
so calls made through ``from .bloch import floquet_steady_state`` are traced
too.  ``BlochGenerator.matrix`` (the ODE right-hand side) gets a call counter
only.  Spans stay in memory as ``[name, start, end, parent]`` and are written
out by the caller when the run ends.  No file under ``src/`` is changed.

Health and work counts are read from the arguments and the objects each call
returns, never from inside the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "spectrum", "bloch", "cooling")

# Per-layer metrics reported by a traced run, with their units.
FUNCTION_METRICS = {
    "spectrum.transform_correlator.calls": "count",
    "spectrum.transform_correlator.self_s": "s",
    "spectrum.transform_correlator.kernel_terms": "count",
    "spectrum.transform_correlator.min_preclip_rel": "1",
    "spectrum.two_time_correlator.calls": "count",
    "spectrum.two_time_correlator.self_s": "s",
    "spectrum.two_time_correlator.n_tau": "count",
    "bloch.periodic_fundamental.calls": "count",
    "bloch.periodic_fundamental.self_s": "s",
    "bloch.matrix.calls": "count",
    "spectrum.apply_spectral_diffusion.self_s": "s",
    "spectrum.apply_etalon.calls": "count",
    "spectrum.apply_etalon.self_s": "s",
    "bloch.floquet_steady_state.calls": "count",
    "bloch.floquet_steady_state.self_s": "s",
    "bloch.floquet_steady_state.blocks": "count",
    "bloch.floquet_steady_state.doublings": "count",
    "bloch.floquet_steady_state.n_harmonics_max": "count",
    "bloch.floquet_steady_state.residual_max": "1",
    "cooling.cooling_map.self_s": "s",
    "cooling.splu.calls": "count",
    "cooling.splu.self_s": "s",
    "cooling.splu.fill_nnz": "count",
    "cooling.splu.fill_bytes_max": "B",
    "cooling.lindblad_steady_state.calls": "count",
    "cooling.lindblad_steady_state.self_s": "s",
    "cooling.lindblad_steady_state.m_max_used": "count",
    "cooling.lindblad_steady_state.trace_error_max": "1",
    "cooling.lindblad_steady_state.residual_max": "1",
    "cooling.cooling_performance_map.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.emit.bytes": "B",
}
LAYER_METRICS = {f"layer.{layer}.self_s": "s" for layer in LAYERS}
RUN_METRICS = {"trace.wall_s": "s", "trace.overhead_s": "s",
               "trace.coverage": "1", "trace.spans": "count"}
PER_LAYER_METRICS = {**FUNCTION_METRICS, **LAYER_METRICS, **RUN_METRICS}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    Spans of one thread nest, so the direct children cover disjoint parts
    of their parent's interval.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Observers turn a call's bound arguments and result into counts.

def _observe_floquet(counts, args, sol):
    n0 = args["n_harmonics"]
    if n0 is None:
        # The original, so that the observer records no span of its own.
        default_harmonics = inspect.unwrap(
            sys.modules["sawmollow.bloch"].default_harmonics)
        n0 = default_harmonics(args["gen"].drive)
    doublings = round(math.log2(sol.n_harmonics / n0))
    key = "bloch.floquet_steady_state."
    counts[key + "doublings"] += doublings
    counts[key + "blocks"] += sum(2 * n0 * 2 ** i + 1
                                  for i in range(doublings + 1))
    _maximum(counts, key + "n_harmonics_max", sol.n_harmonics)
    _maximum(counts, key + "residual_max", sol.residual)


def _observe_correlator(counts, args, corr):
    counts["spectrum.two_time_correlator.n_tau"] += corr.taus.size


def _observe_transform(counts, args, spec):
    key = "spectrum.transform_correlator."
    counts[key + "kernel_terms"] += len(args["freqs"]) * args["corr"].taus.size
    rel = spec.meta["min_intensity_preclip"] / float(spec.intensity.max())
    name = key + "min_preclip_rel"
    counts[name] = min(counts.get(name, math.inf), rel)


def _observe_splu(counts, args, lu):
    counts["cooling.splu.fill_nnz"] += lu.nnz
    _maximum(counts, "cooling.splu.fill_bytes_max", 16 * lu.nnz)


def _observe_lindblad(counts, args, res):
    key = "cooling.lindblad_steady_state."
    _maximum(counts, key + "m_max_used", res.m_max_used)
    _maximum(counts, key + "trace_error_max", res.trace_error)
    _maximum(counts, key + "residual_max", res.residual_norm)


def _observe_emit(counts, args, _):
    counts["cli.emit.bytes"] += os.path.getsize(args["path"])


def _maximum(counts, name, value):
    counts[name] = max(counts.get(name, value), value)


OBSERVERS = {
    "bloch.floquet_steady_state": _observe_floquet,
    "spectrum.two_time_correlator": _observe_correlator,
    "spectrum.transform_correlator": _observe_transform,
    "cooling.splu": _observe_splu,
    "cooling.lindblad_steady_state": _observe_lindblad,
    "cli.emit": _observe_emit,
}


class Tracer:
    """In-memory span recorder that wraps functions from outside."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        signature = inspect.signature(fn) if observe else None
        spans, stack, counts, clock = (self.spans, self._stack, self.counts,
                                       self.clock)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), math.nan, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(counts, bound.arguments, result)
            return result

        return traced

    def rebind(self, original, replacement) -> None:
        """Replace ``original`` in every loaded sawmollow module namespace."""
        for modname, module in list(sys.modules.items()):
            if modname != "sawmollow" and not modname.startswith("sawmollow."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        for layer in LAYERS:
            module = importlib.import_module(f"sawmollow.{layer}")
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.rebind(fn, self.wrap(name, fn, OBSERVERS.get(name)))
        cooling = sys.modules["sawmollow.cooling"]
        self.rebind(cooling.splu, self.wrap("cooling.splu", cooling.splu,
                                            OBSERVERS["cooling.splu"]))
        generator = sys.modules["sawmollow.bloch"].BlochGenerator
        matrix = generator.matrix
        counts = self.counts

        def counted_matrix(gen, t):
            counts["bloch.matrix.calls"] += 1
            return matrix(gen, t)

        generator.matrix = counted_matrix
        self._undo.append((generator, "matrix", matrix))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the recorded run; ``wall_s`` is its
        untraced-clock duration of ``cli.main``."""
        out = {name: 0.0 for name in PER_LAYER_METRICS}
        out.update((k, v) for k, v in self.counts.items() if k in out)
        own = self_times(self.spans)
        for (name, *_), t in zip(self.spans, own):
            layer = name.split(".", 1)[0]
            out[f"layer.{layer}.self_s"] += t
            if name + ".self_s" in out:
                out[name + ".self_s"] += t
        out["trace.wall_s"] = wall_s
        out["trace.coverage"] = sum(out[k] for k in LAYER_METRICS) / wall_s
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
