"""In-memory span recorder around the calls twoscale modules make into each other.

``instrument`` rebinds every public function of the package in every module
namespace that holds it, so a call from one module into another, and a call
to a public function of the module's own, passes through a wrapper that
records one span: the layer (the module defining the function), the
function name, the parent span, start and end.  The ``verify.CRITERIA``
table is wrapped too, because ``run_suite`` calls the criteria through it.
Classes are left alone, so ``isinstance`` checks keep working; their
constructors count towards the caller's self time.

A layer's self time is the time its spans cover minus the time their direct
child spans cover.  Spans run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("cli", "io", "synthesis", "covering", "ifs", "grids", "operators", "families", "verify")

# per-function inclusive times reported as "<layer>.<function>_s"
TIMED_FUNCTIONS = (
    ("covering", "empirical_branching"),
    ("covering", "average_profile"),
    ("io", "tree_to_text"),
    ("io", "points_to_csv"),
    ("io", "points_from_csv"),
    ("ifs", "generate_attractor"),
    ("ifs", "critical_exponent"),
    ("grids", "lipschitz_approximation"),
    ("grids", "validate_branching"),
    ("operators", "monotone_envelope"),
    ("operators", "scaling_limit"),
    ("operators", "cone_extension"),
    ("synthesis", "synthesize_set"),
    ("synthesis", "export_points"),
) + tuple(("verify", f"criterion_{k}") for k in range(1, 12))


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "child_time")

    def __init__(self, layer: str, name: str, parent: "Span | None", start: float):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """Spans and counts of one traced pipeline run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[Span] = []

    def wrap(self, layer: str, name: str, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result(counts, args, kwargs, result)``
        updates the counts after a call that returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(layer, name, parent, self.clock())
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
                if parent is not None:
                    parent.child_time += span.duration
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer self time and calls, per-function times and the counts."""
        out = {}
        for layer in LAYERS:
            mine = [s for s in self.spans if s.layer == layer]
            out[f"{layer}.self_s"] = sum(s.self_time for s in mine)
            out[f"{layer}.calls"] = len(mine)
        inclusive = Counter()
        for s in self.spans:
            if not _nested_in_same(s):
                inclusive[(s.layer, s.name)] += s.duration
        for layer, name in TIMED_FUNCTIONS:
            out[f"{layer}.{name}_s"] = inclusive[(layer, name)]
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        raw = self.counts["ifs.raw_points"]
        out["ifs.dedup_ratio"] = self.counts["ifs.points"] / raw if raw else 0.0
        return out


def _nested_in_same(span: Span) -> bool:
    """True inside an outer span of the same function, whose time already counts it."""
    p = span.parent
    while p is not None:
        if p.layer == span.layer and p.name == span.name:
            return True
        p = p.parent
    return False


# ---------------------------------------------------------------------------
# Counts taken from the arguments and results of layer calls
# ---------------------------------------------------------------------------

def _coverage(counts, args, kwargs, coverage):
    counts["covering.cells"] += coverage.metadata["centers_sampled"]
    counts["covering.center_stride"] = max(counts["covering.center_stride"],
                                           coverage.metadata["center_stride"])


def _attractor(counts, args, kwargs, sample):
    counts["ifs.words"] += sample.metadata["word_count"]
    counts["ifs.raw_points"] += sample.metadata["raw_points"]
    counts["ifs.points"] += sample.points.shape[0]


def _lattice(counts, args, kwargs, result):
    n = (args[0] if args else kwargs["grid"]).spec.n
    counts["grids.lattice_cells"] += (n + 1) * (n + 2) // 2


def _written(counts, args, kwargs, result):
    # every writer produces ASCII (CSV digits, json.dumps), so characters are bytes
    counts["io.bytes_written"] += len(args[1] if len(args) > 1 else kwargs["text"])


def _cubes(counts, args, kwargs, composite):
    counts["synthesis.cubes"] += sum(level.size for _, tree in composite.parts for level in tree.levels)


def _criterion(counts, args, kwargs, result):
    counts["verify.criteria_failed"] += not result.passed


COUNT_HOOKS = {
    ("covering", "empirical_branching"): _coverage,
    ("ifs", "generate_attractor"): _attractor,
    ("grids", "lipschitz_approximation"): _lattice,
    ("grids", "validate_branching"): _lattice,
    ("io", "atomic_write"): _written,
    ("synthesis", "synthesize_set"): _cubes,
}

COUNT_METRICS = (
    "covering.cells",
    "covering.center_stride",
    "io.bytes_written",
    "ifs.words",
    "ifs.raw_points",
    "ifs.points",
    "grids.lattice_cells",
    "synthesis.cubes",
    "verify.criteria_failed",
)


def instrument(recorder: Recorder):
    """Route the package's public functions through ``recorder``; returns an undo."""
    undo = []
    for modname in LAYERS:
        module = importlib.import_module(f"twoscale.{modname}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            package, _, owner = obj.__module__.rpartition(".")
            if package != "twoscale" or owner not in LAYERS:
                continue
            hook = COUNT_HOOKS.get((owner, name))
            setattr(module, name, recorder.wrap(owner, name, obj, hook))
            undo.append((module, name, obj))
    criteria = importlib.import_module("twoscale.verify").CRITERIA
    originals = dict(criteria)
    for cid, fn in originals.items():
        criteria[cid] = recorder.wrap("verify", f"criterion_{cid}", fn, _criterion)

    def restore():
        for module, name, obj in undo:
            setattr(module, name, obj)
        criteria.update(originals)

    return restore
