"""Per-layer tracing of rookposet from outside the package.

`Tracer` replaces each traced function with a wrapper wherever a caller
looks it up: in the namespace of every `rookposet` module that binds it,
and on the class for methods.  The program's own files are left as they
are.  While `recording` is on, each call becomes a span: its name, start,
end, the span open when it began (its parent), and a size (the number of
results, instances checked, or edges built).  Spans live in flat arrays
and are written out once at the end.  Self time is a span's duration
minus the durations of its child spans.

With `memory` on instead, `build_poset` and `Poset.__init__` are run
under `tracemalloc`, and the tracer keeps the peak each call needed
above what was allocated when it began.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array
from typing import Any, Callable

import numpy as np


def _length(result: Any, args: tuple) -> int:
    return len(result)


def _checked(result: Any, args: tuple) -> int:
    return result.checked


def _edges_built(result: Any, args: tuple) -> int:
    return len(args[0].hasse)


# (module, attribute path, size of the result).  The metric name is the
# module and the path, with dunders stripped: `order.RankMatrix.le`.
TARGETS: tuple[tuple[str, str, Callable[[Any, tuple], int] | None], ...] = (
    ("placements", "enumerate_placements", None),
    ("order", "rank_matrix", None),
    ("order", "leq_placement", None),
    ("order", "RankMatrix.__le__", None),
    ("order", "bruhat_leq", None),
    ("covers", "moves_general", _length),
    ("covers", "moves_orthogonal", _length),
    ("covers", "predecessors_general", _length),
    ("covers", "predecessors_orthogonal", _length),
    ("kerov", "kerov_map", None),
    ("kerov", "rank_general", None),
    ("kerov", "rank_orthogonal", None),
    ("poset", "build_poset", None),
    ("poset", "Poset.__init__", _edges_built),
    ("poset", "check_graded", None),
    ("poset", "brute_force_covers", None),
    ("verify", "verify_counts", _checked),
    ("verify", "verify_covers_general", _checked),
    ("verify", "verify_covers_orthogonal", _checked),
    ("verify", "verify_kerov_order", _checked),
    ("verify", "verify_kerov_covers", _checked),
    ("verify", "verify_graded_general", _checked),
    ("verify", "verify_graded_orthogonal", _checked),
    ("verify", "verify_bruhat", _checked),
    ("cli", "main", None),
)
MEMORY_TARGETS = ("poset.build_poset", "poset.Poset.init")
LAYERS = ("placements", "order", "covers", "kerov", "poset", "verify", "cli")
MOVES = ("covers.moves_general", "covers.moves_orthogonal")
PREDECESSORS = ("covers.predecessors_general", "covers.predecessors_orthogonal")


def metric_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__', '')}"


def per_layer_names() -> list[str]:
    """Every metric `Tracer.metrics` reports, in a stable order."""
    names = []
    for module, path, size_of in TARGETS:
        name = metric_name(module, path)
        names += [f"{name}.calls", f"{name}.s", f"{name}.self_s"]
        if module == "verify":
            names.append(f"{name}.checked")
    names += [f"{name}.peak_mb" for name in MEMORY_TARGETS]
    names += ["poset.hasse_edges", "covers.moves_per_call", "covers.distinct_ratio"]
    names += [f"share.{layer}" for layer in LAYERS + ("other",)]
    return names


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self.recording = False
        self.memory = False
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_size = array("q")
        self.peak_bytes: dict[str, int] = {}
        self._open: list[int] = []
        self._floors: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            m
            for key, m in sys.modules.items()
            if key == self.package.__name__ or key.startswith(self.package.__name__ + ".")
        ]
        for module, path, size_of in TARGETS:
            owner = getattr(self.package, module)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            wrapper = self._wrap(metric_name(module, path), original, size_of)
            if cls:
                self._swap(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._swap(m, key, wrapper)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _swap(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn: Callable, size_of) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        measures_memory = name in MEMORY_TARGETS
        tracer = self
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, span_size = self.span_start, self.span_end, self.span_size
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                if measures_memory and tracer.memory:
                    return tracer._measure_memory(name, fn, args, kwargs)
                return fn(*args, **kwargs)
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_size.append(-1)
            span_end.append(0.0)
            open_spans.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                open_spans.pop()
            if size_of is not None:
                span_size[index] = size_of(result, args)
            return result

        return wrapper

    def _measure_memory(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        # reset_peak forgets the enclosing call's peak so far, so each open
        # call keeps a floor that its children raise when they reset or end.
        # tracemalloc runs only inside the outermost measured call, so the
        # rest of the pass keeps its speed.
        outermost = not self._floors
        if outermost:
            tracemalloc.start()
        base, peak_before = tracemalloc.get_traced_memory()
        if self._floors:
            self._floors[-1] = max(self._floors[-1], peak_before)
        self._floors.append(0)
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = max(tracemalloc.get_traced_memory()[1], self._floors.pop())
            self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak - base)
            if self._floors:
                self._floors[-1] = max(self._floors[-1], peak)
            if outermost:
                tracemalloc.stop()

    def measure_memory(self, run: Callable[[], Any]) -> None:
        """Run `run` once, recording no spans but the memory peaks."""
        self.memory = True
        try:
            run()
        finally:
            self.memory = False

    def called(self, name: str) -> bool:
        return self.names.index(name) in self.span_name

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            size=np.frombuffer(self.span_size, dtype=np.int64),
        )

    def metrics(self, passes: int, wall_s: float) -> dict[str, float]:
        """Per-pass counts and seconds, layer shares of `wall_s` (the total
        traced time), and the derived covers ratios, from the spans.

        No traced function calls itself, directly or through another, so
        summing the durations of one name counts no interval twice.
        """
        k = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        size = np.frombuffer(self.span_size, dtype=np.int64)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - child_time
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=duration, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        sizes = np.bincount(name, weights=np.maximum(size, 0), minlength=k)

        out: dict[str, float] = {}
        by_id = {n: i for i, n in enumerate(self.names)}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = calls[i] / passes
            out[f"{n}.s"] = total[i] / passes
            out[f"{n}.self_s"] = own[i] / passes
            if n.startswith("verify."):
                out[f"{n}.checked"] = sizes[i] / passes
        for n in MEMORY_TARGETS:
            out[f"{n}.peak_mb"] = self.peak_bytes.get(n, 0) / 2**20
        out["poset.hasse_edges"] = sizes[by_id["poset.Poset.init"]] / passes

        move_ids = [by_id[n] for n in MOVES]
        pred_ids = [by_id[n] for n in PREDECESSORS]
        move_calls = calls[move_ids].sum()
        out["covers.moves_per_call"] = (
            sizes[move_ids].sum() / move_calls if move_calls else 0.0
        )
        # Moves made on behalf of predecessors_*, against the distinct
        # placements those calls returned.
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        from_preds = np.isin(name, move_ids) & np.isin(parent_name, pred_ids)
        generated = size[from_preds].sum()
        out["covers.distinct_ratio"] = (
            sizes[pred_ids].sum() / generated if generated else 0.0
        )

        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names])
        layer_self = np.bincount(
            layer_of[name], weights=self_time, minlength=len(LAYERS)
        )
        for layer, seconds in zip(LAYERS, layer_self):
            out[f"share.{layer}"] = seconds / wall_s
        out["share.other"] = 1.0 - layer_self.sum() / wall_s
        return {key: float(value) for key, value in out.items()}
