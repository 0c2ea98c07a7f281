"""Span tracing from outside the program, and the per-layer metrics.

The traced run replaces each public function listed in ``_targets`` with a
wrapper, at every place its callers look it up (modules that imported it
by name get the wrapper too), and restores the originals afterwards.  A
wrapper records one span per call -- name, start, end, parent span, run
id -- in memory, plus work counts derived from the call's arguments and
result, so the counts repeat exactly from run to run.  Nothing inside the
program changes.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


# (metric name, unit); BENCHMARK.json lists the same, with which way is better
LAYER_METRICS = [
    # the traced pass's stage wall times, stream tail and SRP accuracy
    ("features_s", "s"),
    ("fit_s", "s"),
    ("localize_s", "s"),
    ("localize_stream_s", "s"),
    ("baseline_gp_s", "s"),
    ("baseline_srp_s", "s"),
    ("step_p50_ms", "ms"),
    ("step_p99_ms", "ms"),
    ("rmse_srp_m", "m"),
    # acoustic_sim (+ the image-source backend it calls)
    ("simulate_rir.calls", "count"),
    ("simulate_rir.self_s", "s"),
    ("simulate_rir.p50_ms", "ms"),
    ("simulate_rir.images_within_order", "count"),
    ("simulate_rir.ns_per_image", "ns"),
    ("render_measurement.calls", "count"),
    ("render_measurement.self_s", "s"),
    # rtf_features
    ("artf_from_record.calls", "count"),
    ("artf_from_record.self_s", "s"),
    ("artf_from_record.p50_ms", "ms"),
    ("welch_cross_spectrum.calls", "count"),
    ("welch_cross_spectrum.calls_per_record", "count"),
    ("welch_cross_spectrum.self_s", "s"),
    # hyperopt
    ("optimize.calls", "count"),
    ("optimize.self_s", "s"),
    ("optimize.p50_ms", "ms"),
    ("optimize.iterations", "count"),
    ("optimize.converged", "count"),
    ("optimize.log_likelihood", "nats"),
    # kernels
    ("gram_stack.calls", "count"),
    ("gram_stack.self_s", "s"),
    ("gram_stack.p50_ms", "ms"),
    ("gram_stack.entries", "count"),
    ("mmgp_covariance.calls", "count"),
    ("mmgp_covariance.self_s", "s"),
    ("mmgp_covariance.p50_ms", "ms"),
    # mmgp_model
    ("fit.calls", "count"),
    ("fit.self_s", "s"),
    ("fit.p50_ms", "ms"),
    ("MmgpModel.predict.calls", "count"),
    ("MmgpModel.predict.self_s", "s"),
    ("MmgpModel.predict.p50_ms", "ms"),
    ("MmgpModel.update_recursive.calls", "count"),
    ("MmgpModel.update_recursive.self_s", "s"),
    ("MmgpModel.update_recursive.p50_ms", "ms"),
    ("MmgpModel.update_recursive.p99_ms", "ms"),
    ("save_model.calls", "count"),
    ("save_model.self_s", "s"),
    ("save_model.bytes", "bytes"),
    ("load_model.calls", "count"),
    ("load_model.self_s", "s"),
    ("load_model.bytes", "bytes"),
    ("conditioning_residual", "1"),
    # baselines
    ("srp_phat.calls", "count"),
    ("srp_phat.self_s", "s"),
    ("srp_phat.p50_ms", "ms"),
    ("srp_phat.grid_pair_evals", "count"),
    ("fit_mean_of_nodes.self_s", "s"),
    ("fit_kernel_product.self_s", "s"),
    ("MeanOfNodesModel.predict.self_s", "s"),
    ("KernelProductModel.predict.self_s", "s"),
    # dataio
    ("write_blob.calls", "count"),
    ("write_blob.bytes", "bytes"),
    ("write_blob.self_s", "s"),
    ("read_blob.calls", "count"),
    ("read_blob.bytes", "bytes"),
    ("read_blob.self_s", "s"),
    ("load_manifest.calls", "count"),
    ("load_manifest.self_s", "s"),
    ("load_manifest.p50_ms", "ms"),
    ("write_dataset.self_s", "s"),
    ("attach_features.self_s", "s"),
    # cli: orchestration outside child spans
    ("cmd_simulate.self_s", "s"),
    ("cmd_features.self_s", "s"),
    ("cmd_fit.self_s", "s"),
    ("cmd_localize.self_s", "s"),
    ("cmd_baseline.self_s", "s"),
    ("cmd_evaluate.self_s", "s"),
    # the tracer itself
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
]


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 for a root
    run_id: str
    start: float
    end: float = math.nan


@dataclass
class Tracer:
    """In-memory span store plus the counts recorded at layer boundaries."""

    run_id: str
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    last: dict = field(default_factory=dict)     # latest value of a per-call reading
    count_s: float = 0.0                         # time spent deriving counts
    gc_s: float = 0.0                            # time in garbage-collector pauses
    _gc_started: float = 0.0
    paused: bool = False                         # the benchmark's own checks run untraced
    _stack: list = field(default_factory=list)

    def on_gc(self, phase: str, info: dict) -> None:
        """gc.callbacks hook: a collection can land in any span's self time."""
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_started

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.run_id, perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                t0 = perf_counter()
                count(self, args, kwargs, result)
                self.count_s += perf_counter() - t0
            return result
        return traced

    def child_times(self) -> np.ndarray:
        """Per span, the summed duration of its direct children.

        Self times telescope, so this is also the sum of the self times
        of every span below it.
        """
        inner = np.zeros(len(self.spans))
        for s in self.spans:
            if s.parent >= 0:
                inner[s.parent] += s.end - s.start
        return inner

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        dur = np.array([s.end - s.start for s in self.spans])
        return dur - self.child_times()


# ---------------------------------------------------------------------------
# work counts, derived from arguments and results


@functools.lru_cache(maxsize=None)
def _images_within_order(half: tuple, max_order: int) -> int:
    """Lattice images with reflection order <= max_order in the evaluated box.

    Along one axis an image is (lattice index i, mirror flip a) with order
    |2i - a|; the 3-D count convolves the three per-axis order histograms.
    """
    hist = None
    for n in half:
        i = np.arange(-n, n + 1)
        orders = np.abs(np.concatenate([2 * i, 2 * i - 1]))
        axis = np.bincount(orders)
        hist = axis if hist is None else np.convolve(hist, axis)
    return int(hist[: max_order + 1].sum())


def _count_rir(tracer, args, kwargs, rir):
    from mmgploc import acoustic_sim

    scene = args[0]
    _, max_order = acoustic_sim._reflection_and_order(scene)
    samples_per_meter = scene.sample_rate / scene.sound_speed
    # the half-extents simulate_rir derives from the response length
    half = tuple(int(math.ceil(rir.size / (2.0 * L * samples_per_meter))) + 1
                 for L in scene.room_dims)
    tracer.counts["simulate_rir.images_within_order"] += _images_within_order(half, max_order)


def _count_gram(tracer, args, kwargs, result):
    tracer.counts["gram_stack.entries"] += result.per_node.size


def _count_srp(tracer, args, kwargs, result):
    from mmgploc.baselines import grid_points

    cfg = args[1]
    pairs = math.comb(cfg.num_channels, 2)
    tracer.counts["srp_phat.grid_pair_evals"] += grid_points(cfg).shape[0] * pairs


def _note_optimizer(tracer, args, kwargs, result):
    tracer.last["optimize.iterations"] = len(result.trace) - 1
    tracer.last["optimize.converged"] = int(result.converged)
    tracer.last["optimize.log_likelihood"] = result.log_likelihood


def _file_bytes(name: str, position: int):
    def count(tracer, args, kwargs, result):
        tracer.counts[f"{name}.bytes"] += os.path.getsize(args[position])
    return count


def _targets():
    """(lookup places, span name, count) for every wrapped function."""
    from mmgploc import (acoustic_sim, baselines, cli, dataio, hyperopt, kernels,
                         mmgp_model, rtf_features)

    model = mmgp_model.MmgpModel
    return [
        ([(acoustic_sim, "simulate_rir")], "simulate_rir", _count_rir),
        ([(acoustic_sim, "render_measurement")], "render_measurement", None),
        ([(rtf_features, "artf_from_record")], "artf_from_record", None),
        ([(rtf_features, "welch_cross_spectrum")], "welch_cross_spectrum", None),
        ([(hyperopt, "optimize")], "optimize", _note_optimizer),
        ([(kernels, "gram_stack"), (mmgp_model, "gram_stack"), (baselines, "gram_stack")],
         "gram_stack", _count_gram),
        ([(kernels, "mmgp_covariance"), (mmgp_model, "mmgp_covariance")],
         "mmgp_covariance", None),
        ([(mmgp_model, "fit"), (baselines, "fit_mmgp")], "fit", None),
        ([(model, "predict")], "MmgpModel.predict", None),
        ([(model, "update_recursive")], "MmgpModel.update_recursive", None),
        ([(model, "predict_recursive")], "MmgpModel.predict_recursive", None),
        ([(mmgp_model, "save_model")], "save_model", _file_bytes("save_model", 1)),
        ([(mmgp_model, "load_model")], "load_model", _file_bytes("load_model", 0)),
        ([(baselines, "srp_phat")], "srp_phat", _count_srp),
        ([(baselines, "fit_mean_of_nodes")], "fit_mean_of_nodes", None),
        ([(baselines, "fit_kernel_product")], "fit_kernel_product", None),
        ([(baselines.MeanOfNodesModel, "predict")], "MeanOfNodesModel.predict", None),
        ([(baselines.KernelProductModel, "predict")], "KernelProductModel.predict", None),
        ([(dataio, "write_blob")], "write_blob", _file_bytes("write_blob", 0)),
        ([(dataio, "read_blob")], "read_blob", _file_bytes("read_blob", 0)),
        ([(dataio, "load_manifest")], "load_manifest", None),
        ([(dataio, "write_dataset")], "write_dataset", None),
        ([(dataio, "attach_features")], "attach_features", None),
    ] + [([(cli, f"cmd_{stage}")], f"cmd_{stage}", None)
         for stage in ("simulate", "features", "fit", "localize", "baseline", "evaluate")]


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that restores the originals."""
    gc.callbacks.append(tracer.on_gc)
    saved = []
    for places, name, count in _targets():
        owner, attr = places[0]
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(name, original, count)
        for owner, attr in places:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def restore():
        gc.callbacks.remove(tracer.on_gc)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one wrapped call over a bare call, in seconds."""
    def noop():
        return None

    probe = Tracer(run_id="calibration")
    wrapped = probe.wrap("noop", noop)
    best_bare, best_wrapped = math.inf, math.inf
    for _ in range(5):
        t0 = perf_counter()
        for _ in itertools.repeat(None, repeats):
            noop()
        best_bare = min(best_bare, perf_counter() - t0)
        probe.spans.clear()
        t0 = perf_counter()
        for _ in itertools.repeat(None, repeats):
            wrapped()
        best_wrapped = min(best_wrapped, perf_counter() - t0)
    return max(best_wrapped - best_bare, 0.0) / repeats


def layer_metrics(tracer: Tracer, wall_s: float, per_span_s: float) -> dict:
    """Every LAYER_METRICS value from the finished span tree and counts."""
    own = tracer.self_times()
    by_name = defaultdict(list)
    for span, own_s in zip(tracer.spans, own):
        by_name[span.name].append((span.end - span.start, own_s))

    values = {}
    for name, unit in LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        calls = by_name.get(base, [])
        if stat == "calls":
            values[name] = len(calls)
        elif stat == "self_s":
            values[name] = float(sum(o for _, o in calls))
        elif stat in ("p50_ms", "p99_ms"):
            q = 50 if stat == "p50_ms" else 99
            values[name] = float(np.percentile([d for d, _ in calls], q)) * 1e3 \
                if calls else 0.0
        elif name in tracer.last:
            values[name] = tracer.last[name]
        else:
            values[name] = tracer.counts.get(name, 0)

    images = tracer.counts["simulate_rir.images_within_order"]
    values["simulate_rir.ns_per_image"] = \
        values["simulate_rir.self_s"] / images * 1e9 if images else 0.0
    records = values["artf_from_record.calls"]
    values["welch_cross_spectrum.calls_per_record"] = \
        values["welch_cross_spectrum.calls"] / records if records else 0.0
    overhead = len(tracer.spans) * per_span_s + tracer.count_s
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100.0 * overhead / wall_s
    return values
