"""The desk and online workloads: inputs, timed stages and output checks.

Both workloads run the same two phases in the desk room, so both report
every metric; they differ in where the time goes.

* Phase A, the pipeline: the CLI stage functions in order, ``cmd_simulate``
  -> ``cmd_features`` -> ``cmd_fit`` (learned widths) -> ``cmd_localize``
  (batch) -> ``cmd_localize`` (streaming) -> ``cmd_baseline`` x3 ->
  ``cmd_evaluate`` per estimate file.  The stages from features on run
  again in every pass until the run's ``--seconds`` is spent.
* Phase B, the block stream: a freshly loaded model takes audio blocks
  one at a time; each step is ``rtf_features.artf_from_record`` on the
  block and then ``MmgpModel.predict_recursive``, timed from block-in to
  position-out.

``desk`` spends its time in Phase A, where the simulator dominates, and
its stream replays the test records as blocks every pass (so its
estimates equal ``localize --streaming``).  ``online`` trains on the
labelled grid alone and spends its time in Phase B: a talker pauses at
four spots around the test loop while 1 s blocks, hopping 0.25 s along one
long recording per spot, arrive 1000 times.  No two blocks are identical,
and the pool grows past a thousand samples, so GP work per step grows and
sets the tail.  The long recordings are rendered during set-up.

The room layout (labelled grid, unlabelled draws, test loop) is fixed
from layout seed 3, the seed of the P6 acceptance run; ``--seed`` sets the
master seed, which draws every excitation and sensor-noise signal.  With
the layout fixed the GP methods' RMSEs move by about 2% between seeds
instead of about 20%, so they can carry a bound.  At ``--size p6`` and
``--seed 3`` the desk inputs are exactly those of P6.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from mmgploc import acoustic_sim, cli, dataio, mmgp_model, rtf_features

import tracing

LAYOUT_SEED = 3
SIGNAL = {"kind": "wgn", "duration_s": 2.0}
SCENE = {
    "room_dims": [4.0, 5.0, 3.0],
    "mic_positions": [[[0.5, 1.0, 1.5], [0.5, 1.2, 1.5]],
                      [[3.5, 2.5, 1.5], [3.5, 2.7, 1.5]],
                      [[1.8, 4.5, 1.5], [2.0, 4.5, 1.5]]],
    "t60": 0.4,
    "snr_db": 20.0,
    "sample_rate": 16000.0,
}
GRID_ORIGIN = [1.25, 1.75, 1.5]
GRID_SPACING = 0.5
UNLABELED_BOX = ([1.25, 1.75, 1.5], [2.75, 3.25, 1.5])
LOOP = {"center": [2.0, 2.5, 1.5], "radius": 0.6, "jitter": 0.05}
SRP = {"grid_min": [1.25, 1.75, 1.5], "grid_max": [2.75, 3.25, 1.5], "resolution": 0.25}

BLOCK_S = 1.0
HOP_S = 0.25
# P3's tolerance for streaming against a from-scratch fit
REFIT_RTOL, REFIT_ATOL = 1e-8, 1e-12
RESIDUAL_LIMIT = 1e-8


@dataclass(frozen=True)
class Shape:
    """Record counts of one workload at one size.

    ``blocks_per_spot`` of 0 streams the test records themselves, one
    block each; otherwise each test position gets one long recording cut
    into that many 1 s blocks.
    """

    grid: int               # the labelled set is a grid x grid square
    unlabeled: int
    test: int
    blocks_per_spot: int
    test_s: float = 4.0     # test-record length


# bench is what BENCHMARK.json runs; p6 is the P6 acceptance config (about
# 100 s of simulation for desk, beyond the per-run budget); toy feeds the
# self-check.  bench and toy record 4 s test signals: over 2 s, SRP-PHAT's
# argmax jumped between grid points in 3 seeds of 5, over 4 s in about 1 of 4.
SHAPES = {
    "bench": {"desk": Shape(4, 4, 8, 0), "online": Shape(4, 0, 4, 250)},
    "p6": {"desk": Shape(4, 40, 30, 0, test_s=2.0), "online": Shape(4, 0, 4, 250)},
    "toy": {"desk": Shape(2, 2, 2, 0), "online": Shape(2, 0, 1, 12)},
}


def pipeline_config(seed: int, shape: Shape) -> dict:
    """The desk experiment config at ``shape``, master seed ``seed``."""
    low, high = UNLABELED_BOX
    unlabeled = cli.random_positions(low, high, shape.unlabeled, 1000 * LAYOUT_SEED + 2)
    test = cli.loop_positions(LOOP["center"], LOOP["radius"], shape.test,
                              LOOP["jitter"], 1000 * LAYOUT_SEED + 3)

    def placed(points):
        # an empty position list reads back as one empty position, so an
        # empty set is spelled as a zero-count draw
        if len(points) == 0:
            return {"random": {"low": low, "high": low, "count": 0}}
        return {"positions": points.tolist()}

    return {
        "seed": seed,
        "method": "mmgp",
        "scene": SCENE,
        "labeled": {"grid": {"origin": GRID_ORIGIN, "spacing": GRID_SPACING,
                             "counts": [shape.grid, shape.grid, 1]},
                    "signal": SIGNAL},
        "unlabeled": {**placed(unlabeled), "signal": SIGNAL},
        "test": {**placed(test), "signal": {**SIGNAL, "duration_s": shape.test_s}},
        "hyperparameters": "learn",
        "srp": SRP,
    }


class Ledger:
    """Checked operations and the ones whose outputs failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, what: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Stopwatch:
    """Times each operation; when tracing, each is also a root span."""

    def __init__(self, tracer: tracing.Tracer | None):
        self.tracer = tracer
        self.samples = defaultdict(list)
        self.stage_spans = []      # (stage, span index, wall s, count and gc s)

    def run(self, stage: str, fn, *args, **kwargs):
        tracer = self.tracer
        if tracer is not None:
            index = tracer.open(f"stage.{stage}")
            counted = tracer.count_s + tracer.gc_s
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = perf_counter() - t0
            self.samples[stage].append(wall)
            if tracer is not None:
                tracer.close(index)
                self.stage_spans.append(
                    (stage, index, wall, tracer.count_s + tracer.gc_s - counted))


def _quiet(tracer):
    """Context in which the benchmark's own reads and checks go untraced."""
    return tracer.pause() if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# output checks


def _header_hash(path):
    with open(path) as fh:
        first = fh.readline().strip()
    return first.removeprefix("# config_hash=") if first.startswith("# config_hash=") else None


def _read_estimates(path):
    """Record ids and the (x, y, z, var_x, var_y, var_z) rows of an estimates CSV."""
    with open(path) as fh:
        rows = list(csv.reader(fh))[2:]      # after the hash line and the header
    return [r[0] for r in rows], np.array([[float(v) for v in r[1:]] for r in rows])


def _estimates_ok(path, fingerprint, test_ids) -> bool:
    ids, values = _read_estimates(path)
    return (_header_hash(path) == fingerprint and ids == test_ids
            and np.all(np.isfinite(values[:, :3])))


# ---------------------------------------------------------------------------
# phase A: the CLI pipeline


def _model_stages(clock, cfg, ds, rep: Path, fingerprint, test_ids, ledger, tracer):
    """fit -> localize (batch, streaming) -> baselines -> evaluate, checked."""
    rep.mkdir(parents=True, exist_ok=True)
    model = rep / "model.bin"
    clock.run("fit", cli.cmd_fit, cfg, ds, model)
    with _quiet(tracer):
        sidecar = json.loads(Path(str(model) + ".meta.json").read_text())
        ledger.check("fit: sidecar carries the config hash",
                     sidecar["config_hash"] == fingerprint and model.stat().st_size > 0)

    estimates = {"mmgp": rep / "est_mmgp.csv", "stream": rep / "est_stream.csv"}
    clock.run("localize", cli.cmd_localize, model, ds, estimates["mmgp"])
    clock.run("localize_stream", cli.cmd_localize, model, ds, estimates["stream"],
              streaming=True)
    for method, tag in (("mean", "mean"), ("kernel-product", "kp"), ("srp-phat", "srp")):
        estimates[tag] = rep / f"est_{tag}.csv"
        clock.run(f"baseline_{tag}", cli.cmd_baseline, cfg, method, ds, estimates[tag],
                  model_path=model)
    with _quiet(tracer):
        for tag, path in estimates.items():
            ledger.check(f"{tag}: one finite estimate per test record, hashed",
                         _estimates_ok(path, fingerprint, test_ids))

    rmse = {}
    for tag, path in estimates.items():
        out = rep / f"metrics_{tag}.csv"
        rmse[tag] = clock.run("evaluate", cli.cmd_evaluate, path, ds, out)["rmse"]
        ledger.check(f"evaluate {tag}: finite rmse, hashed",
                     math.isfinite(rmse[tag]) and _header_hash(out) == fingerprint)
    return rmse


def _pass_files(rep: Path):
    return sorted(p.name for p in rep.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# phase B: the block stream


class _Stream:
    """A freshly loaded model that takes blocks one step at a time."""

    def __init__(self, model_path, spectral, tracer):
        with _quiet(tracer):
            self.model = mmgp_model.load_model(model_path)
        self.spectral = spectral
        self.tracer = tracer
        self.estimates = []          # (position, variance, truth) per step
        self.step_s = []
        self._last = None            # (features, prediction) of the last step

    def _step(self, signals):
        record = acoustic_sim.MeasurementRecord(
            signals=signals, sample_rate=self.spectral.sample_rate,
            num_nodes=self.model.num_nodes)
        features = rtf_features.artf_from_record(record, self.spectral).stack()
        return features, self.model.predict_recursive(features)

    def feed(self, clock, blocks, ledger) -> None:
        for signals, truth in blocks:
            features, pred = clock.run("step", self._step, signals)
            self.step_s.append(clock.samples["step"][-1])
            var = pred.variance
            ledger.check("step: finite estimate, 0 <= variance <= prior",
                         np.all(np.isfinite(pred.position)) and np.all(np.isfinite(var))
                         and np.all(var >= 0) and np.all(var <= pred.prior_variance))
            self.estimates.append((pred.position, var, truth))
            self._last = features, pred

    def finish(self, ledger) -> float:
        """Check the grown model's health and refit agreement; returns the RMSE."""
        model, (features, pred) = self.model, self._last
        with _quiet(self.tracer):
            residual = model.conditioning_residual()
            ledger.check(f"stream: conditioning residual {residual:.2e} <= {RESIDUAL_LIMIT}",
                         residual <= RESIDUAL_LIMIT)
            ref = mmgp_model.fit(model.pool, model.positions,
                                 model.hyperparameters).predict(features)
            ledger.check("stream: last step matches a from-scratch fit on the grown pool",
                         np.allclose(pred.position, ref.position,
                                     rtol=REFIT_RTOL, atol=REFIT_ATOL)
                         and np.allclose(pred.variance, ref.variance,
                                         rtol=REFIT_RTOL, atol=REFIT_ATOL))
        if self.tracer is not None:
            self.tracer.last["conditioning_residual"] = residual
        errors = np.array([np.linalg.norm(pos - truth) for pos, _, truth in self.estimates])
        return float(np.sqrt(np.mean(errors**2)))


def _spot_recordings(cfg, seed, shape):
    """One long recording per test position, cut into 1 s blocks."""
    scene = dataio.scene_from_dict(cfg["scene"])
    fs = scene.sample_rate
    block, hop = int(round(BLOCK_S * fs)), int(round(HOP_S * fs))
    duration = BLOCK_S + HOP_S * (shape.blocks_per_spot - 1)
    spots = np.asarray(cfg["test"]["positions"], dtype=float)
    blocks = []
    for s, spot in enumerate(spots):
        excitation = acoustic_sim.white_noise_signal(
            duration, fs, np.random.default_rng((seed, 7, s)))
        signals = acoustic_sim.render_measurement(scene, spot, excitation, (seed, 8, s)).signals
        blocks += [(signals[:, k * hop:k * hop + block], spot)
                   for k in range(shape.blocks_per_spot)]
    return blocks


def _test_record_blocks(ds):
    """The test records themselves, one block each, in manifest order."""
    evaluation = dataio.load_manifest(Path(ds) / dataio.EVALUATION_NAME)
    return [(dataio.read_record_signals(evaluation, e), np.asarray(e["true_position"]))
            for e in dataio.records_by_role(evaluation, "test")]


# ---------------------------------------------------------------------------
# one workload


def run(name: str, size: str, seed: int, seconds: float, work: Path,
        tracer: tracing.Tracer | None, import_s: float):
    """Run one workload; returns ({metric: (value, unit, samples)}, ledger).

    ``import_s`` is the time the process took to load the program, which
    counts as set-up.
    """
    setup_started = perf_counter()
    shape = SHAPES[size][name]
    ledger = Ledger()
    clock = Stopwatch(tracer)

    # set-up: config, and for online the long recordings the stream plays
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(pipeline_config(seed, shape)))
    cfg = cli.resolve_config(cfg_path)
    fingerprint = cli.config_fingerprint(cfg)
    spectral = dataio.spectral_from_dict(cfg["spectral"])
    with _quiet(tracer):
        spot_blocks = _spot_recordings(cfg, seed, shape) if shape.blocks_per_spot else None
    setup_s = import_s + perf_counter() - setup_started

    ds = work / "ds"
    clock.run("simulate", cli.cmd_simulate, cfg, ds)
    with _quiet(tracer):
        manifest = dataio.load_manifest(ds)
        evaluation = dataio.load_manifest(ds / dataio.EVALUATION_NAME)
        count = shape.grid**2 + shape.unlabeled + shape.test
        ledger.check("simulate: both manifests carry the config hash, all records",
                     manifest["config_hash"] == fingerprint
                     and evaluation["config_hash"] == fingerprint
                     and len(manifest["records"]) == count)
        test_ids = [e["id"] for e in dataio.records_by_role(manifest, "test")]
        replay = _test_record_blocks(ds) if spot_blocks is None else None

    # Passes of features, model stages and stream work until --seconds
    # is spent.  desk replays its test records from a fresh model every
    # pass; online plays its whole stream in pass 0.  A traced run makes
    # one pass, so its counts repeat exactly.
    rep0 = work / "pass0"
    streams = []
    started = perf_counter()
    rep = 0
    while True:
        rep_dir = work / f"pass{rep}"
        if rep == 0 or tracer is None:
            clock.run("features", cli.cmd_features, ds)
            with _quiet(tracer):
                manifest = dataio.load_manifest(ds)
                ledger.check("features: every record has features",
                             manifest["config_hash"] == fingerprint
                             and all(r["features"] is not None for r in manifest["records"]))
            rmse = _model_stages(clock, cfg, ds, rep_dir, fingerprint, test_ids,
                                 ledger, tracer)
            if rep == 0:
                first_rmse = rmse
                pipeline_s = sum(sum(v) for v in clock.samples.values())
            else:
                files = _pass_files(rep0)
                ledger.check(f"pass {rep}: model, sidecar, trace, estimates and metrics "
                             f"byte-identical to pass 0",
                             _pass_files(rep_dir) == files and rmse == first_rmse and all(
                                 filecmp.cmp(rep0 / f, rep_dir / f, shallow=False)
                                 for f in files))
        if replay is not None or rep == 0:
            streams.append(_Stream(rep_dir / "model.bin", spectral, tracer))
            streams[-1].feed(clock, replay if replay is not None else spot_blocks, ledger)
        rep += 1
        if tracer is not None or perf_counter() - started >= seconds:
            break

    stream_rmse = [st.finish(ledger) for st in streams]
    ledger.check("every replay of the stream gives the same RMSE",
                 len(set(stream_rmse)) == 1)
    if replay is not None:
        _, cli_stream = _read_estimates(rep0 / "est_stream.csv")
        mine = np.array([np.concatenate([pos, var]) for pos, var, _ in streams[0].estimates])
        ledger.check("desk stream equals localize --streaming",
                     np.array_equal(mine, cli_stream))
    total_s = pipeline_s + sum(streams[0].step_s)

    s = clock.samples
    if tracer is None:
        return {
            "setup_s": (setup_s, "s", 1),
            "total_s": (total_s, "s", 1),
            "simulate_s": (s["simulate"][0], "s", 1),
            "rmse_mmgp_m": (first_rmse["mmgp"], "m", len(test_ids)),
            "rmse_stream_m": (stream_rmse[0], "m", len(streams[0].estimates)),
            "rmse_mean_m": (first_rmse["mean"], "m", len(test_ids)),
            "rmse_kp_m": (first_rmse["kp"], "m", len(test_ids)),
        }, ledger

    # traced: the stage times of the one pass, per-layer metrics, and each
    # stage's wall time accounted for by the self times of the program
    # spans below it
    steps_ms = np.array(streams[0].step_s) * 1e3
    tracer.last.update({
        "features_s": s["features"][0],
        "fit_s": s["fit"][0],
        "localize_s": s["localize"][0],
        "localize_stream_s": s["localize_stream"][0],
        "baseline_gp_s": s["baseline_mean"][0] + s["baseline_kp"][0],
        "baseline_srp_s": s["baseline_srp"][0],
        "step_p50_ms": float(np.percentile(steps_ms, 50)),
        "step_p99_ms": float(np.percentile(steps_ms, 99)),
        "rmse_srp_m": first_rmse["srp"],
    })
    per_span = tracing.span_cost_s()
    inner = tracer.child_times()
    for stage, index, wall, counted in clock.stage_spans:
        # what a stage span holds outside program spans: the outermost
        # wrapper's entry and exit, counts taken there, garbage-collector
        # pauses, and (for a stream step) wrapping the block in a
        # MeasurementRecord
        allowance = 1e-3 + 10 * per_span + counted
        gap = wall - inner[index]
        ledger.check(f"trace {stage}: layer self times sum to the stage wall "
                     f"(gap {gap * 1e3:.3f} ms)", -1e-6 <= gap <= allowance)
    layers = tracing.layer_metrics(tracer, total_s, per_span)
    calls = Counter(span.name for span in tracer.spans)
    return {n: (layers[n], unit, calls.get(n.rpartition(".")[0], 1))
            for n, unit in tracing.LAYER_METRICS}, ledger
