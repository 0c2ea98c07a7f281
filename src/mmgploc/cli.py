"""Experiment harness: simulate, extract, fit, localize, evaluate.

One JSON config file drives the whole pipeline.  Every artifact carries
the hash of the resolved config that produced it, and commands refuse to
mix artifacts from different configs.  Importing this module applies the
``MMGP_THREADS`` cap before NumPy loads; the SciPy-backed modules are
imported inside the commands that use them, so each process loads only
what its command needs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path


def _cap_threads() -> None:
    """Honor MMGP_THREADS by capping the numeric backends' thread pools."""
    cap = os.environ.get("MMGP_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = cap


_cap_threads()

# NumPy, and every module that imports it, loads after the cap
import numpy as np  # noqa: E402

from . import dataio as dio  # noqa: E402
from .kernels import Hyperparameters, median_heuristic  # noqa: E402

METHODS = ("mmgp", "mean", "kernel-product", "srp-phat")


# ---------------------------------------------------------------------------
# configuration


def resolve_config(path, seed=None) -> dict:
    """Load a config file and normalize it to a fully explicit dict.

    A ``seed`` from the command line replaces the config's before defaults
    are filled in, so the config hash reflects what actually ran.  Scene
    and spectral defaults are the ``SceneConfig`` and ``SpectralConfig``
    field defaults.  Every fact of the config is checked here, before any
    command runs, and each fault is a ``ValueError`` that names the section
    and the key: a key the top level, a section, a placement, a ``signal``
    or the hyperparameters do not know, widths beside the median strategy
    among them; a master or role ``seed`` that is not a non-negative
    integer, a grid ``spacing`` that is not positive, or a ``streaming``
    that is not a boolean; a role section that gives more than one
    placement; a missing or wrongly typed section, scene, spectral, role,
    placement, ``signal``, ``srp`` or ``hyperparameters`` field; scene and
    spectral settings ``SceneConfig`` and ``SpectralConfig`` refuse, an
    ``srp`` grid or hyperparameter range that ``grid_counts`` or
    ``Hyperparameters`` refuses, explicit widths that are not one per node,
    or a spectral ``sample_rate`` other than the scene's, at which the
    signals are recorded; a signal ``kind`` other than ``"wgn"`` and
    ``"speech"``, and a ``duration_s`` shorter than one spectral window:
    without the room's echo tail, such a record is too short for feature
    extraction.
    """
    from .acoustic_sim import EXCITATIONS, SceneConfig, grid_counts
    from .rtf_features import SpectralConfig

    with open(path) as fh:
        cfg = dict(dio.check_fields(json.load(fh), "config", {}, known=_TOP_LEVEL))
    if seed is not None:
        cfg["seed"] = seed

    cfg.setdefault("seed", 0)
    cfg.setdefault("method", "mmgp")
    cfg.setdefault("streaming", False)
    cfg.setdefault("hyperparameters", "learn")
    if cfg["method"] not in METHODS:
        raise ValueError(f"unknown method {cfg['method']!r}; choose from {METHODS}")
    dio.check_fields(cfg, "config", {"seed": dio.INTEGER, "streaming": _BOOLEAN})
    # type first, then range, so a seed of another type reads as before
    dio.check_fields(cfg, "config", {"seed": dio.COUNT})
    defaults = dio.field_defaults(SceneConfig)
    scene = dio.check_fields(cfg.get("scene"), "'scene' section", dio.SCENE, optional=defaults,
                             known=dio.SCENE)
    spectral = dio.check_fields(cfg.get("spectral", {}), "'spectral' section", dio.SPECTRAL,
                                optional=dio.SPECTRAL, known=dio.SPECTRAL)
    scene = {**defaults, **scene}
    # SceneConfig's range rules: room, microphones inside it, rates, speed and a feasible t60
    _in_section("'scene' section", dio.scene_from_dict, scene)
    rate = scene["sample_rate"]
    # the signals are recorded at the scene's rate, and features are read at the spectral one
    dio.check_fields(spectral, "'spectral' section",
                     {"sample_rate": (lambda v: v == rate, f"the scene's {rate}")},
                     optional=("sample_rate",))
    cfg["scene"] = scene
    cfg["spectral"] = {**dio.field_defaults(SpectralConfig), "sample_rate": rate, **spectral}
    window = SpectralConfig(**cfg["spectral"]).window_samples
    # kind and duration are checked for type first, then for what make_signal can render
    # and feature extraction can read; a duration is rounded to samples as the excitations do
    recipe = {"kind": (lambda v: v in EXCITATIONS, f"one of {', '.join(map(repr, EXCITATIONS))}"),
              "duration_s": (lambda v: v > 0 and math.isfinite(v * rate)
                             and round(v * rate) >= window,
                             f"at least one spectral window, {window} samples at {rate} Hz")}

    for offset, role in enumerate(dio.ROLES, 1):
        where = f"'{role}' section"
        sec = dict(dio.check_fields(cfg.get(role), where, _ROLE, optional=_ROLE,
                                    known=_ROLE_KEYS))
        dio.check_fields(sec, where, {"seed": dio.COUNT}, optional=("seed",))
        # a section places its sources one way; one with none resolves, and
        # _positions_for refuses it
        placed = [k for k in ("positions", *_PLACEMENTS) if k in sec]
        if len(placed) > 1:
            raise ValueError(f"{where} gives {' and '.join(map(repr, placed))}; "
                             "give one of 'positions', 'grid', 'random' and 'loop'")
        for kind in placed:
            if kind in _PLACEMENTS:
                dio.check_fields(sec[kind], f"{where}'s {kind!r}", _PLACEMENTS[kind],
                                 optional=("jitter",), known=_PLACEMENTS[kind])
        if "grid" in sec:
            # type first, then range, as the seeds are checked
            dio.check_fields(sec["grid"], f"{where}'s 'grid'", {"spacing": _POSITIVE})
        sec.setdefault("seed", 1000 * cfg["seed"] + offset)
        sig = dict(dio.check_fields(sec.get("signal", {}), f"{where}'s 'signal'", _SIGNAL,
                                    optional=_SIGNAL, known=_SIGNAL))
        sig.setdefault("kind", "wgn")
        sig.setdefault("duration_s", 2.0)
        sec["signal"] = dio.check_fields(sig, f"{where}'s 'signal'", recipe)
        cfg[role] = sec

    if "srp" in cfg:
        srp = dio.check_fields(cfg["srp"], "'srp' section", _SRP_FIELDS, known=_SRP_FIELDS)
        _in_section("'srp' section", grid_counts, srp["grid_min"], srp["grid_max"],
                    srp["resolution"])
    hp = cfg["hyperparameters"]
    if not (hp == "learn" or (isinstance(hp, dict) and
                              (hp.get("strategy") == "median" or "eps" in hp))):
        raise ValueError("hyperparameters must be 'learn', {'strategy': 'median', ...} "
                         "or an explicit {'eps': [...], 'sigma2': ...}")
    if isinstance(hp, dict):
        # the median strategy derives eps and defaults sigma2; the explicit form needs both
        median = hp.get("strategy") == "median"
        if median:
            dio.check_fields(hp, "'hyperparameters'", _NOISE, optional=_NOISE,
                             known=("strategy", *_NOISE))
        else:
            dio.check_fields(hp, "'hyperparameters'", _HYPERPARAMETERS, optional=("jitter",),
                             known=_HYPERPARAMETERS)
            nodes = len(scene["mic_positions"])
            if len(hp["eps"]) != nodes:
                raise ValueError(f"'hyperparameters': 'eps' must give one width per node, "
                                 f"{nodes}, got {hp['eps']!r}")
        # Hyperparameters' range rules; a unit width stands in for the pool's median ones
        _in_section("'hyperparameters'", Hyperparameters, eps=1.0 if median else hp["eps"],
                    sigma2=hp.get("sigma2", 0.0), jitter=hp.get("jitter"))
    return cfg


def _in_section(where: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, whose ValueError is raised again prefixed with ``where``."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


_TOP_LEVEL = ("seed", "method", "streaming", "hyperparameters", "scene", "spectral", *dio.ROLES,
              "srp")
# field -> (check, what it expects), as dataio.check_fields takes them
_BOOLEAN = (lambda v: isinstance(v, bool), "true or false")
_POINTS = (lambda v: isinstance(v, list) and all(map(dio.is_point, v)),
           "a list of [x, y, z] points of finite numbers")
_POSITIVE = (lambda v: v > 0, "positive")
_PLACEMENTS = {
    "grid": {"origin": dio.POINT, "spacing": dio.NUMBER,
             "counts": (lambda v: isinstance(v, list) and len(v) == 3
                        and all(map(dio.is_count, v)), "a list of 3 non-negative integers")},
    "random": {"low": dio.POINT, "high": dio.POINT, "count": dio.COUNT},
    "loop": {"center": dio.POINT, "radius": dio.NUMBER, "count": dio.COUNT,
             "jitter": dio.NUMBER},
}
# a role section: these fields, the placements and the excitation's ``signal``
_ROLE = {"positions": _POINTS, "order": (lambda v: v == "nearest", "'nearest'"),
         "seed": dio.INTEGER}
_ROLE_KEYS = ("positions", *_PLACEMENTS, "order", "seed", "signal")
_SIGNAL = {"kind": dio.TEXT, "duration_s": dio.NUMBER}
_SRP_FIELDS = {"grid_min": dio.POINT, "grid_max": dio.POINT, "resolution": dio.NUMBER}
_EPS = (lambda v: isinstance(v, list) and all(map(dio.is_number, v)), "a list of finite numbers")
_NOISE = {"sigma2": dio.NUMBER, "jitter": dio.NUMBER}
_HYPERPARAMETERS = {"eps": _EPS, **_NOISE}


# the hash of a resolved config, which every artifact of its run carries
config_fingerprint = dio.config_hash


def random_positions(low, high, count, seed):
    rng = np.random.default_rng(seed)
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    return low + (high - low) * rng.uniform(size=(int(count), 3))


def nearest_neighbor_order(points):
    """Greedy tour from the first point; consecutive entries are neighbors."""
    points = np.asarray(points, dtype=float)
    remaining = list(range(1, len(points)))
    order = [0] if len(points) else []
    while remaining:
        here = points[order[-1]]
        dists = [float(np.linalg.norm(points[i] - here)) for i in remaining]
        order.append(remaining.pop(int(np.argmin(dists))))
    return points[order]


def loop_positions(center, radius, count, jitter, seed):
    """Jittered closed circle in the horizontal plane, for streaming runs.

    Consecutive points are neighbors and the path returns to its start,
    so samples absorbed early support the end of the stream.
    """
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    theta = 2.0 * np.pi * np.arange(int(count)) / int(count)
    pts = np.tile(center, (int(count), 1))
    pts[:, 0] += radius * np.cos(theta) + jitter * rng.standard_normal(count)
    pts[:, 1] += radius * np.sin(theta) + jitter * rng.standard_normal(count)
    return pts


def _positions_for(sec: dict, role: str):
    """The (n, 3) source positions of a role section that ``resolve_config`` checked."""
    if "positions" in sec:
        pts = np.asarray(sec["positions"], dtype=float).reshape(-1, 3)
    elif "grid" in sec:
        from .acoustic_sim import grid_positions

        g = sec["grid"]
        pts = grid_positions(g["origin"], g["spacing"], g["counts"])
    elif "random" in sec:
        r = sec["random"]
        pts = random_positions(r["low"], r["high"], r["count"], sec["seed"])
    elif "loop" in sec:
        lo = sec["loop"]
        pts = loop_positions(lo["center"], lo["radius"], lo["count"],
                             lo.get("jitter", 0.0), sec["seed"])
    else:
        raise ValueError(
            f"'{role}' section needs 'positions', 'grid', 'random' or 'loop'")
    if sec.get("order") == "nearest":
        pts = nearest_neighbor_order(pts)
    return pts


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: dict, out_dir) -> str:
    """Render each record as ``write_dataset`` asks for it; returns the manifest path.

    Every source position is checked before anything is written.
    """
    from . import acoustic_sim as sim

    scene = dio.scene_from_dict(cfg["scene"])
    spectral = dio.spectral_from_dict(cfg["spectral"])
    positions = {role: _positions_for(cfg[role], role) for role in dio.ROLES}
    for role, pts in positions.items():
        for pos in pts:
            sim.check_inside(pos, scene.room_dims, f"{role} source")

    def records():
        for role, pts in positions.items():
            sec = cfg[role]
            for i, pos in enumerate(pts):
                signal = sim.make_signal(sec["signal"]["kind"], sec["signal"]["duration_s"],
                                         sec["seed"], i, scene.sample_rate)
                yield (role, f"{role}_{i:04d}", pos,
                       sim.render_measurement(scene, pos, signal, (sec["seed"], i, 1)).signals)

    return dio.write_dataset(out_dir, scene, records(), spectral=spectral,
                             config_hash=config_fingerprint(cfg))


def cmd_features(dataset_dir) -> int:
    """Extract aggregated RTFs for every record and attach them."""
    from .rtf_features import artf_from_record
    from .acoustic_sim import MeasurementRecord

    manifest = dio.load_manifest(dataset_dir)
    spectral = dio.spectral_from_dict(manifest["spectral"])
    num_nodes = len(manifest["scene"]["mic_positions"])
    feats = {}
    for entry in manifest["records"]:
        signals = dio.read_record_signals(manifest, entry)
        record = MeasurementRecord(signals=signals, sample_rate=spectral.sample_rate,
                                   num_nodes=num_nodes)
        feats[entry["id"]] = artf_from_record(record, spectral).stack()
    dio.attach_features(dataset_dir, feats)
    return len(feats)


def _load_pool(manifest):
    """Training features, labeled first, plus the labeled positions."""
    labeled = dio.records_by_role(manifest, "labeled")
    unlabeled = dio.records_by_role(manifest, "unlabeled")
    rows = [dio.read_record_features(manifest, r) for r in labeled + unlabeled]
    positions = np.asarray([r["true_position"] for r in labeled], dtype=float)
    return np.stack(rows), positions


def _hyperparameters(cfg: dict, pool, positions, model=None):
    """The config's hyperparameters, and the optimizer's result when it learns them.

    A loaded ``model`` carries this config's hash, so its widths and noise
    are what the spec gave; only the jitter is read from the config.
    """
    spec = cfg["hyperparameters"]
    jitter = spec.get("jitter") if isinstance(spec, dict) else None
    if model is not None:
        return dataclasses.replace(model.hyperparameters, jitter=jitter), None
    if spec == "learn":
        # only learning needs scipy.optimize
        from . import hyperopt as ho

        result = ho.optimize(pool, positions)
        if result.warning:
            print(f"warning: {result.warning}", file=sys.stderr)
        return result.hyperparameters, result
    eps = median_heuristic(pool) if spec.get("strategy") == "median" else spec["eps"]
    return Hyperparameters(eps=eps, sigma2=float(spec.get("sigma2", 0.1)), jitter=jitter), None


def _config_manifest(cfg: dict, dataset_dir) -> dict:
    """The dataset's manifest, checked to have been made by ``cfg``."""
    manifest = dio.load_manifest(dataset_dir)
    _check_hash(manifest["config_hash"], config_fingerprint(cfg), "dataset", "config")
    return manifest


def _dataset_model(model_path, manifest: dict):
    """The model at ``model_path``, checked to have been fit on the dataset's config."""
    from . import mmgp_model as mm

    model = mm.load_model(model_path)
    _check_hash(model.config_hash, manifest["config_hash"], "model", "dataset")
    return model


def cmd_fit(cfg: dict, dataset_dir, model_path) -> str:
    from . import mmgp_model as mm

    manifest = _config_manifest(cfg, dataset_dir)
    pool, positions = _load_pool(manifest)
    model_path = Path(model_path)
    hp, result = _hyperparameters(cfg, pool, positions)
    model = mm.fit(pool, positions, hp)
    # the model file carries the hash and is all later stages read; the trace
    # and sidecar are views for people, written after it, and a fit that does
    # not learn removes an earlier fit's trace
    mm.save_model(model, model_path, manifest["config_hash"])
    trace_path = model_path.with_suffix(".trace.csv")
    if result is not None:
        from . import hyperopt as ho

        ho.write_trace_csv(result, trace_path)
    else:
        trace_path.unlink(missing_ok=True)
    sidecar = {
        "config_hash": manifest["config_hash"],
        "method": "mmgp",
        "eps": [float(e) for e in hp.eps],
        "sigma2": float(hp.sigma2),
        "jitter_used": model.jitter_used,
        "learned": result is not None,
    }
    dio._dump_json(str(model_path) + ".meta.json", sidecar)
    return str(model_path)


def _check_hash(a: str, b: str, what_a: str, what_b: str) -> None:
    if a != b:
        raise ValueError(f"config hash mismatch: {what_a} has {a[:12]}…, "
                         f"{what_b} has {b[:12]}…")


def _test_entries(manifest, shuffle_seed=None):
    entries = dio.records_by_role(manifest, "test")
    if shuffle_seed is not None:
        if shuffle_seed < 0:
            raise ValueError(f"--shuffle-seed must be a non-negative integer, got {shuffle_seed}")
        order = np.random.default_rng(shuffle_seed).permutation(len(entries))
        entries = [entries[i] for i in order]
    return entries


def _predictions(predict, manifest, entries) -> list:
    """``(id, position, variance)`` of each entry, ``predict`` applied to its features."""
    rows = []
    for entry in entries:
        pred = predict(dio.read_record_features(manifest, entry))
        rows.append((entry["id"], pred.position, pred.variance))
    return rows


def cmd_localize(model_path, dataset_dir, out_path, streaming=False,
                 shuffle_seed=None) -> str:
    manifest = dio.load_manifest(dataset_dir)
    model = _dataset_model(model_path, manifest)
    predict = model.predict_recursive if streaming else model.predict
    rows = _predictions(predict, manifest, _test_entries(manifest, shuffle_seed))
    _write_estimates(out_path, manifest["config_hash"], rows)
    return str(out_path)


def cmd_baseline(cfg: dict, method: str, dataset_dir, out_path,
                 model_path=None) -> str:
    from . import baselines as bl

    if method not in METHODS[1:]:
        raise ValueError(f"unknown baseline {method!r}")
    manifest = _config_manifest(cfg, dataset_dir)
    entries = _test_entries(manifest)
    if method == "srp-phat":
        srp = cfg.get("srp")
        if not srp:
            raise ValueError("srp-phat needs an 'srp' config section")
        mics = np.asarray(manifest["scene"]["mic_positions"],
                          dtype=float).reshape(-1, 3)
        srp_cfg = bl.SrpConfig(
            mic_positions=mics,
            grid_min=srp["grid_min"], grid_max=srp["grid_max"],
            resolution=srp["resolution"],
            band_low_hz=cfg["spectral"]["band_low_hz"],
            band_high_hz=cfg["spectral"]["band_high_hz"],
            sample_rate=manifest["scene"]["sample_rate"],
            sound_speed=manifest["scene"]["sound_speed"])
        rows = [(entry["id"], bl.srp_phat(dio.read_record_signals(manifest, entry), srp_cfg),
                 np.full(3, math.nan)) for entry in entries]
    else:
        pool, positions = _load_pool(manifest)
        model = None if model_path is None else _dataset_model(model_path, manifest)
        hp, _ = _hyperparameters(cfg, pool, positions, model)
        fitted = bl.fit_mean_of_nodes(pool, positions, hp) if method == "mean" \
            else bl.fit_kernel_product(pool, positions, hp)
        rows = _predictions(fitted.predict, manifest, entries)
    _write_estimates(out_path, manifest["config_hash"], rows)
    return str(out_path)


def cmd_evaluate(estimates_path, dataset_dir, out_path, block_size=5) -> dict:
    if block_size < 1:
        raise ValueError(f"block size must be at least 1, got {block_size}")
    manifest = dio.load_manifest(Path(dataset_dir) / dio.EVALUATION_NAME)
    est_hash, rows = _read_estimates(estimates_path)
    _check_hash(est_hash, manifest["config_hash"], "estimates", "dataset")
    if not rows:
        raise ValueError(f"{estimates_path}: no estimates to evaluate")
    truth = {r["id"]: r["true_position"] for r in manifest["records"]
             if r["true_position"] is not None}
    errors = []
    seen = set()
    for rec_id, pos, _var in rows:
        if rec_id not in truth:
            raise ValueError(f"{estimates_path}: no ground truth for record {rec_id!r}")
        if rec_id in seen:
            raise ValueError(f"{estimates_path}: record {rec_id!r} has a second estimate")
        seen.add(rec_id)
        want = np.asarray(truth[rec_id])
        if pos.shape != want.shape:
            raise ValueError(f"{estimates_path}: record {rec_id!r} has {pos.size} estimated "
                             f"coordinates, its ground truth {want.size}")
        errors.append(float(np.linalg.norm(pos - want)))
    errors = np.asarray(errors)
    rmse = float(np.sqrt(np.mean(errors**2)))
    _write_metrics(out_path, est_hash, [r[0] for r in rows], errors, rmse, block_size)
    return {"rmse": rmse, "errors": errors}


def _write_metrics(path, config_hash: str, ids, errors, rmse: float, block_size: int) -> None:
    """Metrics CSV: the RMSE, one error per sample and per-block means."""
    rows = [["summary", "rmse", repr(rmse)], ["summary", "num_samples", str(len(errors))]]
    rows += [["sample", rec_id, repr(float(err))] for rec_id, err in zip(ids, errors)]
    rows += [["block", str(b // block_size + 1), repr(float(np.mean(errors[b:b + block_size])))]
             for b in range(0, len(errors), block_size)]
    dio.write_csv(path, ["section", "key", "value"], rows, config_hash)


# ---------------------------------------------------------------------------
# estimates CSV


_COORDS = ("x", "y", "z")


def _estimates_header(c: int) -> list:
    """``id``, the first ``c`` coordinate names, then their ``var_`` names."""
    names = list(_COORDS[:c])
    return ["id"] + names + [f"var_{n}" for n in names]


def _write_estimates(path, config_hash: str, rows) -> None:
    c = len(rows[0][1]) if rows else 3
    dio.write_csv(path, _estimates_header(c),
                  ([rec_id] + [repr(float(v)) for v in (*pos, *var)] for rec_id, pos, var in rows),
                  config_hash)


def _read_estimates(path):
    with open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("# config_hash="):
            raise ValueError(f"{path}: missing config hash line")
        est_hash = first.split("=", 1)[1]
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: no header row after the config hash line")
        c = (len(header) - 1) // 2
        if c < 1 or header != _estimates_header(c):
            raise ValueError(f"{path}: header {header!r} is not id, then coordinate names "
                             f"from {', '.join(_COORDS)}, then their var_ names")
        rows = []
        for line in reader:
            try:
                if len(line) != len(header):
                    raise ValueError
                values = [float(v) for v in line[1:]]
            except ValueError:
                # the hash line was read before the reader started counting
                raise ValueError(f"{path}: line {reader.line_num + 1}: expected the {len(header)} "
                                 f"fields of the header, an id then numbers, got {line!r}") from None
            rows.append((line[0], np.asarray(values[:c]), np.asarray(values[c:2 * c])))
    return est_hash, rows


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    """The CLI; each subcommand's ``handler`` takes the parsed arguments and returns its line."""
    parser = argparse.ArgumentParser(
        prog="mmgploc",
        description="Semi-supervised acoustic source localization harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        # ``run`` resolves the config into ``cfg`` before the handler reads it
        p.set_defaults(handler=handler)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment JSON file")
            p.add_argument("--seed", type=int, default=None,
                           help="override the master seed")
        return p

    p = add("simulate", "render a dataset directory from the config",
            lambda a: cmd_simulate(a.cfg, a.output))
    p.add_argument("--output", required=True, help="dataset directory")

    p = add("features", "extract aggregated RTFs for every record",
            lambda a: f"extracted features for {cmd_features(a.dataset)} records",
            needs_config=False)
    p.add_argument("--dataset", required=True)

    p = add("fit", "fit the localization model on the training records",
            lambda a: cmd_fit(a.cfg, a.dataset, a.output))
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True, help="model file path")

    p = add("localize", "estimate test-record positions with a fitted model",
            lambda a: cmd_localize(a.model, a.dataset, a.output, streaming=a.streaming,
                                   shuffle_seed=a.shuffle_seed),
            needs_config=False)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True, help="estimates CSV path")
    p.add_argument("--streaming", action="store_true",
                   help="absorb each test sample before predicting it")
    p.add_argument("--shuffle-seed", type=int, default=None,
                   help="re-order the test stream for robustness checks")

    p = add("baseline", "run a comparison method on the test records",
            lambda a: cmd_baseline(a.cfg, a.method, a.dataset, a.output, model_path=a.model))
    p.add_argument("--method", required=True, choices=METHODS[1:])
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True, help="estimates CSV path")
    p.add_argument("--model", default=None,
                   help="reuse hyperparameters from a fitted model")

    p = add("evaluate", "score estimates against the evaluation manifest",
            lambda a: "rmse={:.6f}".format(cmd_evaluate(a.estimates, a.dataset, a.output,
                                                        block_size=a.block_size)["rmse"]),
            needs_config=False)
    p.add_argument("--estimates", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True, help="metrics CSV path")
    p.add_argument("--block-size", type=int, default=5)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "config" in args:
        args.cfg = resolve_config(args.config, seed=args.seed)
    print(args.handler(args))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except Exception as exc:  # single machine-readable failure line
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
