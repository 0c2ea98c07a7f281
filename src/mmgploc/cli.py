"""Experiment harness: simulate, extract, fit, localize, evaluate.

One JSON config file drives the whole pipeline.  Every artifact carries
the hash of the resolved config that produced it, and commands refuse to
mix artifacts from different configs.  Heavy imports happen inside the
command functions so the ``MMGP_THREADS`` cap is applied to the linear
algebra backends before they load.
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

METHODS = ("mmgp", "mean", "kernel-product", "srp-phat")

_ROLE_OFFSETS = {"labeled": 1, "unlabeled": 2, "test": 3}


def _cap_threads() -> None:
    """Honor MMGP_THREADS by capping the numeric backends' thread pools."""
    cap = os.environ.get("MMGP_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = cap


# ---------------------------------------------------------------------------
# configuration


def resolve_config(path, seed=None, method=None, streaming=None) -> dict:
    """Load a config file and normalize it to a fully explicit dict.

    Command-line overrides replace the corresponding fields before
    defaults are filled in, so the config hash reflects what actually
    ran.  Scene and spectral defaults are the ``SceneConfig`` and
    ``SpectralConfig`` field defaults, and a key neither class has a field
    for is a ``ValueError``.  Output locations never enter the hash.
    """
    from .acoustic_sim import SceneConfig
    from .dataio import check_section_keys
    from .rtf_features import SpectralConfig

    with open(path) as fh:
        raw = json.load(fh)
    cfg = dict(raw)
    if seed is not None:
        cfg["seed"] = seed
    if method is not None:
        cfg["method"] = method
    if streaming is not None:
        cfg["streaming"] = streaming

    cfg.setdefault("seed", 0)
    cfg.setdefault("method", "mmgp")
    cfg.setdefault("streaming", False)
    cfg.setdefault("hyperparameters", "learn")
    if cfg["method"] not in METHODS:
        raise ValueError(f"unknown method {cfg['method']!r}; choose from {METHODS}")
    if "scene" not in cfg:
        raise ValueError("config needs a 'scene' section")
    spectral = cfg.get("spectral") or {}
    check_section_keys(cfg["scene"], SceneConfig, "scene")
    check_section_keys(spectral, SpectralConfig, "spectral")
    scene = {**_field_defaults(SceneConfig), **cfg["scene"]}
    cfg["scene"] = scene
    cfg["spectral"] = {**_field_defaults(SpectralConfig), "sample_rate": scene["sample_rate"],
                       **spectral}

    for role in ("labeled", "unlabeled", "test"):
        if role not in cfg:
            raise ValueError(f"config needs a '{role}' section")
        sec = dict(cfg[role])
        sec.setdefault("seed", 1000 * int(cfg["seed"]) + _ROLE_OFFSETS[role])
        sig = dict(sec.get("signal") or {})
        sig.setdefault("kind", "wgn")
        sig.setdefault("duration_s", 2.0)
        sec["signal"] = sig
        cfg[role] = sec

    hp = cfg["hyperparameters"]
    if not (hp == "learn" or (isinstance(hp, dict) and
                              (hp.get("strategy") == "median" or "eps" in hp))):
        raise ValueError("hyperparameters must be 'learn', {'strategy': 'median', ...} "
                         "or an explicit {'eps': [...], 'sigma2': ...}")
    return cfg


def _field_defaults(cls) -> dict:
    """A dataclass's field defaults, by field name."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def config_fingerprint(cfg: dict) -> str:
    from .dataio import config_hash

    hashed = {k: v for k, v in cfg.items() if k != "output_dir"}
    return config_hash(hashed)


def grid_positions(origin, spacing, counts):
    """Rectangular grid of source positions, first axis slowest."""
    import numpy as np

    origin = np.asarray(origin, dtype=float)
    axes = [origin[i] + spacing * np.arange(int(counts[i])) for i in range(3)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def random_positions(low, high, count, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    return low + (high - low) * rng.uniform(size=(int(count), 3))


def nearest_neighbor_order(points):
    """Greedy tour from the first point; consecutive entries are neighbors."""
    import numpy as np

    points = np.asarray(points, dtype=float)
    remaining = list(range(1, len(points)))
    order = [0]
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
    import numpy as np

    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    theta = 2.0 * np.pi * np.arange(int(count)) / int(count)
    pts = np.tile(center, (int(count), 1))
    pts[:, 0] += radius * np.cos(theta) + jitter * rng.standard_normal(count)
    pts[:, 1] += radius * np.sin(theta) + jitter * rng.standard_normal(count)
    return pts


def _positions_for(sec: dict, role: str):
    import numpy as np

    if "positions" in sec:
        pts = np.asarray(sec["positions"], dtype=float)
    elif "grid" in sec:
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
    from . import acoustic_sim as sim
    from .dataio import scene_from_dict, spectral_from_dict

    scene = scene_from_dict(cfg["scene"])
    spectral = spectral_from_dict(cfg["spectral"])
    specs = {}
    for role in ("labeled", "unlabeled", "test"):
        sec = cfg[role]
        specs[role] = sim.SourceSetSpec(positions=_positions_for(sec, role),
                                        signal_kind=sec["signal"]["kind"],
                                        duration_s=sec["signal"]["duration_s"],
                                        seed=sec["seed"],
                                        audio_path=sec["signal"].get("path"))
    return sim.generate_dataset(scene, specs["labeled"], specs["unlabeled"],
                                specs["test"], out_dir, spectral=spectral,
                                config_hash=config_fingerprint(cfg))


def cmd_features(dataset_dir) -> int:
    """Extract aggregated RTFs for every record and attach them."""
    from . import dataio as dio
    from .rtf_features import artf_from_record
    from .acoustic_sim import MeasurementRecord

    manifest = dio.load_manifest(dataset_dir)
    if manifest.get("spectral") is None:
        raise ValueError("manifest has no spectral settings; re-run simulate")
    spectral = dio.spectral_from_dict(manifest["spectral"])
    num_nodes = len(manifest["scene"]["mic_positions"])
    feats = {}
    for entry in manifest["records"]:
        signals = dio.read_record_signals(manifest, entry)
        record = MeasurementRecord(signals=signals,
                                   sample_rate=manifest["scene"]["sample_rate"],
                                   num_nodes=num_nodes, record_id=entry["id"])
        feats[entry["id"]] = artf_from_record(record, spectral).stack()
    dio.attach_features(dataset_dir, feats)
    return len(feats)


def _load_pool(manifest):
    """Training features, labeled first, plus the labeled positions."""
    import numpy as np
    from . import dataio as dio

    labeled = dio.records_by_role(manifest, "labeled")
    unlabeled = dio.records_by_role(manifest, "unlabeled")
    rows = [dio.read_record_features(manifest, r) for r in labeled + unlabeled]
    positions = np.asarray([r["true_position"] for r in labeled], dtype=float)
    return np.stack(rows), positions


def _resolve_hyperparameters(cfg: dict, pool, positions, trace_path=None):
    import numpy as np
    from . import hyperopt as ho
    from .kernels import Hyperparameters, median_heuristic

    spec = cfg["hyperparameters"]
    if spec == "learn":
        result = ho.optimize(pool, positions)
        if trace_path is not None:
            ho.write_trace_csv(result, trace_path)
        if result.warning:
            print(f"warning: {result.warning}", file=sys.stderr)
        return result.hyperparameters, True
    if isinstance(spec, dict) and spec.get("strategy") == "median":
        eps = median_heuristic(pool)
        sigma2 = float(spec.get("sigma2", 0.1))
        return Hyperparameters(eps=eps, sigma2=sigma2,
                               jitter=spec.get("jitter")), False
    return Hyperparameters(eps=np.asarray(spec["eps"], dtype=float),
                           sigma2=float(spec["sigma2"]),
                           jitter=spec.get("jitter")), False


def cmd_fit(cfg: dict, dataset_dir, model_path) -> str:
    from . import dataio as dio
    from . import mmgp_model as mm

    manifest = dio.load_manifest(dataset_dir)
    _check_hash(manifest["config_hash"], config_fingerprint(cfg),
                "dataset", "config")
    pool, positions = _load_pool(manifest)
    model_path = Path(model_path)
    hp, learned = _resolve_hyperparameters(
        cfg, pool, positions, trace_path=model_path.with_suffix(".trace.csv"))
    model = mm.fit(pool, positions, hp)
    mm.save_model(model, model_path)
    sidecar = {
        "config_hash": manifest["config_hash"],
        "method": "mmgp",
        "eps": [float(e) for e in hp.eps],
        "sigma2": float(hp.sigma2),
        "jitter_used": model.jitter_used,
        "learned": learned,
    }
    with dio.atomic_write(_sidecar_path(model_path), "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    return str(model_path)


def _sidecar_path(model_path) -> Path:
    return Path(str(model_path) + ".meta.json")


def _check_hash(a: str, b: str, what_a: str, what_b: str) -> None:
    if a != b:
        raise ValueError(f"config hash mismatch: {what_a} has {a[:12]}…, "
                         f"{what_b} has {b[:12]}…")


def _test_entries(manifest, shuffle_seed=None):
    import numpy as np
    from .dataio import records_by_role

    entries = records_by_role(manifest, "test")
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(entries))
        entries = [entries[i] for i in order]
    return entries


def cmd_localize(model_path, dataset_dir, out_path, streaming=False,
                 shuffle_seed=None) -> str:
    from . import dataio as dio
    from . import mmgp_model as mm

    manifest = dio.load_manifest(dataset_dir)
    with open(_sidecar_path(model_path)) as fh:
        sidecar = json.load(fh)
    _check_hash(sidecar["config_hash"], manifest["config_hash"], "model", "dataset")
    model = mm.load_model(model_path)
    rows = []
    for entry in _test_entries(manifest, shuffle_seed):
        features = dio.read_record_features(manifest, entry)
        pred = model.predict_recursive(features) if streaming else \
            model.predict(features)
        rows.append((entry["id"], pred.position, pred.variance))
    _write_estimates(out_path, manifest["config_hash"], rows)
    return str(out_path)


def cmd_baseline(cfg: dict, method: str, dataset_dir, out_path,
                 model_path=None) -> str:
    import numpy as np
    from . import baselines as bl
    from . import dataio as dio
    from .kernels import Hyperparameters

    if method not in ("mean", "kernel-product", "srp-phat"):
        raise ValueError(f"unknown baseline {method!r}")
    manifest = dio.load_manifest(dataset_dir)
    _check_hash(manifest["config_hash"], config_fingerprint(cfg),
                "dataset", "config")
    entries = _test_entries(manifest)
    rows = []
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
        for entry in entries:
            signals = dio.read_record_signals(manifest, entry)
            pos = bl.srp_phat(signals, srp_cfg)
            rows.append((entry["id"], pos, np.full(3, math.nan)))
    else:
        pool, positions = _load_pool(manifest)
        if model_path is not None:
            with open(_sidecar_path(model_path)) as fh:
                sidecar = json.load(fh)
            _check_hash(sidecar["config_hash"], manifest["config_hash"],
                        "model", "dataset")
            # the hashes match, so the model was fit with this config's jitter
            spec = cfg["hyperparameters"]
            hp = Hyperparameters(eps=sidecar["eps"], sigma2=sidecar["sigma2"],
                                 jitter=spec.get("jitter") if isinstance(spec, dict) else None)
        else:
            hp, _ = _resolve_hyperparameters(cfg, pool, positions)
        fitted = bl.fit_mean_of_nodes(pool, positions, hp) if method == "mean" \
            else bl.fit_kernel_product(pool, positions, hp)
        for entry in entries:
            features = dio.read_record_features(manifest, entry)
            pred = fitted.predict(features)
            rows.append((entry["id"], pred.position, pred.variance))
    _write_estimates(out_path, manifest["config_hash"], rows)
    return str(out_path)


def cmd_evaluate(estimates_path, dataset_dir, out_path, block_size=5) -> dict:
    import numpy as np
    from . import dataio as dio

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
    for rec_id, pos, _var in rows:
        if rec_id not in truth:
            raise ValueError(f"no ground truth for record {rec_id!r}")
        errors.append(float(np.linalg.norm(pos - np.asarray(truth[rec_id]))))
    errors = np.asarray(errors)
    rmse = float(np.sqrt(np.mean(errors**2)))
    _write_metrics(out_path, est_hash, [r[0] for r in rows], errors, rmse, block_size)
    return {"rmse": rmse, "errors": errors}


def _write_metrics(path, config_hash: str, ids, errors, rmse: float, block_size: int) -> None:
    """Metrics CSV: the RMSE, one error per sample and per-block means."""
    import numpy as np
    from .dataio import atomic_write

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["section", "key", "value"])
        writer.writerow(["summary", "rmse", repr(rmse)])
        writer.writerow(["summary", "num_samples", str(len(errors))])
        for rec_id, err in zip(ids, errors):
            writer.writerow(["sample", rec_id, repr(float(err))])
        for b in range(0, len(errors), block_size):
            block_mean = float(np.mean(errors[b:b + block_size]))
            writer.writerow(["block", str(b // block_size + 1), repr(block_mean)])


# ---------------------------------------------------------------------------
# estimates CSV


def _write_estimates(path, config_hash: str, rows) -> None:
    from .dataio import atomic_write

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    c = len(rows[0][1]) if rows else 3
    names = ["x", "y", "z"][:c]
    with atomic_write(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["id"] + names + [f"var_{n}" for n in names])
        for rec_id, pos, var in rows:
            writer.writerow([rec_id] + [repr(float(v)) for v in pos]
                            + [repr(float(v)) for v in var])


def _read_estimates(path):
    import numpy as np

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
        rows = []
        for line in reader:
            pos = np.asarray([float(v) for v in line[1:1 + c]])
            var = np.asarray([float(v) for v in line[1 + c:1 + 2 * c]])
            rows.append((line[0], pos, var))
    return est_hash, rows


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmgploc",
        description="Semi-supervised acoustic source localization harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment JSON file")
            p.add_argument("--seed", type=int, default=None,
                           help="override the master seed")
        return p

    p = add("simulate", "render a dataset directory from the config")
    p.add_argument("--output", required=True, help="dataset directory")

    p = add("features", "extract aggregated RTFs for every record",
            needs_config=False)
    p.add_argument("--dataset", required=True)

    p = add("fit", "fit the localization model on the training records")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True, help="model file path")

    p = add("localize", "estimate test-record positions with a fitted model",
            needs_config=False)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True, help="estimates CSV path")
    p.add_argument("--streaming", action="store_true",
                   help="absorb each test sample before predicting it")
    p.add_argument("--shuffle-seed", type=int, default=None,
                   help="re-order the test stream for robustness checks")

    p = add("baseline", "run a comparison method on the test records")
    p.add_argument("--method", required=True, choices=METHODS[1:])
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True, help="estimates CSV path")
    p.add_argument("--model", default=None,
                   help="reuse hyperparameters from a fitted model")

    p = add("evaluate", "score estimates against the evaluation manifest",
            needs_config=False)
    p.add_argument("--estimates", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True, help="metrics CSV path")
    p.add_argument("--block-size", type=int, default=5)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        cfg = resolve_config(args.config, seed=args.seed)
        path = cmd_simulate(cfg, args.output)
        print(path)
    elif args.command == "features":
        count = cmd_features(args.dataset)
        print(f"extracted features for {count} records")
    elif args.command == "fit":
        cfg = resolve_config(args.config, seed=args.seed)
        print(cmd_fit(cfg, args.dataset, args.output))
    elif args.command == "localize":
        print(cmd_localize(args.model, args.dataset, args.output,
                           streaming=args.streaming,
                           shuffle_seed=args.shuffle_seed))
    elif args.command == "baseline":
        cfg = resolve_config(args.config, seed=args.seed)
        print(cmd_baseline(cfg, args.method, args.dataset, args.output,
                           model_path=args.model))
    elif args.command == "evaluate":
        metrics = cmd_evaluate(args.estimates, args.dataset, args.output,
                               block_size=args.block_size)
        print(f"rmse={metrics['rmse']:.6f}")
    return 0


def main(argv=None) -> int:
    _cap_threads()
    try:
        return run(argv)
    except Exception as exc:  # single machine-readable failure line
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
