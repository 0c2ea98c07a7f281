"""Harness tests: config resolution, pipeline round-trip, determinism."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmgploc.cli as cli
import mmgploc.dataio as dio


def tiny_config(**overrides):
    cfg = {
        "seed": 5,
        "method": "mmgp",
        "scene": {
            "room_dims": [4.0, 5.0, 3.0],
            "mic_positions": [[[0.8, 0.9, 1.2], [0.8, 1.1, 1.2]]],
            "t60": 0.0,
            "snr_db": "inf",
            "sample_rate": 16000.0,
        },
        "spectral": {"window_length_s": 0.064, "fft_size": 1024},
        "labeled": {"grid": {"origin": [1.5, 2.0, 1.5], "spacing": 0.5,
                             "counts": [2, 2, 1]},
                    "signal": {"kind": "wgn", "duration_s": 0.3}},
        "unlabeled": {"random": {"low": [1.5, 2.0, 1.5], "high": [2.0, 2.5, 1.5],
                                 "count": 2},
                      "signal": {"kind": "wgn", "duration_s": 0.3}},
        "test": {"random": {"low": [1.5, 2.0, 1.5], "high": [2.0, 2.5, 1.5],
                            "count": 3},
                 "order": "nearest",
                 "signal": {"kind": "wgn", "duration_s": 0.3}},
        "hyperparameters": {"strategy": "median", "sigma2": 0.01},
        "srp": {"grid_min": [1.5, 2.0, 1.5], "grid_max": [2.0, 2.5, 1.5],
                "resolution": 0.25},
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One simulated, extracted, fitted, localized tiny experiment."""
    root = tmp_path_factory.mktemp("cliexp")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    ds = root / "ds"
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--output", str(ds)]) == 0
    assert cli.main(["features", "--dataset", str(ds)]) == 0
    model = root / "model.bin"
    assert cli.main(["fit", "--config", str(cfg_path), "--dataset", str(ds),
                     "--output", str(model)]) == 0
    est = root / "est.csv"
    assert cli.main(["localize", "--model", str(model), "--dataset", str(ds),
                     "--output", str(est)]) == 0
    return {"root": root, "cfg": cfg_path, "ds": ds, "model": model, "est": est}


# ---------------------------------------------------------------------------
# configuration


def test_resolve_config_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_config()))
    cfg = cli.resolve_config(path)
    assert cfg["method"] == "mmgp" and cfg["streaming"] is False
    assert cfg["spectral"]["sample_rate"] == 16000.0
    assert cfg["spectral"]["band_low_hz"] == 200.0
    assert cfg["labeled"]["seed"] == 5001
    assert cfg["test"]["seed"] == 5003
    # explicit per-set seeds and overrides win
    override = cli.resolve_config(path, seed=9)
    assert override["seed"] == 9 and override["labeled"]["seed"] == 9001
    assert cli.resolve_config(path, method="mean")["method"] == "mean"
    assert cli.resolve_config(path, streaming=True)["streaming"] is True


def test_resolve_config_validation(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_config(method="psychic")))
    with pytest.raises(ValueError, match="unknown method"):
        cli.resolve_config(path)
    bad = tiny_config()
    del bad["scene"]
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="scene"):
        cli.resolve_config(path)
    bad = tiny_config()
    del bad["test"]
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="'test' section"):
        cli.resolve_config(path)
    path.write_text(json.dumps(tiny_config(hyperparameters={"nope": 1})))
    with pytest.raises(ValueError, match="hyperparameters"):
        cli.resolve_config(path)


def test_minimal_config_fingerprint_pinned(tmp_path):
    # every scene and spectral default enters the hash; the digest was
    # recorded when resolve_config still spelled the defaults out itself
    minimal = {
        "scene": {"room_dims": [4.0, 5.0, 3.0],
                  "mic_positions": [[[0.8, 0.9, 1.2], [0.8, 1.1, 1.2]]],
                  "t60": 0.0, "snr_db": "inf", "sample_rate": 16000.0},
        "labeled": {}, "unlabeled": {}, "test": {},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(minimal))
    assert (cli.config_fingerprint(cli.resolve_config(path))
            == "6dac8c71b42244e0f7bb489c3797808ab110e19a4047eeb716aa90271afcfe58")


@pytest.mark.parametrize("section, key", [("scene", "sound_sped"), ("spectral", "fft_sise")])
def test_unknown_scene_and_spectral_keys_rejected(tmp_path, section, key):
    # a typo would otherwise fall back to the default and still enter the hash
    cfg = tiny_config()
    cfg[section] = {**cfg[section], key: 1.0}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=f"unknown {section} key '{key}'"):
        cli.resolve_config(path)


def test_config_fingerprint_ignores_output_dir(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_config()))
    a = cli.config_fingerprint(cli.resolve_config(path))
    path.write_text(json.dumps(tiny_config(output_dir="elsewhere")))
    assert cli.config_fingerprint(cli.resolve_config(path)) == a
    path.write_text(json.dumps(tiny_config(seed=6)))
    assert cli.config_fingerprint(cli.resolve_config(path)) != a


# ---------------------------------------------------------------------------
# position generators


def test_grid_positions_layout():
    pts = cli.grid_positions([1.0, 2.0, 1.5], 0.5, [2, 3, 1])
    assert pts.shape == (6, 3)
    np.testing.assert_allclose(pts[0], [1.0, 2.0, 1.5])
    np.testing.assert_allclose(pts[-1], [1.5, 3.0, 1.5])
    assert np.all(pts[:3, 0] == 1.0) and np.all(pts[3:, 0] == 1.5)


def test_random_positions_bounds_and_determinism():
    low, high = [1.0, 2.0, 1.5], [2.0, 3.0, 1.5]
    a = cli.random_positions(low, high, 20, seed=4)
    b = cli.random_positions(low, high, 20, seed=4)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= low) and np.all(a <= high)
    assert np.all(a[:, 2] == 1.5)


def test_nearest_neighbor_order_is_greedy():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 3.0, (12, 3))
    tour = cli.nearest_neighbor_order(pts)
    np.testing.assert_array_equal(tour[0], pts[0])
    assert sorted(map(tuple, tour)) == sorted(map(tuple, pts))
    remaining = [tuple(p) for p in pts[1:]]
    here = pts[0]
    for step in tour[1:]:
        dists = {p: np.linalg.norm(np.array(p) - here) for p in remaining}
        assert np.linalg.norm(np.array(step) - here) == min(dists.values())
        remaining.remove(tuple(step))
        here = step


def test_loop_positions_geometry():
    pts = cli.loop_positions([2.0, 2.5, 1.5], 0.6, 30, jitter=0.0, seed=1)
    assert pts.shape == (30, 3)
    radii = np.hypot(pts[:, 0] - 2.0, pts[:, 1] - 2.5)
    np.testing.assert_allclose(radii, 0.6, atol=1e-12)
    assert np.all(pts[:, 2] == 1.5)
    np.testing.assert_allclose(pts[0], [2.6, 2.5, 1.5])
    steps = np.linalg.norm(np.diff(pts[:, :2], axis=0), axis=1)
    assert steps.max() < 0.2  # consecutive samples are neighbors
    jittered = cli.loop_positions([2.0, 2.5, 1.5], 0.6, 30, jitter=0.05, seed=1)
    assert np.max(np.abs(jittered - pts)) < 0.3
    np.testing.assert_array_equal(
        jittered, cli.loop_positions([2.0, 2.5, 1.5], 0.6, 30, jitter=0.05, seed=1))


# ---------------------------------------------------------------------------
# pipeline round-trip


def test_round_trip_metrics(pipeline):
    metrics = pipeline["root"] / "metrics.csv"
    assert cli.main(["evaluate", "--estimates", str(pipeline["est"]),
                     "--dataset", str(pipeline["ds"]),
                     "--output", str(metrics)]) == 0
    lines = metrics.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0] == ["section", "key", "value"]
    summary = {r[1]: r[2] for r in rows if r[0] == "summary"}
    assert summary["num_samples"] == "3"
    assert math.isfinite(float(summary["rmse"]))
    samples = [r for r in rows if r[0] == "sample"]
    assert len(samples) == 3


def test_estimates_format(pipeline):
    est_hash, rows = cli._read_estimates(pipeline["est"])
    manifest = dio.load_manifest(pipeline["ds"])
    assert est_hash == manifest["config_hash"]
    assert [r[0] for r in rows] == ["test_0000", "test_0001", "test_0002"]
    for _id, pos, var in rows:
        assert pos.shape == (3,) and var.shape == (3,)
        assert np.all(var >= 0)
    header = pipeline["est"].read_text().splitlines()[1]
    assert header == "id,x,y,z,var_x,var_y,var_z"


def test_pipeline_is_deterministic(pipeline, tmp_path):
    for name in ("r1", "r2"):
        root = tmp_path / name
        root.mkdir()
        ds = root / "ds"
        cfg = pipeline["cfg"]
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(ds)]) == 0
        assert cli.main(["features", "--dataset", str(ds)]) == 0
        model = root / "model.bin"
        assert cli.main(["fit", "--config", str(cfg), "--dataset", str(ds),
                         "--output", str(model)]) == 0
        est = root / "est.csv"
        assert cli.main(["localize", "--model", str(model), "--dataset", str(ds),
                         "--output", str(est)]) == 0
    a = (tmp_path / "r1" / "est.csv").read_bytes()
    b = (tmp_path / "r2" / "est.csv").read_bytes()
    assert a == b
    assert a == pipeline["est"].read_bytes()


def test_evaluate_exact_truth_gives_zero_rmse(pipeline, tmp_path):
    manifest = dio.load_manifest(Path(pipeline["ds"]) / dio.EVALUATION_NAME)
    rows = [(r["id"], np.asarray(r["true_position"]), np.zeros(3))
            for r in manifest["records"] if r["role"] == "test"]
    est = tmp_path / "exact.csv"
    cli._write_estimates(est, manifest["config_hash"], rows)
    metrics = cli.cmd_evaluate(est, pipeline["ds"], tmp_path / "m.csv")
    assert metrics["rmse"] == 0.0

    offset = [(i, p + np.array([0.3, 0.0, 0.0]), v) for i, p, v in rows]
    cli._write_estimates(est, manifest["config_hash"], offset)
    metrics = cli.cmd_evaluate(est, pipeline["ds"], tmp_path / "m.csv")
    assert metrics["rmse"] == pytest.approx(0.3, rel=1e-12)


def test_evaluate_rejects_an_estimates_file_without_rows(pipeline, tmp_path):
    manifest = dio.load_manifest(Path(pipeline["ds"]) / dio.EVALUATION_NAME)
    est = tmp_path / "empty.csv"
    cli._write_estimates(est, manifest["config_hash"], [])
    with pytest.raises(ValueError, match=f"{re.escape(str(est))}: no estimates"):
        cli.cmd_evaluate(est, pipeline["ds"], tmp_path / "m.csv")
    assert not (tmp_path / "m.csv").exists()


def test_evaluate_rejects_an_estimates_file_without_header(pipeline, tmp_path, capsys):
    manifest = dio.load_manifest(Path(pipeline["ds"]) / dio.EVALUATION_NAME)
    est = tmp_path / "hash_only.csv"
    est.write_text(f"# config_hash={manifest['config_hash']}\n")
    assert cli.main(["evaluate", "--estimates", str(est), "--dataset", str(pipeline["ds"]),
                     "--output", str(tmp_path / "m.csv")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "ValueError"
    assert err["error"] == f"{est}: no header row after the config hash line"
    assert not (tmp_path / "m.csv").exists()


def test_evaluate_rejects_a_block_size_below_one(pipeline, tmp_path, capsys):
    for size in (0, -1):
        assert cli.main(["evaluate", "--estimates", str(pipeline["est"]),
                         "--dataset", str(pipeline["ds"]), "--output", str(tmp_path / "m.csv"),
                         "--block-size", str(size)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "ValueError"
        assert err["error"] == f"block size must be at least 1, got {size}"
        assert not (tmp_path / "m.csv").exists()


def test_streaming_and_shuffle(pipeline, tmp_path):
    est1 = tmp_path / "s1.csv"
    assert cli.main(["localize", "--model", str(pipeline["model"]),
                     "--dataset", str(pipeline["ds"]), "--output", str(est1),
                     "--streaming"]) == 0
    _, rows = cli._read_estimates(est1)
    assert [r[0] for r in rows] == ["test_0000", "test_0001", "test_0002"]

    est2 = tmp_path / "s2.csv"
    assert cli.main(["localize", "--model", str(pipeline["model"]),
                     "--dataset", str(pipeline["ds"]), "--output", str(est2),
                     "--streaming", "--shuffle-seed", "1"]) == 0
    _, rows2 = cli._read_estimates(est2)
    assert sorted(r[0] for r in rows2) == ["test_0000", "test_0001", "test_0002"]
    est3 = tmp_path / "s3.csv"
    assert cli.main(["localize", "--model", str(pipeline["model"]),
                     "--dataset", str(pipeline["ds"]), "--output", str(est3),
                     "--streaming", "--shuffle-seed", "1"]) == 0
    assert est2.read_bytes() == est3.read_bytes()


def test_baseline_commands(pipeline, tmp_path):
    for method in ("mean", "kernel-product", "srp-phat"):
        est = tmp_path / f"{method}.csv"
        assert cli.main(["baseline", "--config", str(pipeline["cfg"]),
                         "--method", method, "--dataset", str(pipeline["ds"]),
                         "--output", str(est)]) == 0
        metrics = cli.cmd_evaluate(est, pipeline["ds"], tmp_path / "m.csv")
        assert math.isfinite(metrics["rmse"])

    est = tmp_path / "reuse.csv"
    assert cli.main(["baseline", "--config", str(pipeline["cfg"]),
                     "--method", "mean", "--dataset", str(pipeline["ds"]),
                     "--output", str(est), "--model", str(pipeline["model"])]) == 0


def test_baseline_model_route_keeps_configured_jitter(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(
        hyperparameters={"strategy": "median", "sigma2": 0.1, "jitter": 0.05})))
    ds, model = tmp_path / "ds", tmp_path / "model.bin"
    assert cli.main(["simulate", "--config", str(cfg_path), "--output", str(ds)]) == 0
    assert cli.main(["features", "--dataset", str(ds)]) == 0
    assert cli.main(["fit", "--config", str(cfg_path), "--dataset", str(ds),
                     "--output", str(model)]) == 0
    for method in ("mean", "kernel-product"):
        outputs = []
        for extra in ([], ["--model", str(model)]):
            est = tmp_path / f"{method}{len(extra)}.csv"
            assert cli.main(["baseline", "--config", str(cfg_path), "--method", method,
                             "--dataset", str(ds), "--output", str(est)] + extra) == 0
            outputs.append(est.read_bytes())
        assert outputs[0] == outputs[1]


def test_srp_requires_config_section(tmp_path, capsys):
    cfg = tiny_config()
    del cfg["srp"]
    cfg_path = tmp_path / "nosrp.json"
    cfg_path.write_text(json.dumps(cfg))
    ds = tmp_path / "ds"
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--output", str(ds)]) == 0
    code = cli.main(["baseline", "--config", str(cfg_path), "--method", "srp-phat",
                     "--dataset", str(ds), "--output", str(tmp_path / "x.csv")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "srp" in err["error"]


def test_hash_mismatch_detected(pipeline, tmp_path, capsys):
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps(tiny_config(seed=6)))
    code = cli.main(["fit", "--config", str(other_cfg),
                     "--dataset", str(pipeline["ds"]),
                     "--output", str(tmp_path / "m.bin")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "hash mismatch" in err["error"]

    # model sidecar pointing at a different config is rejected at localize
    model2 = tmp_path / "model2.bin"
    shutil.copy(pipeline["model"], model2)
    sidecar = json.loads(Path(str(pipeline["model"]) + ".meta.json").read_text())
    sidecar["config_hash"] = "0" * 64
    Path(str(model2) + ".meta.json").write_text(json.dumps(sidecar))
    code = cli.main(["localize", "--model", str(model2),
                     "--dataset", str(pipeline["ds"]),
                     "--output", str(tmp_path / "e.csv")])
    assert code == 1
    assert "hash mismatch" in json.loads(capsys.readouterr().err.strip())["error"]

    est = tmp_path / "tampered.csv"
    text = pipeline["est"].read_text().splitlines()
    text[0] = "# config_hash=" + "f" * 64
    est.write_text("\n".join(text) + "\n")
    code = cli.main(["evaluate", "--estimates", str(est),
                     "--dataset", str(pipeline["ds"]),
                     "--output", str(tmp_path / "m.csv")])
    assert code == 1
    assert "hash mismatch" in json.loads(capsys.readouterr().err.strip())["error"]


def test_machine_readable_error_and_exit_code(tmp_path, capsys):
    code = cli.main(["features", "--dataset", str(tmp_path / "nowhere")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "FileNotFoundError"
    assert "manifest" in err["error"]


def test_localize_before_features_errors(pipeline, tmp_path, capsys):
    cfg = pipeline["cfg"]
    ds = tmp_path / "nofeat"
    assert cli.main(["simulate", "--config", str(cfg), "--output", str(ds)]) == 0
    code = cli.main(["fit", "--config", str(cfg), "--dataset", str(ds),
                     "--output", str(tmp_path / "m.bin")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "features" in err["error"]


def test_thread_cap(monkeypatch):
    monkeypatch.setenv("MMGP_THREADS", "2")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    cli._cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert os.environ["MKL_NUM_THREADS"] == "2"


def test_console_entry_point(pipeline, tmp_path):
    # the child must import the package under test, also when only
    # pytest's own path setting found it
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "mmgploc", "evaluate",
         "--estimates", str(pipeline["est"]), "--dataset", str(pipeline["ds"]),
         "--output", str(tmp_path / "m.csv")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stdout.startswith("rmse=")
