"""Harness tests: config resolution, pipeline round-trip, determinism."""

import copy
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_dataio import _json_paths
from test_rtf_features import desk_features_config

import mmgploc.acoustic_sim as ac
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
    # a command-line seed wins
    override = cli.resolve_config(path, seed=9)
    assert override["seed"] == 9 and override["labeled"]["seed"] == 9001


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


def _set(*keys, value=None, drop=False):
    """A config mutation that sets (or drops) the entry at ``keys``."""
    def mutate(cfg):
        *parents, last = keys
        for key in parents:
            cfg = cfg[key]
        if drop:
            del cfg[last]
        else:
            cfg[last] = value
    return mutate


_CONFIG_FAULTS = {
    "role section a list": (_set("labeled", value=[1, 2]),
                            "'labeled' section must be an object, got [1, 2]"),
    "signal a list": (_set("test", "signal", value=[1]), "'test' section's 'signal' must be"),
    "grid counts a string": (_set("labeled", "grid", "counts", value="22"),
                             "'labeled' section's 'grid': 'counts' must be a list of 3 "
                             "non-negative integers, got '22'"),
    "grid without origin": (_set("labeled", "grid", "origin", drop=True),
                            "'labeled' section's 'grid' needs 'origin'"),
    "grid spacing a bool": (_set("labeled", "grid", "spacing", value=True),
                            "'grid': 'spacing' must be a finite number"),
    "grid spacing zero": (_set("labeled", "grid", "spacing", value=0.0),
                          "'labeled' section's 'grid': 'spacing' must be positive, got 0.0"),
    "grid spacing negative": (_set("labeled", "grid", "spacing", value=-0.5),
                              "'labeled' section's 'grid': 'spacing' must be positive, got -0.5"),
    "random count a float": (_set("unlabeled", "random", "count", value=2.0),
                             "'unlabeled' section's 'random': 'count' must be a non-negative"),
    "random low of length 2": (_set("test", "random", "low", value=[1.5, 2.0]),
                               "'test' section's 'random': 'low' must be a list of 3"),
    "random a string": (_set("test", "random", value="uniform"),
                        "'test' section's 'random' must be an object"),
    "positions with a string": (_set("test", "positions", value=[[1.5, "2", 1.5]]),
                                "'test' section: 'positions' must be a list of"),
    "loop jitter a string": (_set("test", value={"loop": {"center": [2.0, 2.5, 1.5],
                                                          "radius": 0.3, "count": 3,
                                                          "jitter": "0.05"}}),
                             "'test' section's 'loop': 'jitter' must be a finite number"),
    "role section with an unknown key": (_set("labeled", "grd", value={}),
                                         "'labeled' section: unknown key 'grd'; known keys: "
                                         "positions, grid, random, loop, order, seed, signal"),
    "role seed a list": (_set("labeled", "seed", value=[1]),
                         "'labeled' section: 'seed' must be an integer, got [1]"),
    "role seed a float": (_set("unlabeled", "seed", value=7.0),
                          "'unlabeled' section: 'seed' must be an integer, got 7.0"),
    "order not nearest": (_set("test", "order", value=3),
                          "'test' section: 'order' must be 'nearest', got 3"),
    "signal null": (_set("test", "signal", value=None),
                    "'test' section's 'signal' must be an object, got None"),
    "signal duration a string": (_set("test", "signal", "duration_s", value="x"),
                                 "'test' section's 'signal': 'duration_s' must be a finite "
                                 "number, got 'x'"),
    "signal kind a number": (_set("labeled", "signal", "kind", value=1),
                             "'labeled' section's 'signal': 'kind' must be a string, got 1"),
    "signal with a path": (_set("test", "signal", "path", value="talk.wav"),
                           "'test' section's 'signal': unknown key 'path'"),
    # the test section's one placement, not a second beside its 'random'
    "source outside the room": (_set("test", value={"positions": [[1.5, 2.0, 3.5]]}),
                                "test source position [1.5, 2.0, 3.5] outside room"),
    "srp a list": (_set("srp", value=[1]), "'srp' section must be an object, got [1]"),
    "srp without resolution": (_set("srp", "resolution", drop=True),
                               "'srp' section needs 'resolution'"),
    "srp grid_max a number": (_set("srp", "grid_max", value=2.0),
                              "'srp' section: 'grid_max' must be a list of 3"),
    "spectral a string": (_set("spectral", value="fast"), "'spectral' section must be an object"),
    "hyperparameters a list": (_set("hyperparameters", value=[1.0]), "hyperparameters must be"),
    "seed a list": (_set("seed", value=[1]), "config: 'seed' must be an integer, got [1]"),
    "seed a bool": (_set("seed", value=True), "config: 'seed' must be an integer, got True"),
    "seed negative": (_set("seed", value=-1),
                      "config: 'seed' must be a non-negative integer, got -1"),
    "role seed negative": (_set("labeled", "seed", value=-3),
                           "'labeled' section: 'seed' must be a non-negative integer, got -3"),
    "two placements": (_set("test", "positions", value=[[1.5, 2.0, 1.5]]),
                       "'test' section gives 'positions' and 'random'; give one of "
                       "'positions', 'grid', 'random' and 'loop'"),
    "sigma2 a list": (_set("hyperparameters", "sigma2", value=[1]),
                      "'hyperparameters': 'sigma2' must be a finite number, got [1]"),
    "jitter a string": (_set("hyperparameters", "jitter", value="0.01"),
                        "'hyperparameters': 'jitter' must be a finite number, got '0.01'"),
    "eps with a string": (_set("hyperparameters", value={"eps": [1.0, "2"], "sigma2": 0.1}),
                          "'hyperparameters': 'eps' must be a list of finite numbers"),
    "eps without sigma2": (_set("hyperparameters", value={"eps": [1.0]}),
                           "'hyperparameters' needs 'sigma2'"),
    "median with eps": (_set("hyperparameters", "eps", value=[-1.0]),
                        "'hyperparameters': unknown key 'eps'; known keys: strategy, sigma2, "
                        "jitter"),
    "srp resolution zero": (_set("srp", "resolution", value=0),
                            "'srp' section: resolution must be positive"),
    "srp grid_max below grid_min": (_set("srp", "grid_max", value=[2.0, 1.5, 1.5]),
                                    "'srp' section: grid_max must not be below grid_min"),
    "eps negative": (_set("hyperparameters", value={"eps": [-1.0], "sigma2": 0.1}),
                     "'hyperparameters': eps must be a vector of positive finite scalars"),
    "eps empty": (_set("hyperparameters", value={"eps": [], "sigma2": 0.1}),
                  "'hyperparameters': 'eps' must give one width per node, 1, got []"),
    "eps two for one node": (_set("hyperparameters", value={"eps": [1.0, 2.0], "sigma2": 0.1}),
                        "'hyperparameters': 'eps' must give one width per node, 1, "
                        "got [1.0, 2.0]"),
    "sigma2 negative": (_set("hyperparameters", "sigma2", value=-0.01),
                        "'hyperparameters': sigma2 must be finite and >= 0"),
    "jitter negative": (_set("hyperparameters", "jitter", value=-1e-6),
                        "'hyperparameters': jitter must be finite and >= 0 when given"),
    "scene without sample_rate": (_set("scene", "sample_rate", drop=True),
                                  "'scene' section needs 'sample_rate'"),
    "t60 a string": (_set("scene", "t60", value="0.4"),
                     "'scene' section: 't60' must be a finite number, got '0.4'"),
    "room_dims a string": (_set("scene", "room_dims", value="4x5x3"),
                           "'scene' section: 'room_dims' must be a list of 3 finite numbers"),
    "room_dims negative": (_set("scene", "room_dims", value=[4.0, -5.0, 3.0]),
                           "'scene' section: room_dims must be 3 finite positive lengths"),
    "microphone outside the room": (_set("scene", "mic_positions",
                                         value=[[[0.8, 0.9, 1.2], [0.8, 5.1, 1.2]]]),
                                    "'scene' section: microphone position [0.8, 5.1, 1.2] "
                                    "outside room [4.0, 5.0, 3.0]"),
    "sound_speed zero": (_set("scene", "sound_speed", value=0.0),
                         "'scene' section: sound_speed must be finite and positive"),
    "mic_positions one point per node": (_set("scene", "mic_positions", value=[[0.8, 0.9, 1.2]]),
                                         "'mic_positions' must be a non-empty list of per-node "
                                         "microphone pairs"),
    "snr_db a numeric string": (_set("scene", "snr_db", value="20"),
                                "'snr_db' must be a finite number or 'inf', got '20'"),
    "sound_speed a bool": (_set("scene", "sound_speed", value=True),
                           "'scene' section: 'sound_speed' must be a finite number, got True"),
    "max_reflection_order a float": (_set("scene", "max_reflection_order", value=3.0),
                                     "'max_reflection_order' must be a non-negative integer or "
                                     "'auto', got 3.0"),
    "fft_size a string": (_set("spectral", "fft_size", value="1024"),
                          "'spectral' section: 'fft_size' must be a non-negative integer, "
                          "got '1024'"),
    "window_length_s null": (_set("spectral", "window_length_s", value=None),
                             "'spectral' section: 'window_length_s' must be a finite number"),
}


@pytest.mark.parametrize("fault", list(_CONFIG_FAULTS))
def test_malformed_config_sections_are_rejected(tmp_path, capsys, fault):
    # the unmutated config simulates; each fault stops simulate before it writes anything
    mutate, message = _CONFIG_FAULTS[fault]
    cfg = tiny_config()
    mutate(cfg)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(path), "--output", str(tmp_path / "ds")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "ValueError"
    assert message in err["error"]
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("spectral", [None, [], 0, "", False],
                         ids=["null", "empty list", "zero", "empty string", "false"])
def test_only_an_absent_spectral_section_takes_the_defaults(tmp_path, spectral):
    # null, an empty list, zero or an empty string is refused as any other non-object is
    with pytest.raises(ValueError) as err:
        _resolve(tmp_path, tiny_config(spectral=spectral))
    assert str(err.value) == f"'spectral' section must be an object, got {spectral!r}"
    absent = tiny_config()
    del absent["spectral"]
    assert _resolve(tmp_path, absent) == _resolve(tmp_path, tiny_config(spectral={}))


def test_negative_seed_on_the_command_line_is_refused(tmp_path, capsys):
    # NumPy's generators take no negative seed; refused before simulate writes anything
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_config()))
    assert cli.main(["simulate", "--config", str(path), "--seed", "-1",
                     "--output", str(tmp_path / "ds")]) == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "config: 'seed' must be a non-negative integer, got -1", "type": "ValueError"}
    assert not (tmp_path / "ds").exists()


def test_minimal_config_fingerprint_pinned(tmp_path):
    # every scene and spectral default enters the hash; the minimal digest was
    # recorded when resolve_config still spelled the defaults out itself, the
    # other two before the scene and spectral fields became one table each
    minimal = {
        "scene": {"room_dims": [4.0, 5.0, 3.0],
                  "mic_positions": [[[0.8, 0.9, 1.2], [0.8, 1.1, 1.2]]],
                  "t60": 0.0, "snr_db": "inf", "sample_rate": 16000.0},
        "labeled": {}, "unlabeled": {}, "test": {},
    }
    pins = {
        "minimal": (minimal, "6dac8c71b42244e0f7bb489c3797808ab110e19a4047eeb716aa90271afcfe58"),
        "tiny": (tiny_config(), "4e58c14b02be61bbd58c7843482509ce2ae6ac0198d2d17434865357960ef855"),
        "desk features": (desk_features_config(),
                          "946f89139f31b02bb10340a538c2b2d70b8f02e2eed9f2954002c8e47c541ed6"),
    }
    for name, (cfg, digest) in pins.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert cli.config_fingerprint(cli.resolve_config(path)) == digest, name


@pytest.mark.parametrize("section, key", [("scene", "sound_sped"), ("spectral", "fft_sise")])
def test_unknown_scene_and_spectral_keys_rejected(tmp_path, section, key):
    # a typo would otherwise fall back to the default and still enter the hash
    cfg = tiny_config()
    cfg[section] = {**cfg[section], key: 1.0}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=f"'{section}' section: unknown key '{key}'"):
        cli.resolve_config(path)


def _resolve(tmp_path, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return cli.resolve_config(path)


@pytest.mark.parametrize("key, value, message", [
    ("output_dir", "elsewhere", "config: unknown key 'output_dir'; known keys: seed, method, "
                                "streaming, hyperparameters, scene, spectral, labeled, "
                                "unlabeled, test, srp"),
    ("streaming", "banana", "config: 'streaming' must be true or false, got 'banana'"),
    ("streaming", 1, "config: 'streaming' must be true or false, got 1"),
])
def test_top_level_is_closed(tmp_path, key, value, message):
    # nothing reads an unknown key or a non-boolean streaming flag, so neither is hashed
    with pytest.raises(ValueError) as err:
        _resolve(tmp_path, tiny_config(**{key: value}))
    assert str(err.value) == message
    assert _resolve(tmp_path, tiny_config(streaming=True))["streaming"] is True


def test_signal_recipe_and_positions_are_checked_by_the_config(tmp_path):
    # at the 64 ms window of tiny_config a signal needs 1024 samples at 16 kHz
    where = "'test' section's 'signal': "
    for signal, message in [
            ({"kind": "hum"}, "'kind' must be one of 'wgn', 'speech', got 'hum'"),
            ({"kind": "file"}, "'kind' must be one of 'wgn', 'speech', got 'file'"),
            ({"duration_s": 0.0}, "'duration_s' must be at least one spectral window, "
                                  "1024 samples at 16000.0 Hz, got 0.0"),
            ({"duration_s": -1}, "'duration_s' must be at least one spectral window"),
            ({"duration_s": 0.0639}, "'duration_s' must be at least one spectral window"),
            ({"duration_s": 1e305}, "'duration_s' must be at least one spectral window"),
            *[({"duration_s": v}, "'duration_s' must be a finite number")
              for v in (np.nan, np.inf, -np.inf)]]:
        cfg = tiny_config()
        cfg["test"]["signal"].update(signal)
        with pytest.raises(ValueError, match=re.escape(where + message)):
            _resolve(tmp_path, cfg)
    cfg = tiny_config()
    cfg["test"]["signal"] = {"kind": "speech", "duration_s": 0.064}
    assert _resolve(tmp_path, cfg)["test"]["signal"] == {"kind": "speech", "duration_s": 0.064}
    with pytest.raises(ValueError, match="'test' section: 'positions' must be a list of"):
        _resolve(tmp_path, tiny_config(test={"positions": [[1.0, 1.0]]}))
    sec = _resolve(tmp_path, tiny_config(test={"positions": [[1, 1, 1], [2, 2, 1]]}))["test"]
    assert cli._positions_for(sec, "test").shape == (2, 3)


def test_spectral_rate_is_the_scene_rate(tmp_path, capsys):
    # the signals are recorded at the scene rate; features read at another would be refused
    cfg = tiny_config()
    cfg["spectral"]["sample_rate"] = 8000.0
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(path), "--output", str(tmp_path / "ds")]) == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "'spectral' section: 'sample_rate' must be the scene's 16000.0, got 8000.0",
        "type": "ValueError"}
    assert not (tmp_path / "ds").exists()
    # spelling the scene's rate out resolves to the same config as leaving it to the default
    cfg["spectral"]["sample_rate"] = 16000.0
    assert _resolve(tmp_path, cfg) == _resolve(tmp_path, tiny_config())


def test_empty_positions_are_an_empty_set(tmp_path):
    # "positions": [] places no source, as a zero-count draw does, in any order
    blobs = []
    none = {"random": {"low": [1.5, 2.0, 1.5], "high": [1.5, 2.0, 1.5], "count": 0}}
    for unlabeled in ({"positions": []}, none, {**none, "order": "nearest"}):
        work = tmp_path / f"run{len(blobs)}"
        work.mkdir()
        (work / "c.json").write_text(json.dumps(tiny_config(unlabeled=unlabeled)))
        assert cli.main(["simulate", "--config", str(work / "c.json"),
                         "--output", str(work / "ds")]) == 0
        manifest = dio.load_manifest(work / "ds")
        assert dio.records_by_role(manifest, "unlabeled") == []
        blobs.append({r["id"]: (work / "ds" / r["signal"]["path"]).read_bytes()
                      for r in manifest["records"]})
    assert len(blobs[0]) == 7 and blobs[0] == blobs[1] == blobs[2]


_ADDED_KEYS = ["zz_unknown", "output_dir", "streaming", "jitter", "order", "seed", "positions",
               "path", "sample_rate"]
_CONFIG_JUNK = [None, True, False, 0, -1, 2.5, float("nan"), "", "x", "nearest", "inf", [],
                [1], [[1.6, 2.1, 1.5]], {}, {"path": 3}]


def _stub_render(scene, source_pos, source_signal, seed):
    # simulate runs end to end on each mutant; a mutated t60 or reflection order
    # would make the real render slow, and the test is about reading the config
    return types.SimpleNamespace(signals=np.zeros((2 * scene.num_nodes, 1)))


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_simulates_or_is_refused(tmp_path, monkeypatch, capsys, data):
    # dropped, retyped and added keys at every level of the config: simulate
    # either runs or stops with a ValueError, never another exception
    import mmgploc.acoustic_sim as sim

    monkeypatch.setattr(sim, "render_measurement", _stub_render)
    cfg = tiny_config()
    mutations = []
    for _ in range(data.draw(st.integers(1, 2))):
        action = data.draw(st.sampled_from(["drop", "junk", "add"]))
        junk = copy.deepcopy(data.draw(st.sampled_from(_CONFIG_JUNK)))
        if action == "add":
            where = data.draw(st.sampled_from([p for p in _json_paths(cfg)
                                               if isinstance(_at(cfg, p), dict)]))
            key = data.draw(st.sampled_from(_ADDED_KEYS))
            _at(cfg, where)[key] = junk
        else:
            where = data.draw(st.sampled_from(list(_json_paths(cfg))[1:]))
            key = None
            if action == "drop":
                del _at(cfg, where[:-1])[where[-1]]
            else:
                _at(cfg, where[:-1])[where[-1]] = junk
        mutations.append((action, where, key))
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["simulate", "--config", str(path), "--output", str(tmp_path / "ds")])
    err = capsys.readouterr().err.strip()
    assert code == 0 or json.loads(err)["type"] == "ValueError", (mutations, err)
    if len(mutations) == 1 and mutations[0][2] in ("zz_unknown", "output_dir"):
        # a key no section knows is refused wherever it is added
        assert code == 1 and f"unknown key {mutations[0][2]!r}" in err, (mutations, err)


def _at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


# ---------------------------------------------------------------------------
# position generators


def test_grid_positions_layout():
    pts = ac.grid_positions([1.0, 2.0, 1.5], 0.5, [2, 3, 1])
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


@pytest.mark.parametrize("fault", ["blank", "short", "not a number"])
def test_evaluate_rejects_malformed_estimate_rows(pipeline, tmp_path, capsys, fault):
    # the file's lines are the hash, the header, then one row per estimate
    lines = pipeline["est"].read_text().splitlines()
    first = lines[2].split(",")
    row = {"blank": [], "short": first[:3], "not a number": first[:1] + ["abc"] + first[2:]}[fault]
    lines.insert(3, ",".join(row))
    est = tmp_path / "bad_row.csv"
    est.write_text("\n".join(lines) + "\n")
    assert cli.main(["evaluate", "--estimates", str(est), "--dataset", str(pipeline["ds"]),
                     "--output", str(tmp_path / "m.csv")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "ValueError"
    assert err["error"] == (f"{est}: line 4: expected the 7 fields of the header, an id then "
                            f"numbers, got {row!r}")
    assert not (tmp_path / "m.csv").exists()


_NOT_ONE_POSITION_PER_RECORD = {
    # columns id, x, var_x: the header of one-coordinate estimates
    "one coordinate": (lambda lines: [_columns(line, (0, 1, 4)) for line in lines],
                       "record 'test_0000' has 1 estimated coordinates, its ground truth 3"),
    "repeated row": (lambda lines: lines[:2] + lines[1:],
                     "record 'test_0000' has a second estimate"),
    "unknown id": (lambda lines: lines[:1] + ["test_9999" + lines[1][lines[1].index(","):]],
                   "no ground truth for record 'test_9999'"),
    "header id,x": (lambda lines: [_columns(line, (0, 1)) for line in lines],
                    "header ['id', 'x'] is not id, then coordinate names from x, y, z, "
                    "then their var_ names"),
}


def _columns(line, keep):
    return ",".join(field for i, field in enumerate(line.split(",")) if i in keep)


@pytest.mark.parametrize("fault", list(_NOT_ONE_POSITION_PER_RECORD))
def test_evaluate_rejects_estimates_that_are_not_one_position_per_record(pipeline, tmp_path,
                                                                        capsys, fault):
    # each estimate is scored against its record's 3-D truth: a shorter one
    # would broadcast against it, and a repeated one would count twice
    hash_line, *lines = pipeline["est"].read_text().splitlines()
    cut, message = _NOT_ONE_POSITION_PER_RECORD[fault]
    est = tmp_path / "est.csv"
    est.write_text("\n".join([hash_line] + cut(lines)) + "\n")
    assert cli.main(["evaluate", "--estimates", str(est), "--dataset", str(pipeline["ds"]),
                     "--output", str(tmp_path / "m.csv")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": f"{est}: {message}", "type": "ValueError"}
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


def test_negative_shuffle_seed_is_refused(pipeline, tmp_path, capsys):
    est = tmp_path / "est.csv"
    assert cli.main(["localize", "--model", str(pipeline["model"]),
                     "--dataset", str(pipeline["ds"]), "--output", str(est),
                     "--streaming", "--shuffle-seed", "-1"]) == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "--shuffle-seed must be a non-negative integer, got -1", "type": "ValueError"}
    assert not est.exists()


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

    # a model file whose header names a different config is rejected at localize
    model2 = tmp_path / "model2.bin"
    raw = pipeline["model"].read_bytes()
    model2.write_bytes(raw[:32] + bytes(32) + raw[64:])
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


_SIDECAR_FAULTS = {
    "empty object": lambda doc: {},
    "a list": lambda doc: [],
    "sigma2 null": lambda doc: {**doc, "sigma2": None},
    "hash of another config": lambda doc: {**doc, "config_hash": "0" * 64},
    "absent": None,
}


@pytest.mark.parametrize("command", ["localize", "baseline"])
@pytest.mark.parametrize("fault", list(_SIDECAR_FAULTS))
def test_malformed_sidecar_is_not_read(pipeline, tmp_path, command, fault):
    # the model file holds the hash and the hyperparameters; the sidecar is a view for people
    model = tmp_path / "model.bin"
    shutil.copy(pipeline["model"], model)
    mutate = _SIDECAR_FAULTS[fault]
    if mutate is not None:
        sidecar = json.loads(Path(str(pipeline["model"]) + ".meta.json").read_text())
        Path(str(model) + ".meta.json").write_text(json.dumps(mutate(sidecar)))
    args = ["localize"] if command == "localize" else \
        ["baseline", "--config", str(pipeline["cfg"]), "--method", "mean"]
    outputs = []
    for path in (pipeline["model"], model):
        out = tmp_path / f"e{len(outputs)}.csv"
        assert cli.main(args + ["--model", str(path), "--dataset", str(pipeline["ds"]),
                                "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# edits to both manifests of a dataset, and the error each must raise
_MANIFEST_EDITS = {
    "fft_size a string": (lambda doc: doc["spectral"].__setitem__("fft_size", "1024"),
                          "'spectral': 'fft_size' must be a non-negative integer, got '1024'"),
    "sound_speed a string": (lambda doc: doc["scene"].__setitem__("sound_speed", "343"),
                             "'scene': 'sound_speed' must be a finite number, got '343'"),
    "spectral null": (lambda doc: doc.__setitem__("spectral", None),
                      "'spectral' must be an object, got None"),
}


@pytest.mark.parametrize("stage", ["features", "fit", "localize", "baseline", "srp-phat",
                                   "evaluate"])
@pytest.mark.parametrize("edit", list(_MANIFEST_EDITS))
def test_mistyped_manifest_scene_or_spectral_is_refused(pipeline, tmp_path, capsys, edit, stage):
    # the manifest is checked against the same scene and spectral tables as a
    # config, before any stage uses a value of it
    mutate, message = _MANIFEST_EDITS[edit]
    work = _with_both_manifests_edited(pipeline, tmp_path, mutate)
    argv = _stage(stage, pipeline["cfg"], work / "ds", work) if stage != "srp-phat" else \
        _srp_argv(pipeline, work)
    assert cli.main(argv) == 1
    err = json.loads(capsys.readouterr().err.strip())
    manifest = work / "ds" / (dio.EVALUATION_NAME if stage == "evaluate" else dio.MANIFEST_NAME)
    assert err == {"error": f"{manifest}: {message}", "type": "ValueError"}


def _with_both_manifests_edited(pipeline, tmp_path, mutate):
    """A copy of the pipeline's directory whose two manifests ``mutate`` has edited."""
    work = tmp_path / "work"
    shutil.copytree(pipeline["root"], work)
    for name in (dio.MANIFEST_NAME, dio.EVALUATION_NAME):
        doc = json.loads((work / "ds" / name).read_text())
        mutate(doc)
        (work / "ds" / name).write_text(json.dumps(doc))
    return work


def _srp_argv(pipeline, work):
    return ["baseline", "--config", str(pipeline["cfg"]), "--method", "srp-phat",
            "--dataset", str(work / "ds"), "--output", str(work / "srp.csv")]


def test_srp_phat_refuses_a_scene_rate_other_than_the_spectral_rate(pipeline, tmp_path, capsys):
    # the signals were recorded, and the features read, at the spectral rate;
    # SRP-PHAT steering at the scene's would place the source elsewhere
    work = _with_both_manifests_edited(
        pipeline, tmp_path, lambda doc: doc["scene"].__setitem__("sample_rate", 8000.0))
    for argv in (_stage("features", pipeline["cfg"], work / "ds", work),
                 _srp_argv(pipeline, work)):
        assert cli.main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": f"{work / 'ds' / dio.MANIFEST_NAME}: scene rate 8000.0 != "
                                "spectral rate 16000.0", "type": "ValueError"}
    assert not (work / "srp.csv").exists()


def test_srp_phat_refuses_a_sound_speed_of_zero(pipeline, tmp_path, capsys):
    work = _with_both_manifests_edited(
        pipeline, tmp_path, lambda doc: doc["scene"].__setitem__("sound_speed", 0.0))
    assert cli.main(_srp_argv(pipeline, work)) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "sound_speed must be finite and positive, got 0.0",
                   "type": "ValueError"}
    assert not (work / "srp.csv").exists()


def test_a_fit_that_does_not_learn_removes_an_earlier_trace(pipeline, two_runs, tmp_path):
    # the trace is the optimizer history of the model beside it: a median
    # refit over a learned fit must not leave the learned fit's trace behind
    work = tmp_path / "work"
    shutil.copytree(two_runs["old"]["work"], work)
    assert (work / "model.trace.csv").exists()
    assert cli.main(_stage("fit", pipeline["cfg"], pipeline["ds"], work)) == 0
    assert not (work / "model.trace.csv").exists()
    assert json.loads((work / "model.bin.meta.json").read_text())["learned"] is False
    assert (work / "model.bin").read_bytes() == pipeline["model"].read_bytes()


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


def test_features_with_more_rows_than_nodes_are_rejected(pipeline, tmp_path, capsys):
    # each 1-node record's features repeated into 2 rows
    ds = tmp_path / "ds"
    shutil.copytree(pipeline["ds"], ds)
    manifest = dio.load_manifest(ds)
    dio.attach_features(ds, {e["id"]: np.repeat(dio.read_record_features(manifest, e), 2, axis=0)
                             for e in manifest["records"]})
    assert cli.main(["fit", "--config", str(pipeline["cfg"]), "--dataset", str(ds),
                     "--output", str(tmp_path / "m.bin")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "ValueError"
    assert err["error"].startswith("record labeled_0000: features of shape (2, ")
    assert not (tmp_path / "m.bin").exists()
    assert cli.main(["localize", "--model", str(pipeline["model"]), "--dataset", str(ds),
                     "--output", str(tmp_path / "e.csv")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"].startswith("record test_0000: features of shape (2, ")


def test_thread_cap(monkeypatch):
    monkeypatch.setenv("MMGP_THREADS", "2")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    cli._cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert os.environ["MKL_NUM_THREADS"] == "2"


def _child_env():
    # the child must import the package under test, also when only
    # pytest's own path setting found it
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# a meta-path finder that notes OPENBLAS_NUM_THREADS when NumPy is first imported
_NUMPY_SPY = """
import os, sys
class Spy:
    seen = []
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
"""


@pytest.mark.parametrize("run", ["python -m mmgploc evaluate", "import mmgploc.cli"])
def test_thread_cap_is_set_before_numpy_loads(pipeline, tmp_path, run):
    if run == "import mmgploc.cli":
        body = "import mmgploc.cli\nimport numpy\n"
    else:
        argv = ["mmgploc", "evaluate", "--estimates", str(pipeline["est"]),
                "--dataset", str(pipeline["ds"]), "--output", str(tmp_path / "m.csv")]
        body = (f"import runpy\nsys.argv = {argv!r}\n"
                "try:\n    runpy.run_module('mmgploc', run_name='__main__')\n"
                "except SystemExit as exit:\n    assert exit.code == 0, exit.code\n")
    env = {k: v for k, v in _child_env().items() if not k.endswith("_THREADS")}
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_SPY + body + "print(Spy.seen)\n"],
        capture_output=True, text=True, env=dict(env, MMGP_THREADS="1"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "['1']"


def _stage_argv(stage, pipeline, work):
    """The child's argv for ``stage`` over the pipeline's artifacts; it writes only in ``work``."""
    if stage == "dataio.load_manifest":
        return ["-c", f"from mmgploc import dataio; dataio.load_manifest({str(pipeline['ds'])!r})"]
    ds, cfg = str(pipeline["ds"]), str(pipeline["cfg"])
    command, _, method = stage.partition(" ")
    if command == "features":
        # features rewrites its dataset, so it runs on a copy
        ds = str(shutil.copytree(pipeline["ds"], work / "ds"))
    argv = {"simulate": ["--config", cfg, "--output", str(work / "ds")],
            "features": ["--dataset", ds],
            "fit": ["--config", cfg, "--dataset", ds, "--output", str(work / "model.bin")],
            "localize": ["--model", str(pipeline["model"]), "--dataset", ds,
                         "--output", str(work / "est.csv")],
            "baseline": ["--config", cfg, "--method", method, "--dataset", ds,
                         "--output", str(work / "est.csv")],
            "evaluate": ["--estimates", str(pipeline["est"]), "--dataset", ds,
                         "--output", str(work / "m.csv")]}[command]
    return ["-m", "mmgploc", command, *argv]


# the SciPy modules each stage imports, as users run it: those it needs, and
# those it must not load; the simulator and the features take NumPy's FFT,
# checking a manifest reads only the scene and spectral tables of dataio, and
# only a fit that learns its hyperparameters needs the optimizer
_NO_SCIPY = ((), ("scipy",))
_GP_ONLY = (("scipy.linalg",), ("scipy.fft", "scipy.optimize"))
_STAGE_SCIPY = {"dataio.load_manifest": _NO_SCIPY, "simulate": _NO_SCIPY,
                "features": _NO_SCIPY, "evaluate": _NO_SCIPY,
                "fit": _GP_ONLY, "fit learn": (("scipy.optimize",), ()), "localize": _GP_ONLY,
                "baseline mean": _GP_ONLY, "baseline kernel-product": _GP_ONLY,
                "baseline srp-phat": _GP_ONLY}


@pytest.mark.parametrize("stage", list(_STAGE_SCIPY))
def test_each_stage_imports_only_the_scipy_it_needs(pipeline, tmp_path, request, stage):
    if stage == "fit learn":
        # a learning fit reads the dataset of a config that learns
        learned = request.getfixturevalue("two_runs")["old"]
        pipeline = dict(pipeline, cfg=learned["cfg"], ds=learned["work"] / "ds")
    result = subprocess.run([sys.executable, "-X", "importtime",
                             *_stage_argv(stage, pipeline, tmp_path)],
                            capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    # -X importtime lists each module as it is first imported
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert "mmgploc.dataio" in imported
    needs, leaves = _STAGE_SCIPY[stage]
    assert set(needs) <= imported
    assert sorted(name for name in imported
                  if any(name == out or name.startswith(out + ".") for out in leaves)) == []


def _simulate_peak(tmp_path, count) -> int:
    """Peak traced memory of ``cmd_simulate`` on ``count`` one-second records per role."""
    cfg = tiny_config()
    for role in ("labeled", "unlabeled", "test"):
        cfg[role] = {"random": {"low": [1.5, 2.0, 1.5], "high": [2.0, 2.5, 1.5], "count": count},
                     "signal": {"kind": "wgn", "duration_s": 1.0}}
    path = tmp_path / f"cfg{count}.json"
    path.write_text(json.dumps(cfg))
    cfg = cli.resolve_config(path)
    tracemalloc.start()
    try:
        cli.cmd_simulate(cfg, tmp_path / f"ds{count}")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_peak_memory_does_not_grow_with_record_count(tmp_path):
    # each record is written before the next is rendered, so 18 records peak
    # where 6 do, give or take their manifest entries (1.31 MB both, 12 kB
    # apart); holding every record until the writer started peaked at 2.3 and
    # 5.4 MB, 12 records' signals of 256 KiB each apart
    _simulate_peak(tmp_path, 1)  # imports and first-call caches, outside the comparison
    few, many = _simulate_peak(tmp_path, 2), _simulate_peak(tmp_path, 6)
    assert many - few < 256 * 2**10


def test_console_entry_point(pipeline, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "mmgploc", "evaluate",
         "--estimates", str(pipeline["est"]), "--dataset", str(pipeline["ds"]),
         "--output", str(tmp_path / "m.csv")],
        capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0
    assert result.stdout.startswith("rmse=")


# ---------------------------------------------------------------------------
# interruption: a stage stopped part way over a complete run of another config

_STAGES = ("simulate", "features", "fit", "localize", "baseline", "evaluate")
# the files each stage after features writes
_OUTPUTS = {"fit": ("model.bin", "model.trace.csv", "model.bin.meta.json"),
            "localize": ("est.csv",), "baseline": ("base.csv",), "evaluate": ("metrics.csv",)}


def _stage(stage, cfg, ds, work):
    """``stage``'s argv on config ``cfg`` and dataset ``ds``; other artifacts live in ``work``."""
    model, est = work / "model.bin", work / "est.csv"
    argv = {"simulate": ["--config", cfg, "--output", ds],
            "features": ["--dataset", ds],
            "fit": ["--config", cfg, "--dataset", ds, "--output", model],
            "localize": ["--model", model, "--dataset", ds, "--output", est],
            "baseline": ["--config", cfg, "--method", "mean", "--dataset", ds,
                         "--output", work / "base.csv", "--model", model],
            "evaluate": ["--estimates", est, "--dataset", ds, "--output", work / "metrics.csv"]}
    return [stage] + [str(a) for a in argv[stage]]


class _StopAtReplace:
    """``os.replace`` that raises KeyboardInterrupt, as a kill would land, where ``stop`` says.

    ``stop(n, dst)`` sees the call's number ``n``, counted from 1, and its target.
    """

    def __init__(self, stop):
        self.stop, self.calls, self.replace = stop, 0, os.replace

    def __call__(self, src, dst):
        self.calls += 1
        if self.stop(self.calls, dst):
            raise KeyboardInterrupt
        self.replace(src, dst)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Complete runs of the learning tiny config at seed 5 (old) and seed 6 (new)."""
    root = tmp_path_factory.mktemp("runs")
    runs = {}
    for name, seed in (("old", 5), ("new", 6)):
        work = root / name
        work.mkdir()
        cfg = work / "cfg.json"
        cfg.write_text(json.dumps(tiny_config(seed=seed, hyperparameters="learn")))
        for stage in _STAGES:
            assert cli.main(_stage(stage, cfg, work / "ds", work)) == 0
        runs[name] = {"work": work, "cfg": cfg, "outputs": {
            stage: [(work / f).read_bytes() for f in files] for stage, files in _OUTPUTS.items()}}
    for stage in _OUTPUTS:
        assert runs["old"]["outputs"][stage] != runs["new"]["outputs"][stage], stage
    return runs


@pytest.mark.parametrize("stage", _STAGES)
def test_interrupted_stage_never_mixes_two_runs(two_runs, tmp_path, monkeypatch, capsys, stage):
    # over a copy of the old run, the new run's stages before ``stage`` complete
    # and ``stage`` stops at its k-th replace.  Then each later stage, on the
    # old run's config with an untouched copy of its dataset and with the
    # dataset both runs wrote, and on the new run's config with that dataset,
    # refuses with a ValueError or writes what that stage writes in a complete run
    old, new = two_runs["old"], two_runs["new"]
    later = _STAGES[_STAGES.index(stage) + 1:]
    for k in itertools.count(1):
        work = tmp_path / f"k{k}"
        shutil.copytree(old["work"], work)
        shutil.copytree(old["work"] / "ds", work / "old_ds")
        for before in _STAGES[:_STAGES.index(stage)]:
            assert cli.main(_stage(before, new["cfg"], work / "ds", work)) == 0
        stop = _StopAtReplace(lambda n, dst: n == k)
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", stop)
            try:
                assert cli.main(_stage(stage, new["cfg"], work / "ds", work)) == 0
            except KeyboardInterrupt:
                pass
        assert not list(work.rglob("*.tmp"))
        capsys.readouterr()
        for after in later:
            for run, ds in ((old, work / "old_ds"), (old, work / "ds"), (new, work / "ds")):
                code = cli.main(_stage(after, run["cfg"], ds, work))
                err = capsys.readouterr().err.strip().splitlines()
                where = f"{stage} stopped at replace {k}, then {after} on {ds.name} " \
                        f"with the {'old' if run is old else 'new'} config"
                if code:
                    assert code == 1 and json.loads(err[-1])["type"] == "ValueError", where
                elif after in _OUTPUTS:  # features' blobs are judged by the stages that read them
                    written = [(work / f).read_bytes() for f in _OUTPUTS[after]]
                    assert written in (old["outputs"][after], new["outputs"][after]), where
        if stop.calls < k:  # the stage ran to the end without a k-th replace
            break
    assert k > 1


def test_features_leave_an_evaluation_of_another_run_alone(two_runs, tmp_path, monkeypatch):
    # the new config's simulate replaces evaluation.json and stops at its
    # manifest.json commit; features on the old manifest must not write the
    # old run's feature references into the new run's evaluation.json
    old, new = two_runs["old"], two_runs["new"]
    work = tmp_path / "work"
    shutil.copytree(old["work"], work)
    with monkeypatch.context() as patch:
        stop = _StopAtReplace(lambda n, dst: Path(dst).name == dio.MANIFEST_NAME)
        patch.setattr(os, "replace", stop)
        with pytest.raises(KeyboardInterrupt):
            cli.main(_stage("simulate", new["cfg"], work / "ds", work))
    evaluation = (work / "ds" / dio.EVALUATION_NAME).read_bytes()
    assert json.loads(evaluation)["config_hash"] != dio.load_manifest(work / "ds")["config_hash"]
    assert cli.main(_stage("features", old["cfg"], work / "ds", work)) == 0
    assert (work / "ds" / dio.EVALUATION_NAME).read_bytes() == evaluation


@pytest.mark.parametrize("view", [".trace.csv", ".meta.json"])
def test_refit_stopped_before_its_trace_or_sidecar_is_refused(two_runs, tmp_path, monkeypatch,
                                                              capsys, view):
    # the new config's refit into the old model's path stops after the model
    # file and before the trace or sidecar replaces the old one
    old, new = two_runs["old"], two_runs["new"]
    work = tmp_path / "work"
    shutil.copytree(old["work"], work)
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", _StopAtReplace(lambda n, dst: str(dst).endswith(view)))
        with pytest.raises(KeyboardInterrupt):
            cli.main(_stage("fit", new["cfg"], new["work"] / "ds", work))
    assert (work / "model.bin").read_bytes() == new["outputs"]["fit"][0]
    capsys.readouterr()
    assert cli.main(_stage("localize", old["cfg"], work / "ds", work)) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "ValueError"
    assert err["error"].startswith("config hash mismatch: model has")
    assert (work / "est.csv").read_bytes() == old["outputs"]["localize"][0]
