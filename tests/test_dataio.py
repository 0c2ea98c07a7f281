"""Dataset persistence tests: blob format, manifests, truth separation."""

import builtins
import copy
import dataclasses
import json
import os
import struct
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from conftest import MODEL_HASH, make_set
from hypothesis import given, settings
from hypothesis import strategies as st

import mmgploc.acoustic_sim as sim
import mmgploc.cli as cli
import mmgploc.dataio as dio
import mmgploc.hyperopt as ho
import mmgploc.kernels as kn
import mmgploc.mmgp_model as mm
import mmgploc.rtf_features as rf


def small_scene():
    return sim.SceneConfig(
        room_dims=(4.0, 5.0, 3.0),
        mic_positions=[[[0.8, 0.9, 1.2], [0.8, 1.1, 1.2]]],
        t60=0.0, snr_db=float("inf"), sample_rate=16000.0)


def make_records(n=3):
    """(role, id, position, signals) of ``n`` one-node records, as write_dataset takes them."""
    rng = np.random.default_rng(0)
    roles = ["labeled", "unlabeled", "test"]
    return [(roles[i % 3], f"{roles[i % 3]}_{i:04d}", np.array([1.0 + i, 2.0, 1.5]),
             rng.standard_normal((2, 50))) for i in range(n)]


def test_blob_roundtrip_float(tmp_path):
    arr = np.random.default_rng(1).standard_normal((3, 5))
    path = tmp_path / "x.f64"
    dio.write_blob(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == dio.BLOB_MAGIC
    assert struct.unpack("<3I", raw[4:16]) == (dio.BLOB_VERSION, 1, 15)
    assert len(raw) == 16 + 15 * 8
    np.testing.assert_array_equal(dio.read_blob(path).reshape(3, 5), arr)


def test_blob_roundtrip_complex(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    path = tmp_path / "x.c128"
    dio.write_blob(path, arr)
    assert struct.unpack("<3I", path.read_bytes()[4:16]) == (dio.BLOB_VERSION, 2, 8)
    np.testing.assert_array_equal(dio.read_blob(path).reshape(2, 4), arr)


def test_blob_errors(tmp_path):
    path = tmp_path / "x.f64"
    dio.write_blob(path, np.arange(4.0))
    raw = path.read_bytes()
    (tmp_path / "magic.f64").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        dio.read_blob(tmp_path / "magic.f64")
    (tmp_path / "ver.f64").write_bytes(raw[:4] + struct.pack("<I", 99) + raw[8:])
    with pytest.raises(ValueError, match="version"):
        dio.read_blob(tmp_path / "ver.f64")
    (tmp_path / "code.f64").write_bytes(raw[:8] + struct.pack("<I", 7) + raw[12:])
    with pytest.raises(ValueError, match="dtype code"):
        dio.read_blob(tmp_path / "code.f64")
    (tmp_path / "short.f64").write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="size"):
        dio.read_blob(tmp_path / "short.f64")
    (tmp_path / "long.f64").write_bytes(raw + b"\0" * 4)
    with pytest.raises(ValueError, match="size"):
        dio.read_blob(tmp_path / "long.f64")
    with pytest.raises(ValueError, match="dtype"):
        dio.write_blob(tmp_path / "bad.blob", np.arange(4))


def test_blob_rejects_every_truncated_prefix(tmp_path):
    path = tmp_path / "x.c128"
    dio.write_blob(path, np.arange(6.0) + 1j)
    raw = path.read_bytes()
    cut = tmp_path / "cut.c128"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(ValueError):
            dio.read_blob(cut)
    # a header cut short after the magic is reported as truncation
    cut.write_bytes(raw[:6])
    with pytest.raises(ValueError, match="truncated header"):
        dio.read_blob(cut)


def test_blob_that_shrinks_while_read_is_rejected(tmp_path, monkeypatch):
    # the size check saw the whole file, then the payload came up short:
    # no value of the result may be left unread
    path = tmp_path / "x.f64"
    dio.write_blob(path, np.arange(4.0))
    path.write_bytes(path.read_bytes()[:-8])
    with monkeypatch.context() as patch:
        patch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=16 + 4 * 8))
        with pytest.raises(ValueError, match="payload shorter than its 4 values"):
            dio.read_blob(path)


_BLOB_BYTES = b"".join([dio.BLOB_MAGIC, struct.pack("<3I", dio.BLOB_VERSION, 2, 3),
                        (np.arange(3.0) + 1j).tobytes()])


def _reads_or_rejects(raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.c128"
        path.write_bytes(raw)
        try:
            dio.read_blob(path)
        except ValueError:
            pass


@settings(max_examples=150, deadline=None, database=None)
@given(cut=st.integers(0, len(_BLOB_BYTES)),
       flips=st.lists(st.tuples(st.integers(0, len(_BLOB_BYTES) - 1), st.integers(1, 255)),
                      max_size=4),
       field=st.integers(0, 3), value=st.integers(0, 2**32 - 1))
def test_read_blob_survives_corruption(cut, flips, field, value):
    raw = bytearray(_BLOB_BYTES)
    for at, mask in flips:
        raw[at] ^= mask
    _reads_or_rejects(bytes(raw[:cut]))
    raw[4 * field: 4 * field + 4] = struct.pack("<I", value)
    _reads_or_rejects(bytes(raw))


class _FailsOnSecondWrite:
    """A file whose second write raises, as a full disk would."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, data):
        self._writes += 1
        if self._writes == 2:
            raise OSError("simulated full disk")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _save_model(path):
    rng = np.random.default_rng(5)
    hp = kn.Hyperparameters(eps=[2.0, 3.0], sigma2=0.1)
    mm.save_model(mm.fit(make_set(rng, 4, 2, 3), rng.uniform(0.0, 4.0, (2, 2)), hp), path,
                  MODEL_HASH)


def _write_trace(path):
    result = ho.OptimizeResult(hyperparameters=kn.Hyperparameters(eps=[2.0], sigma2=0.1),
                               log_likelihood=-1.0, trace=[(0, -1.0, 2.0, 0.1)],
                               converged=True)
    ho.write_trace_csv(result, path)


@pytest.mark.parametrize("write", [
    lambda path: dio.write_blob(path, np.arange(5.0)),
    lambda path: dio._dump_json(path, {"records": [1, 2, 3]}),
    _save_model,
    lambda path: cli._write_estimates(path, "abc", [("t0", np.zeros(3), np.ones(3))]),
    lambda path: cli._write_metrics(path, "abc", ["t0", "t1"], np.array([0.5, 1.5]),
                                    1.1, block_size=1),
    _write_trace,
], ids=["write_blob", "dump_json", "save_model", "estimates_csv", "metrics_csv",
        "trace_csv"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    path.write_bytes(b"old contents")
    monkeypatch.setattr(dio, "open", lambda *a, **k: _FailsOnSecondWrite(builtins.open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="simulated"):
        write(path)
    assert path.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    monkeypatch.undo()
    write(path)
    assert path.read_bytes() != b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_config_hash_canonical():
    a = {"x": 1, "y": [1.5, 2.5], "z": "s"}
    b = {"z": "s", "y": [1.5, 2.5], "x": 1}
    assert dio.config_hash(a) == dio.config_hash(b)
    assert dio.config_hash({**a, "x": 2}) != dio.config_hash(a)
    with pytest.raises(ValueError):
        dio.config_hash({"x": float("nan")})


def test_scene_dict_roundtrip():
    scene = small_scene()
    again = dio.scene_from_dict(dio.scene_to_dict(scene))
    np.testing.assert_array_equal(again.room_dims, scene.room_dims)
    np.testing.assert_array_equal(again.mic_positions, scene.mic_positions)
    assert again.snr_db == scene.snr_db and again.t60 == scene.t60
    finite = sim.SceneConfig(room_dims=(4.0, 5.0, 3.0),
                             mic_positions=scene.mic_positions,
                             t60=0.3, snr_db=20.0, sample_rate=8000.0,
                             max_reflection_order=5)
    again = dio.scene_from_dict(dio.scene_to_dict(finite))
    assert again.snr_db == 20.0 and again.max_reflection_order == 5


def test_spectral_dict_roundtrip():
    cfg = rf.SpectralConfig(sample_rate=16000.0)
    again = dio.spectral_from_dict(dataclasses.asdict(cfg))
    assert again == cfg


def test_unknown_scene_and_spectral_keys_rejected():
    scene = dio.scene_to_dict(small_scene())
    with pytest.raises(ValueError, match="scene: unknown key 'sound_sped'"):
        dio.scene_from_dict({**scene, "sound_sped": 300.0})
    spectral = dataclasses.asdict(rf.SpectralConfig())
    with pytest.raises(ValueError, match="spectral: unknown key 'fft_sise'"):
        dio.spectral_from_dict({**spectral, "fft_sise": 1024})


def test_dataset_truth_separation(tmp_path):
    scene = small_scene()
    path = dio.write_dataset(tmp_path / "ds", scene, make_records(),
                             rf.SpectralConfig(), "abc123")
    manifest = dio.load_manifest(path)
    assert manifest["config_hash"] == "abc123"
    by_role = {r["role"]: r for r in manifest["records"]}
    assert set(by_role) == {"labeled", "unlabeled", "test"}
    assert by_role["labeled"]["true_position"] == [1.0, 2.0, 1.5]
    assert by_role["unlabeled"]["true_position"] is None
    assert by_role["test"]["true_position"] is None

    evaluation = dio.load_manifest(Path(path).parent / dio.EVALUATION_NAME)
    ev = {r["role"]: r for r in evaluation["records"]}
    assert ev["test"]["true_position"] == [3.0, 2.0, 1.5]
    assert ev["unlabeled"]["true_position"] is None


def test_signal_roundtrip_and_feature_attach(tmp_path):
    scene = small_scene()
    records = make_records()
    dio.write_dataset(tmp_path / "ds", scene, records, rf.SpectralConfig(), "h")
    manifest = dio.load_manifest(tmp_path / "ds")
    entry = manifest["records"][0]
    np.testing.assert_array_equal(
        dio.read_record_signals(manifest, entry), records[0][3])

    with pytest.raises(ValueError, match="features"):
        dio.read_record_features(manifest, entry)

    rng = np.random.default_rng(3)
    feats = {r["id"]: rng.standard_normal((1, 7)) + 1j * rng.standard_normal((1, 7))
             for r in manifest["records"]}
    evaluation = (tmp_path / "ds" / dio.EVALUATION_NAME).read_bytes()
    dio.attach_features(tmp_path / "ds", feats)
    manifest = dio.load_manifest(tmp_path / "ds")
    for rec in manifest["records"]:
        assert rec["features"]["path"] == f"features/{rec['id']}.c128"
        np.testing.assert_array_equal(
            dio.read_record_features(manifest, rec), feats[rec["id"]])
    # feature references live in manifest.json only; evaluation.json keeps its bytes
    assert (tmp_path / "ds" / dio.EVALUATION_NAME).read_bytes() == evaluation

    with pytest.raises(ValueError, match="unknown record ids"):
        dio.attach_features(tmp_path / "ds", {"nope_0000": feats[entry["id"]]})


@pytest.mark.parametrize("reader, field", [(dio.read_record_signals, "signal"),
                                           (dio.read_record_features, "features")])
@pytest.mark.parametrize("kind", ["absolute", "parent"])
def test_record_blob_paths_stay_inside_the_dataset(tmp_path, reader, field, kind):
    scene = small_scene()
    records = make_records()
    dio.write_dataset(tmp_path / "ds", scene, records, rf.SpectralConfig(), "h")
    outside = tmp_path / "outside.f64"
    dio.write_blob(outside, np.ones((2, 50)))  # a readable blob, so only the check can refuse
    manifest = dio.load_manifest(tmp_path / "ds")
    entry = manifest["records"][0]
    path = str(outside) if kind == "absolute" else "signals/../../outside.f64"
    entry[field] = {"path": path, "shape": [2, 50]}
    with pytest.raises(ValueError, match=f"record {entry['id']}: .*outside the dataset"):
        reader(manifest, entry)


@pytest.mark.parametrize("shape", [[3, 10], [2, "x"], None, [-1, 10], [2.0, 10], [True, 20]])
def test_record_blob_shape_must_fit_the_blob(tmp_path, shape):
    scene = small_scene()
    dio.write_dataset(tmp_path / "ds", scene, make_records(), rf.SpectralConfig(), "h")
    dio.write_blob(tmp_path / "ds" / "twenty.f64", np.arange(20.0))
    manifest = dio.load_manifest(tmp_path / "ds")
    entry = manifest["records"][0]
    entry["signal"] = {"path": "twenty.f64", "shape": [2, 10]}
    assert dio.read_record_signals(manifest, entry).shape == (2, 10)
    entry["signal"]["shape"] = shape
    with pytest.raises(ValueError, match=rf"record {entry['id']}: blob shape .* 20 values"):
        dio.read_record_signals(manifest, entry)


def test_manifest_validation(tmp_path):
    scene = small_scene()
    records = make_records()
    records[1] = (records[1][0], records[0][1], *records[1][2:])
    with pytest.raises(ValueError, match="duplicate"):
        dio.write_dataset(tmp_path / "dup", scene, records, rf.SpectralConfig(), "h")
    with pytest.raises(ValueError, match="cannot name a directory"):
        dio.write_dataset(tmp_path / "up", scene, make_records(), rf.SpectralConfig(), "../h")
    assert not (tmp_path / "up").exists()

    path = Path(dio.write_dataset(tmp_path / "ok", scene, make_records(),
                                  rf.SpectralConfig(), "h"))
    doc = json.loads(path.read_text())
    doc["records"][0]["role"] = "mystery"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="role"):
        dio.load_manifest(path)

    doc["records"][0]["role"] = "labeled"
    doc["records"][0]["true_position"] = None
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="lacks a position"):
        dio.load_manifest(path)

    doc["format_version"] = 9
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="manifest version"):
        dio.load_manifest(path)

    path.write_text("[]")
    with pytest.raises(ValueError, match="must be an object"):
        dio.load_manifest(path)

    with pytest.raises(FileNotFoundError):
        dio.load_manifest(tmp_path / "missing")


def _set_record(index, value):
    return lambda doc: doc["records"].__setitem__(index, value)


def _drop_key(index, key):
    return lambda doc: doc["records"][index].pop(key)


def _set_position(value):
    return lambda doc: doc["records"][0].__setitem__("true_position", value)


# make_records lists labeled_0000, unlabeled_0001, test_0002
_MANIFEST_FAULTS = {
    "records missing": (lambda doc: doc.pop("records"), "needs 'records'"),
    "records not a list": (lambda doc: doc.__setitem__("records", 5), "'records' must be a list"),
    "entry not an object": (_set_record(1, "unlabeled_0001"), "record #1 must be an object"),
    "entry without id": (_drop_key(1, "id"), "record #1 needs 'id'"),
    "entry without role": (_drop_key(2, "role"), "record test_0002 needs 'role'"),
    "position of length 2": (_set_position([1.0, 2.0]), "labeled_0000: .*3-vector"),
    "position not a list": (_set_position(1.5), "labeled_0000: .*3-vector"),
    "position with a string": (_set_position([1.0, "2", 1.5]), "labeled_0000: .*3-vector"),
    "position with NaN": (_set_position([1.0, float("nan"), 1.5]), "labeled_0000: .*3-vector"),
    "position with inf": (_set_position([1.0, 2.0, float("inf")]), "labeled_0000: .*3-vector"),
}


@pytest.mark.parametrize("fault", list(_MANIFEST_FAULTS))
def test_manifest_rejects_malformed_records(tmp_path, fault):
    mutate, message = _MANIFEST_FAULTS[fault]
    path = Path(dio.write_dataset(tmp_path / "ds", small_scene(), make_records(),
                                  rf.SpectralConfig(), "h"))
    doc = json.loads(path.read_text())
    dio.load_manifest(path)  # the unmutated manifest loads
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        dio.load_manifest(path)


@pytest.fixture(scope="module")
def featured_dataset(tmp_path_factory):
    """A 1-node dataset with features, its manifest text and what each record holds.

    Beside the record blobs lie a blob outside the dataset and two blobs of
    the wrong shape for this scene, for mutations to point at.
    """
    root = tmp_path_factory.mktemp("mutants")
    scene, records = small_scene(), make_records()
    path = Path(dio.write_dataset(root / "ds", scene, records, rf.SpectralConfig(), "h"))
    rng = np.random.default_rng(4)
    feats = {rec_id: rng.standard_normal((1, 7)) + 1j * rng.standard_normal((1, 7))
             for _, rec_id, _, _ in records}
    dio.attach_features(root / "ds", feats)
    dio.write_blob(root / "outside.f64", np.ones((2, 50)))
    dio.write_blob(root / "ds" / "features" / "two_rows.c128", np.ones((2, 7), complex))
    dio.write_blob(root / "ds" / "signals" / "four_rows.f64", np.ones((4, 50)))
    truth = {rec_id: (signals, feats[rec_id]) for _, rec_id, _, signals in records}
    return path, path.read_text(), truth


def _json_paths(node, prefix=()):
    """Every position in a JSON document, as the keys and indices leading to it."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


_JUNK = [None, True, 0, -1, 2.5, float("nan"), "", "x", [], [1], {}, {"path": 3}]
_BLOB_PATHS = ["../outside.f64", "signals/../../outside.f64", "/outside.f64", "", "signals",
               "missing.f64", "manifest.json", "features/two_rows.c128",
               "signals/four_rows.f64", "signals/labeled_0000.f64\0"]
_SHAPES = [[2, 49], [100], [50, 2], [1, 7, 1], [7, 1], [7], [2, 7], [4, 50], [-2, -50]]


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_mutated_manifest_is_rejected_or_loads_correctly(featured_dataset, data):
    path, text, truth = featured_dataset
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 2))):
        action = data.draw(st.sampled_from(["drop", "junk", "path", "shape"]))
        if action in ("drop", "junk"):
            where = data.draw(st.sampled_from(list(_json_paths(doc))[1:]))
            parent = doc
            for key in where[:-1]:
                parent = parent[key]
            if action == "drop":
                del parent[where[-1]]
            else:
                parent[where[-1]] = copy.deepcopy(data.draw(st.sampled_from(_JUNK)))
        else:
            # junk may have made "records" a non-list, which holds no references
            records = doc.get("records") if isinstance(doc.get("records"), list) else []
            records = [r for r in records if isinstance(r, dict)]
            refs = [r[k] for r in records for k in ("signal", "features")
                    if isinstance(r.get(k), dict)]
            if not refs:
                continue
            ref = data.draw(st.sampled_from(refs))
            if action == "path":
                ref["path"] = data.draw(st.sampled_from(_BLOB_PATHS))
            else:
                ref["shape"] = copy.deepcopy(data.draw(st.sampled_from(_SHAPES)))
    mutant = path.with_name("mutant.json")
    mutant.write_text(json.dumps(doc))
    try:
        manifest = dio.load_manifest(mutant)
        read = {e["id"]: (dio.read_record_signals(manifest, e),
                          dio.read_record_features(manifest, e)
                          if e.get("features") is not None else None)
                for e in manifest["records"]}
    except ValueError:
        return
    # what loads is what the manifest names, in the scene's shape
    original = {r["id"]: r for r in json.loads(text)["records"]}
    for entry in manifest["records"]:
        signals, features = read[entry["id"]]
        assert signals.shape == tuple(entry["signal"]["shape"]) and signals.shape[0] == 2
        if features is not None:
            assert features.shape == tuple(entry["features"]["shape"]) == (1, 7)
        before = original.get(entry["id"])
        if before is not None and entry["signal"] == before["signal"]:
            np.testing.assert_array_equal(signals, truth[entry["id"]][0])
        if before is not None and features is not None and entry["features"] == before["features"]:
            np.testing.assert_array_equal(features, truth[entry["id"]][1])


def _simulate(tmp_path, seed, out):
    """``cmd_simulate`` of a 4-record one-node config at master ``seed``; returns its hash."""
    # a 32 ms window, so 50 ms signals span one
    role = {"signal": {"duration_s": 0.05}}
    cfg = {"seed": seed, "scene": dio.scene_to_dict(small_scene()),
           "spectral": {"window_length_s": 0.032},
           "labeled": {**role, "positions": [[1.0, 2.0, 1.5], [2.0, 3.0, 1.5]]},
           "unlabeled": {**role, "positions": [[1.5, 2.5, 1.5]]},
           "test": {**role, "positions": [[2.5, 2.0, 1.5]]}}
    path = tmp_path / f"cfg{seed}.json"
    path.write_text(json.dumps(cfg))
    cfg = cli.resolve_config(path)
    cli.cmd_simulate(cfg, out)
    return cli.config_fingerprint(cfg)


def _file_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    digest = _simulate(tmp_path, 1, a)
    _simulate(tmp_path, 1, b)
    first = _file_bytes(a)
    assert first == _file_bytes(b)
    manifest = dio.load_manifest(a)
    assert [r["id"] for r in manifest["records"]] == [
        "labeled_0000", "labeled_0001", "unlabeled_0000", "test_0000"]
    assert {r["signal"]["path"] for r in manifest["records"]} == {
        f"signals/{digest}/{r['id']}.f64" for r in manifest["records"]}

    # a re-run of the config rewrites the same bytes; a run of another config
    # leaves only its own signal blobs once its manifest is written
    _simulate(tmp_path, 1, a)
    assert _file_bytes(a) == first
    other = _simulate(tmp_path, 2, a)
    assert [p.name for p in (a / "signals").iterdir()] == [other]
    assert dio.load_manifest(a)["config_hash"] == other
