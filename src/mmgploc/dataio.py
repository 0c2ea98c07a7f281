"""Dataset directory format: manifest plus raw binary blobs.

A dataset directory holds ``manifest.json``, per-record signal blobs under
``signals/`` and, once extracted, feature blobs under ``features/``.  Blobs
are little-endian arrays behind a fixed 16-byte header so any language can
map them.  Ground truth for test records lives only in ``evaluation.json``,
never in the training-side manifest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

BLOB_MAGIC = b"MGPB"
BLOB_VERSION = 1
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
EVALUATION_NAME = "evaluation.json"

_ROLES = ("labeled", "unlabeled", "test")
_DTYPE_CODES = {1: np.dtype("<f8"), 2: np.dtype("<c16")}
_CODE_OF_KIND = {"f": 1, "c": 2}


# ---------------------------------------------------------------------------
# atomic file writes


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a new file beside ``path`` that replaces it once the block succeeds.

    Readers see either the old file or the complete new one, never a
    partial write.  If the block raises, the temporary file is removed and
    ``path`` is left as it was.  ``mode`` is "w" or "wb"; ``kwargs`` go to
    ``open``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# binary blobs


def write_blob(path, array: np.ndarray) -> None:
    """Write a little-endian array blob: magic, version, dtype code, count."""
    array = np.asarray(array)
    if array.dtype.kind not in _CODE_OF_KIND:
        raise ValueError(f"unsupported dtype {array.dtype}")
    code = _CODE_OF_KIND[array.dtype.kind]
    flat = np.ascontiguousarray(array, dtype=_DTYPE_CODES[code]).ravel()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "wb") as fh:
        fh.write(BLOB_MAGIC)
        fh.write(struct.pack("<3I", BLOB_VERSION, code, flat.size))
        fh.write(flat.tobytes())


def read_blob(path) -> np.ndarray:
    """Read a blob back as a flat array; the manifest carries the shape."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != BLOB_MAGIC:
        raise ValueError(f"{path}: not an array blob (bad magic)")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated header ({len(raw)} of 16 bytes)")
    version, code, count = struct.unpack("<3I", raw[4:16])
    if version != BLOB_VERSION:
        raise ValueError(f"{path}: unsupported blob version {version}")
    if code not in _DTYPE_CODES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    dtype = _DTYPE_CODES[code]
    expected = 16 + count * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: size {len(raw)} != header count ({expected} bytes)")
    return np.frombuffer(raw[16:], dtype=dtype).copy()


# ---------------------------------------------------------------------------
# configuration hashing and echoes


def config_hash(obj) -> str:
    """sha256 of the canonical JSON form; stable across key order."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def scene_to_dict(scene) -> dict:
    return {
        "room_dims": scene.room_dims.tolist(),
        "mic_positions": scene.mic_positions.tolist(),
        "t60": scene.t60,
        "snr_db": "inf" if math.isinf(scene.snr_db) else scene.snr_db,
        "sample_rate": scene.sample_rate,
        "sound_speed": scene.sound_speed,
        "max_reflection_order": scene.max_reflection_order,
    }


def check_section_keys(d: dict, cls, section: str) -> None:
    """Reject a key of config section ``section`` that ``cls`` has no field for.

    A typo such as ``"sound_sped"`` would otherwise be ignored in favour of
    the default while still entering the config hash.
    """
    known = [f.name for f in dataclasses.fields(cls)]
    for key in d:
        if key not in known:
            raise ValueError(f"unknown {section} key {key!r}; known keys: {', '.join(known)}")


def scene_from_dict(d: dict):
    """A ``SceneConfig`` from its dict; absent optional fields take the class defaults."""
    from .acoustic_sim import SceneConfig

    check_section_keys(d, SceneConfig, "scene")
    snr = d["snr_db"]
    optional = {k: d[k] for k in ("sound_speed", "max_reflection_order") if k in d}
    return SceneConfig(
        room_dims=d["room_dims"],
        mic_positions=d["mic_positions"],
        t60=d["t60"],
        snr_db=math.inf if snr == "inf" else float(snr),
        sample_rate=d["sample_rate"],
        **optional,
    )


def spectral_from_dict(d: dict):
    from .rtf_features import SpectralConfig

    check_section_keys(d, SpectralConfig, "spectral")
    return SpectralConfig(**d)


# ---------------------------------------------------------------------------
# manifests


def write_dataset(out_dir, scene, records, spectral=None, config_hash: str = "") -> str:
    """Write signal blobs and both manifests; returns the manifest path.

    ``records`` is a list of (role, MeasurementRecord) with unique record
    ids.  The training manifest exposes positions of labeled records only;
    ``evaluation.json`` additionally carries test-record ground truth.
    """
    out = Path(out_dir)
    (out / "signals").mkdir(parents=True, exist_ok=True)
    entries, eval_entries = [], []
    seen = set()
    for role, rec in records:
        if role not in _ROLES:
            raise ValueError(f"unknown role {role!r}")
        if not rec.record_id:
            raise ValueError("records must carry ids")
        if rec.record_id in seen:
            raise ValueError(f"duplicate record id {rec.record_id!r}")
        seen.add(rec.record_id)
        rel = f"signals/{rec.record_id}.f64"
        write_blob(out / rel, rec.signals)
        entry = {
            "id": rec.record_id,
            "role": role,
            "true_position": rec.true_position.tolist() if role == "labeled" else None,
            "signal": {"path": rel, "shape": list(rec.signals.shape)},
            "features": None,
        }
        eval_entry = dict(entry)
        if role == "test":
            eval_entry["true_position"] = rec.true_position.tolist()
        entries.append(entry)
        eval_entries.append(eval_entry)

    base = {
        "format_version": MANIFEST_VERSION,
        "config_hash": config_hash,
        "scene": scene_to_dict(scene),
        "spectral": dataclasses.asdict(spectral) if spectral is not None else None,
    }
    manifest_path = out / MANIFEST_NAME
    _dump_json(manifest_path, {**base, "records": entries})
    _dump_json(out / EVALUATION_NAME, {**base, "records": eval_entries})
    return str(manifest_path)


def load_manifest(path) -> dict:
    """Load and validate either manifest flavor."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {manifest.get('format_version')}")
    if not isinstance(manifest.get("records"), list):
        raise ValueError(f"{path}: 'records' must be a list of record objects")
    for index, rec in enumerate(manifest["records"]):
        _check_record(index, rec)
    ids = [r["id"] for r in manifest["records"]]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate record ids in manifest")
    manifest["_dir"] = str(path.parent)
    return manifest


def _check_record(index: int, rec) -> None:
    """A manifest entry: an object with a string id, a known role and, if labelled, a position."""
    if not isinstance(rec, dict):
        raise ValueError(f"record #{index}: not an object")
    rec_id = rec.get("id")
    if not isinstance(rec_id, str):
        raise ValueError(f"record #{index}: missing or non-string id")
    if "role" not in rec:
        raise ValueError(f"record {rec_id}: missing role")
    if rec["role"] not in _ROLES:
        raise ValueError(f"record {rec_id}: unknown role {rec['role']!r}")
    if rec["role"] != "labeled":
        return
    pos = rec.get("true_position")
    if pos is None:
        raise ValueError(f"labeled record {rec_id} lacks a position")
    if not (isinstance(pos, list) and len(pos) == 3
            and all(type(v) in (int, float) and math.isfinite(v) for v in pos)):
        raise ValueError(f"labeled record {rec_id}: true_position must be a finite "
                         f"3-vector, got {pos!r}")


def records_by_role(manifest: dict, role: str) -> list:
    if role not in _ROLES:
        raise ValueError(f"unknown role {role!r}")
    return [r for r in manifest["records"] if r["role"] == role]


def read_record_signals(manifest: dict, entry: dict) -> np.ndarray:
    return _read_record_blob(manifest, entry, entry["signal"])


def read_record_features(manifest: dict, entry: dict) -> np.ndarray:
    ref = entry.get("features")
    if ref is None:
        raise ValueError(f"record {entry['id']} has no extracted features; "
                         f"run feature extraction first")
    return _read_record_blob(manifest, entry, ref)


def _read_record_blob(manifest: dict, entry: dict, ref: dict) -> np.ndarray:
    """The blob ``ref`` names, which must resolve inside the dataset directory.

    Its ``shape`` must be a list of non-negative ints whose product is the
    blob's value count.
    """
    root = Path(manifest["_dir"]).resolve()
    path = (root / ref["path"]).resolve()
    if not path.is_relative_to(root):
        raise ValueError(f"record {entry['id']}: blob path {ref['path']!r} "
                         f"resolves outside the dataset directory")
    blob = read_blob(path)
    shape = ref["shape"]
    # type() rather than isinstance: a bool is an int, and neither it nor a float is a size
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
            and math.prod(shape) == blob.size):
        raise ValueError(f"record {entry['id']}: blob shape {shape!r} does not fit "
                         f"its {blob.size} values")
    return blob.reshape(shape)


def attach_features(dataset_dir, features: dict) -> None:
    """Write feature blobs and reference them from both manifests.

    ``features`` maps record id to a complex (M, D) array.  Ids missing
    from the mapping keep their current state; unknown ids are an error.
    """
    out = Path(dataset_dir)
    manifest = load_manifest(out)
    known = {r["id"] for r in manifest["records"]}
    unknown = set(features) - known
    if unknown:
        raise ValueError(f"unknown record ids: {sorted(unknown)}")
    (out / "features").mkdir(exist_ok=True)
    refs = {}
    for rec_id, arr in features.items():
        arr = np.asarray(arr, dtype=complex)
        rel = f"features/{rec_id}.c128"
        write_blob(out / rel, arr)
        refs[rec_id] = {"path": rel, "shape": list(arr.shape)}
    for name in (MANIFEST_NAME, EVALUATION_NAME):
        path = out / name
        if not path.exists():
            continue
        with open(path) as fh:
            doc = json.load(fh)
        for rec in doc["records"]:
            if rec["id"] in refs:
                rec["features"] = refs[rec["id"]]
        _dump_json(path, doc)


def _dump_json(path, doc) -> None:
    with atomic_write(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
