"""Dataset directory format: manifest plus raw binary blobs.

A dataset directory holds ``manifest.json``, per-record signal blobs under
``signals/<config hash>/`` and, once extracted, feature blobs under
``features/``.  Blobs are little-endian arrays behind a fixed 16-byte header
so any language can map them.  Ground truth for test records lives only in
``evaluation.json``, never in the training-side manifest.  ``write_dataset``
takes the records as a stream and writes each as it arrives, so writing a
dataset holds one record's signals at a time.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import secrets
import shutil
import struct
from pathlib import Path

import numpy as np

BLOB_MAGIC = b"MGPB"
BLOB_VERSION = 1
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
EVALUATION_NAME = "evaluation.json"

# a record's role; a config section's default seed offset is its 1-based index here
ROLES = ("labeled", "unlabeled", "test")
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


def write_csv(path, header, rows, config_hash: str | None = None) -> None:
    """``header`` and ``rows`` as CSV, after a ``# config_hash=`` line if given; atomic."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "w", newline="") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
        fh.write(flat)


def read_blob(path) -> np.ndarray:
    """Read a blob back as a flat array; the manifest carries the shape."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:4] != BLOB_MAGIC:
            raise ValueError(f"{path}: not an array blob (bad magic)")
        if len(head) < 16:
            raise ValueError(f"{path}: truncated header ({len(head)} of 16 bytes)")
        version, code, count = struct.unpack("<3I", head[4:])
        if version != BLOB_VERSION:
            raise ValueError(f"{path}: unsupported blob version {version}")
        if code not in _DTYPE_CODES:
            raise ValueError(f"{path}: unknown dtype code {code}")
        dtype = _DTYPE_CODES[code]
        # the count must fit the file before it sizes the result array
        size, expected = os.fstat(fh.fileno()).st_size, 16 + count * dtype.itemsize
        if size != expected:
            raise ValueError(f"{path}: size {size} != header count ({expected} bytes)")
        out = np.empty(count, dtype=dtype)
        if fh.readinto(out) != out.nbytes:
            raise ValueError(f"{path}: payload shorter than its {count} values")
    return out


# ---------------------------------------------------------------------------
# field checks of input from outside the program: configs, manifests, sidecars


def is_number(v) -> bool:
    # type() rather than isinstance: a bool is an int, but neither a number nor an integer here
    return type(v) in (int, float) and math.isfinite(v)


def is_count(v) -> bool:
    return type(v) is int and v >= 0


def is_point(v) -> bool:
    return isinstance(v, list) and len(v) == 3 and all(map(is_number, v))


# field -> (check, what it expects)
NUMBER = (is_number, "a finite number")
INTEGER = (lambda v: type(v) is int, "an integer")
COUNT = (is_count, "a non-negative integer")
POINT = (is_point, "a list of 3 finite numbers")
TEXT = (lambda v: isinstance(v, str), "a string")
MIC_PAIRS = (lambda v: isinstance(v, list) and len(v) > 0 and all(
                 isinstance(pair, list) and len(pair) == 2 and all(map(is_point, pair))
                 for pair in v),
             "a non-empty list of per-node microphone pairs of [x, y, z] points")
# the one schema of a scene and a spectral object, in a config or a manifest: its
# keys are the SceneConfig and SpectralConfig fields, in order, and the
# dataclasses check the ranges
SCENE = {"room_dims": POINT, "mic_positions": MIC_PAIRS, "t60": NUMBER,
         "snr_db": (lambda v: v == "inf" or is_number(v), "a finite number or 'inf'"),
         "sample_rate": NUMBER, "sound_speed": NUMBER,
         "max_reflection_order": (lambda v: v == "auto" or is_count(v),
                                  "a non-negative integer or 'auto'")}
SPECTRAL = {"sample_rate": NUMBER, "window_length_s": NUMBER, "overlap_fraction": NUMBER,
            "fft_size": COUNT, "band_low_hz": NUMBER, "band_high_hz": NUMBER}


def check_fields(spec, where: str, fields: dict, optional=(), known=None) -> dict:
    """``spec`` is an object whose ``fields`` pass their checks; returns it.

    A field in ``optional`` may be absent, and if ``known`` is given a key
    outside it is an error: a typo such as ``"sound_sped"`` would otherwise
    fall back to a default.  Each error names ``where`` and the key.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be an object, got {spec!r}")
    for key in spec:
        if known is not None and key not in known:
            raise ValueError(f"{where}: unknown key {key!r}; known keys: {', '.join(known)}")
    for key, (ok, what) in fields.items():
        if key not in spec:
            if key in optional:
                continue
            raise ValueError(f"{where} needs {key!r}")
        if not ok(spec[key]):
            raise ValueError(f"{where}: {key!r} must be {what}, got {spec[key]!r}")
    return spec


# ---------------------------------------------------------------------------
# configuration hashing and echoes


def config_hash(obj) -> str:
    """sha256 of the canonical JSON form; stable across key order."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def field_defaults(cls) -> dict:
    """A dataclass's field defaults, by field name."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def scene_to_dict(scene) -> dict:
    """A ``SceneConfig`` as JSON: its fields in order, arrays as lists, an infinite SNR as "inf"."""
    d = {f.name: getattr(scene, f.name) for f in dataclasses.fields(scene)}
    return {**d, "room_dims": scene.room_dims.tolist(),
            "mic_positions": scene.mic_positions.tolist(),
            "snr_db": "inf" if math.isinf(scene.snr_db) else scene.snr_db}


def scene_from_dict(d: dict):
    """A ``SceneConfig`` from its dict; absent optional fields take the class defaults."""
    from .acoustic_sim import SceneConfig

    check_fields(d, "scene", SCENE, optional=field_defaults(SceneConfig), known=SCENE)
    snr = d["snr_db"]
    return SceneConfig(**{**d, "snr_db": math.inf if snr == "inf" else float(snr)})


def spectral_from_dict(d: dict):
    """A ``SpectralConfig`` from its dict; absent fields take the class defaults."""
    from .rtf_features import SpectralConfig

    return SpectralConfig(**check_fields(d, "spectral", SPECTRAL, optional=SPECTRAL,
                                         known=SPECTRAL))


# ---------------------------------------------------------------------------
# manifests


def write_dataset(out_dir, scene, records, spectral, config_hash: str) -> str:
    """Write signal blobs and both manifests; returns the manifest path.

    ``records`` yields (role, id, position, signals) per record, with unique
    ids, and is read one record at a time: each blob is written before the
    next record is asked for.  Both manifests carry the ``SpectralConfig``
    that feature extraction will use and the hash of the config that made
    the records.  The training manifest exposes positions of labeled records
    only; ``evaluation.json`` additionally carries test-record ground truth.

    The blobs go under ``signals/<config_hash>/``, so a run of another config
    never rewrites a blob that the committed manifest names, and a re-run of
    the same config writes the same bytes.  ``evaluation.json`` is written
    first and ``manifest.json`` last, as the commit; the other runs' signal
    blobs are removed only after it, so an interruption leaves either the
    last committed dataset or this one, plus files no manifest names.
    """
    if not config_hash.isalnum():
        raise ValueError(f"config hash {config_hash!r} cannot name a directory")
    out = Path(out_dir)
    (out / "signals" / config_hash).mkdir(parents=True, exist_ok=True)
    entries, eval_entries = [], []
    seen = set()
    for role, rec_id, position, signals in records:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if rec_id in seen:
            raise ValueError(f"duplicate record id {rec_id!r}")
        seen.add(rec_id)
        rel = f"signals/{config_hash}/{rec_id}.f64"
        write_blob(out / rel, signals)
        position = [float(v) for v in position]
        entry = {
            "id": rec_id,
            "role": role,
            "true_position": position if role == "labeled" else None,
            "signal": {"path": rel, "shape": list(signals.shape)},
            "features": None,
        }
        entries.append(entry)
        eval_entries.append({**entry, "true_position": None if role == "unlabeled"
                             else position})

    base = {
        "format_version": MANIFEST_VERSION,
        "config_hash": config_hash,
        "scene": scene_to_dict(scene),
        "spectral": dataclasses.asdict(spectral),
    }
    manifest_path = out / MANIFEST_NAME
    _dump_json(out / EVALUATION_NAME, {**base, "records": eval_entries})
    _dump_json(manifest_path, {**base, "records": entries})
    # committed: no manifest names another run's blobs now
    for stale in (out / "signals").iterdir():
        if stale.name == config_hash:
            continue
        if stale.is_dir():
            shutil.rmtree(stale)
        else:
            stale.unlink()
    return str(manifest_path)


def load_manifest(path) -> dict:
    """Load and validate either manifest flavor.

    Its ``scene`` and ``spectral`` objects hold every field of ``SCENE`` and
    ``SPECTRAL``, each of the type given there, and the two sample rates
    agree: the signals were recorded at the one the features are read at.
    """
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    with open(path) as fh:
        manifest = check_fields(json.load(fh), str(path), _MANIFEST)
    check_fields(manifest.get("scene"), f"{path}: 'scene'", SCENE, known=SCENE)
    check_fields(manifest.get("spectral"), f"{path}: 'spectral'", SPECTRAL, known=SPECTRAL)
    rate, spectral_rate = manifest["scene"]["sample_rate"], manifest["spectral"]["sample_rate"]
    if rate != spectral_rate:
        raise ValueError(f"{path}: scene rate {rate} != spectral rate {spectral_rate}")
    for index, rec in enumerate(manifest["records"]):
        check_fields(rec, f"record #{index}", {"id": TEXT})
        check_fields(rec, f"record {rec['id']}", _RECORD, optional=("true_position",))
        if rec["role"] == "labeled" and rec.get("true_position") is None:
            raise ValueError(f"labeled record {rec['id']} lacks a position")
    ids = [r["id"] for r in manifest["records"]]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate record ids in manifest")
    manifest["_dir"] = str(path.parent)
    return manifest


_MANIFEST = {
    "format_version": (lambda v: v == MANIFEST_VERSION,
                       f"{MANIFEST_VERSION}, the supported manifest version"),
    "config_hash": TEXT,
    "records": (lambda v: isinstance(v, list), "a list of record objects"),
}
# any position given, on a record of any role, is a finite 3-vector
_RECORD = {"role": (lambda v: v in ROLES, f"one of {', '.join(ROLES)}"),
           "true_position": (lambda v: v is None or is_point(v), "null or a finite 3-vector")}


def records_by_role(manifest: dict, role: str) -> list:
    if role not in ROLES:
        raise ValueError(f"unknown role {role!r}")
    return [r for r in manifest["records"] if r["role"] == role]


def read_record_signals(manifest: dict, entry: dict) -> np.ndarray:
    """The record's (2M, n) signals: one row per microphone of the scene."""
    signals = _read_record_blob(manifest, entry, entry.get("signal"))
    channels = 2 * len(manifest["scene"]["mic_positions"])
    if signals.ndim != 2 or signals.shape[0] != channels:
        raise ValueError(f"record {entry['id']}: signals of shape {signals.shape}, not "
                         f"(channels, samples) for the scene's {channels} microphones")
    return signals


def read_record_features(manifest: dict, entry: dict) -> np.ndarray:
    """The record's (M, D) features: one row per node of the scene."""
    ref = entry.get("features")
    if ref is None:
        raise ValueError(f"record {entry['id']} has no extracted features; "
                         f"run feature extraction first")
    features = _read_record_blob(manifest, entry, ref)
    num_nodes = len(manifest["scene"]["mic_positions"])
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise ValueError(f"record {entry['id']}: features of shape {features.shape}, not "
                         f"(nodes, D) for the scene's {num_nodes} nodes")
    return features


def _read_record_blob(manifest: dict, entry: dict, ref) -> np.ndarray:
    """The blob ``ref`` names, a file that must resolve inside the dataset directory.

    ``ref`` is an object with a string ``path`` and a ``shape``, a list of
    non-negative ints whose product is the blob's value count.
    """
    check_fields(ref, f"record {entry['id']}: blob reference", {"path": TEXT})
    root = Path(manifest["_dir"]).resolve()
    path = (root / ref["path"]).resolve()
    if not path.is_relative_to(root):
        raise ValueError(f"record {entry['id']}: blob path {ref['path']!r} "
                         f"resolves outside the dataset directory")
    if not path.is_file():
        raise ValueError(f"record {entry['id']}: blob path {ref['path']!r} is not a file")
    blob = read_blob(path)
    shape = ref.get("shape")
    if not (isinstance(shape, list) and all(map(is_count, shape))
            and math.prod(shape) == blob.size):
        raise ValueError(f"record {entry['id']}: blob shape {shape!r} does not fit "
                         f"its {blob.size} values")
    return blob.reshape(shape)


def attach_features(dataset_dir, features: dict) -> None:
    """Write feature blobs and reference them from ``manifest.json``.

    ``features`` maps record id to a complex (M, D) array.  Ids missing
    from the mapping keep their current state; unknown ids are an error.
    ``evaluation.json`` is written once, by ``write_dataset``; no stage
    reads features through it, so it names none.
    """
    out = Path(dataset_dir)
    manifest = load_manifest(out)
    known = {r["id"] for r in manifest["records"]}
    unknown = set(features) - known
    if unknown:
        raise ValueError(f"unknown record ids: {sorted(unknown)}")
    (out / "features").mkdir(exist_ok=True)
    for rec in manifest["records"]:
        if rec["id"] in features:
            arr = np.asarray(features[rec["id"]], dtype=complex)
            rel = f"features/{rec['id']}.c128"
            write_blob(out / rel, arr)
            rec["features"] = {"path": rel, "shape": list(arr.shape)}
    del manifest["_dir"]
    _dump_json(out / MANIFEST_NAME, manifest)


def _dump_json(path, doc) -> None:
    with atomic_write(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
