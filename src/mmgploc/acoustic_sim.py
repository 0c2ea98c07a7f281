"""Synthetic room-acoustics data generation.

Multichannel measurements are rendered with the mirror-image method for
rectangular rooms: every wall reflection is represented by an image source
whose tap lands at the rounded sample delay with 1/(4*pi*d) spherical
attenuation.  The image sum has two parts.  ``_image_lattice`` lists the
images within the reflection-order cap, pruned lattice point by lattice
point, as per-axis table indices plus the reflection order (int32, 12 B
per image); it depends only on the lattice half-extents and the cap, so it
is cached on ``(half, max_order)`` and built once for the responses that
share them.  ``_accumulate_images`` fills per-axis tables of squared
offsets for one source/mic pair, looks every image up in them (summed as
``(x + y) + z``, the reflection order reused as the exponent of the wall
coefficient) and adds all taps with a single ``np.bincount``, which sums
them in the same order as a tap-by-tap accumulation and so keeps the
output bits of the unpruned kernel.  ``render_measurement`` convolves
through one excitation spectrum per FFT length, with the same bits as a
per-channel ``fftconvolve``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

# tail beyond the nominal decay time kept in each impulse response, so the
# -60 dB point stays resolvable after truncation
_TAIL_FACTOR = 1.25

_FOUR_PI = 4.0 * np.pi

# the 8 mirror-flip combinations, last axis fastest
_FLIPS = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)

# lattice points per block of the lattice build; the tap sum takes their
# 8 * _CHUNK images per block.  Bounds peak memory
_CHUNK = 1 << 16


def image_source_backend() -> str:
    """Name of the image-source kernel; there is only the NumPy one."""
    return "numpy"


@dataclass
class SceneConfig:
    """Static description of one simulated room and its microphone layout.

    ``mic_positions`` holds M pairs of 3-D positions in meters, one pair per
    node.  ``snr_db`` may be ``math.inf`` to disable sensor noise.
    ``max_reflection_order`` is either an integer cap or ``"auto"``, which
    picks the order beyond which the wall-reflection attenuation alone
    exceeds 60 dB.
    """

    room_dims: np.ndarray
    mic_positions: np.ndarray
    t60: float
    snr_db: float
    sample_rate: float
    sound_speed: float = 343.0
    max_reflection_order: int | str = "auto"

    def __post_init__(self):
        self.room_dims = np.asarray(self.room_dims, dtype=float)
        self.mic_positions = np.asarray(self.mic_positions, dtype=float)
        if (self.room_dims.shape != (3,) or not np.all(np.isfinite(self.room_dims))
                or np.any(self.room_dims <= 0)):
            raise ValueError("room_dims must be 3 finite positive lengths")
        if self.mic_positions.ndim != 3 or self.mic_positions.shape[1:] != (2, 3):
            raise ValueError("mic_positions must have shape (M, 2, 3): M nodes of 2 mics")
        if self.mic_positions.shape[0] < 1:
            raise ValueError("need at least one node")
        for pos in self.mic_positions.reshape(-1, 3):
            _check_inside(pos, self.room_dims, "microphone")
        if not (math.isfinite(self.t60) and self.t60 >= 0):
            raise ValueError("t60 must be finite and >= 0")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError("sample_rate must be finite and positive")
        if not (math.isfinite(self.sound_speed) and self.sound_speed > 0):
            raise ValueError("sound_speed must be finite and positive")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError("snr_db must be a number or +inf")
        if isinstance(self.max_reflection_order, str):
            if self.max_reflection_order != "auto":
                raise ValueError("max_reflection_order must be an int or 'auto'")
        elif self.max_reflection_order < 0:
            raise ValueError("max_reflection_order must be >= 0")
        _reflection_and_order(self)  # an infeasible t60 fails here, not at the first render

    @property
    def num_nodes(self) -> int:
        return self.mic_positions.shape[0]

    def flat_mics(self) -> np.ndarray:
        """All microphones as a (2M, 3) array, node-major order."""
        return self.mic_positions.reshape(-1, 3)


@dataclass
class SourceSetSpec:
    """Positions plus excitation recipe for one record set.

    ``signal_kind`` is one of ``"wgn"`` (white Gaussian noise),
    ``"speech"`` (the band-occupancy surrogate) or ``"file"`` (external
    audio, ``audio_path`` required).
    """

    positions: np.ndarray
    signal_kind: str = "wgn"
    duration_s: float = 5.0
    seed: int = 0
    audio_path: str | None = None

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if self.positions.size and self.positions.shape[1] != 3:
            raise ValueError("positions must be 3-vectors")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError("duration must be finite and positive")
        if self.signal_kind not in ("wgn", "speech", "file"):
            raise ValueError(f"unknown signal kind {self.signal_kind!r}")
        if self.signal_kind == "file" and not self.audio_path:
            raise ValueError("signal_kind 'file' requires audio_path")

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass
class MeasurementRecord:
    """One simulated acoustic event captured by every microphone.

    ``signals`` has shape (2M, n): channels are node-major, two mics per
    node.  ``true_position`` is set for labelled records and carried for
    test records only inside evaluation-side structures.
    """

    signals: np.ndarray
    sample_rate: float
    num_nodes: int
    true_position: np.ndarray | None = None
    record_id: str = ""

    def __post_init__(self):
        self.signals = np.asarray(self.signals, dtype=float)
        if self.signals.ndim != 2 or self.signals.shape[0] != 2 * self.num_nodes:
            raise ValueError("signals must be (2*num_nodes, n)")
        if not np.all(np.isfinite(self.signals)):
            raise ValueError("non-finite samples in measurement")


def _check_inside(pos, dims, what: str):
    pos = np.asarray(pos, dtype=float)
    if pos.shape != (3,):
        raise ValueError(f"{what} position must be a 3-vector")
    # written so that a NaN coordinate fails it too
    if not np.all((pos > 0) & (pos < dims)):
        raise ValueError(f"{what} position {pos.tolist()} outside room {dims.tolist()}")


def sabine_absorption(room_dims, t60: float, sound_speed: float = 343.0) -> float:
    """Uniform wall absorption that realizes ``t60`` via Sabine's formula.

    Raises when the requested decay time is infeasible for the geometry
    (absorption would leave (0, 1)).
    """
    dims = np.asarray(room_dims, dtype=float)
    volume = float(np.prod(dims))
    surface = 2.0 * (dims[0] * dims[1] + dims[0] * dims[2] + dims[1] * dims[2])
    alpha = 24.0 * math.log(10.0) * volume / (sound_speed * surface * t60)
    if not 0.0 < alpha < 1.0:
        raise ValueError(
            f"infeasible t60/geometry pair: Sabine absorption {alpha:.3f} not in (0, 1) "
            f"for t60={t60} s and room {dims.tolist()}"
        )
    return alpha


def _reflection_and_order(scene: SceneConfig) -> tuple[float, int]:
    """Wall reflection coefficient and the effective reflection-order cap."""
    if scene.t60 == 0:
        beta = 0.0
        auto_order = 0
    else:
        alpha = sabine_absorption(scene.room_dims, scene.t60, scene.sound_speed)
        beta = math.sqrt(1.0 - alpha)
        # beta**order < 1e-3 <=> the path is more than 60 dB down in energy
        auto_order = int(math.ceil(math.log(1e-3) / math.log(beta)))
    if scene.max_reflection_order == "auto":
        return beta, auto_order
    return beta, int(scene.max_reflection_order)


def rir_duration(scene: SceneConfig, source_pos, mic_pos) -> float:
    """Length in seconds of the impulse response for one source/mic pair."""
    d = float(np.linalg.norm(np.asarray(source_pos, float) - np.asarray(mic_pos, float)))
    return d / scene.sound_speed + _TAIL_FACTOR * scene.t60 + 8.0 / scene.sample_rate


def simulate_rir(scene: SceneConfig, source_pos, mic_pos) -> np.ndarray:
    """Room impulse response between one source and one microphone."""
    source_pos = np.asarray(source_pos, dtype=float)
    mic_pos = np.asarray(mic_pos, dtype=float)
    _check_inside(source_pos, scene.room_dims, "source")
    _check_inside(mic_pos, scene.room_dims, "microphone")
    # no image is nearer the microphone than the source itself, so this
    # check also keeps every image distance in the kernel positive
    if np.linalg.norm(source_pos - mic_pos) < 1e-9:
        raise ValueError("degenerate geometry: source coincides with microphone")

    beta, max_order = _reflection_and_order(scene)
    n = int(math.ceil(rir_duration(scene, source_pos, mic_pos) * scene.sample_rate))
    samples_per_meter = scene.sample_rate / scene.sound_speed
    half = _lattice_half_extent(n, scene.room_dims, samples_per_meter)
    return _accumulate_images(n, scene.room_dims, source_pos, mic_pos, beta, half,
                              max_order, samples_per_meter)


def _lattice_half_extent(n, room_dims, samples_per_meter) -> list:
    """Per-axis half-extent of the image lattice for an ``n``-sample response.

    Images farther than the response length (plus one wrap for the mirrored
    offsets) cannot land in it.
    """
    return [int(math.ceil(n / (2.0 * L * samples_per_meter))) + 1 for L in room_dims]


@functools.lru_cache(maxsize=4)
def _image_lattice(half: tuple, max_order: int) -> np.ndarray:
    """Every image within the order cap of the ``half``-extent lattice box.

    Returns a read-only (3, K) int32 array, 12 bytes per image.  Along one
    axis with half-extent ``h``, lattice index ``i`` with mirror flip ``a``
    has the table index ``2 (i + h) + a``; row 0 indexes the flattened
    x-by-y table of ``_accumulate_images`` (x index times the y table
    length, plus the y index), row 1 the z table, and row 2 is the
    reflection order, ``|2i - a|`` summed over the axes.  Images are in
    visiting order: lattice points lexicographic, mirror flips inner in
    ``_FLIPS`` order.  Lattice points whose 8 images all exceed the cap
    are dropped first, and the rest are expanded in blocks of ``_CHUNK``
    points, so the build holds one int32 block at a time besides the
    result.  Nothing here depends on
    the room, the source or the microphone, and the half-extents change
    only when the response length crosses a room-size step, so a few
    entries serve every response of a scene.
    """
    # along one axis, lattice index i with flip a has order |2i - a|;
    # the lowest over both flips bounds the point's 8 images from below
    lowest = [np.minimum(np.abs(2 * i), np.abs(2 * i - 1))
              for i in (np.arange(-h, h + 1) for h in half)]
    within = lowest[0][:, None, None] + lowest[1][:, None] + lowest[2] <= max_order
    # per axis, i + h for every kept lattice point
    corner = np.nonzero(within)
    y_size = 2 * (2 * half[1] + 1)
    blocks = []
    for start in range(0, corner[0].size, _CHUNK):
        c = [corner[k][start:start + _CHUNK, None] for k in range(3)]
        index = [2 * c[k] + _FLIPS[:, k] for k in range(3)]
        rows = np.empty((3, c[0].size, 8), dtype=np.int32)
        np.multiply(index[0], y_size, out=rows[0], casting="unsafe")
        rows[0] += index[1]
        rows[1] = index[2]
        rows[2] = 0
        for k, h in enumerate(half):
            rows[2] += np.abs(2 * (c[k] - h) - _FLIPS[:, k])
        rows = rows.reshape(3, -1)
        blocks.append(rows[:, rows[2] <= max_order])
    images = np.concatenate(blocks, axis=1)
    images.flags.writeable = False
    return images


def _accumulate_images(n, dims, src, mic, beta, half, max_order, samples_per_meter):
    """Sum every image-source tap of one source/mic pair into an n-sample response.

    ``half`` holds the lattice half-extents per axis and ``max_order`` the
    reflection-order cap (negative disables it).  The images within the
    cap come from ``_image_lattice``, cached on ``(half, max_order)``.
    Only the per-axis squared offsets ``((1 - 2a) * src + 2 i L - mic) ** 2``
    of each lattice index ``i`` and flip ``a`` depend on the room, source
    and microphone; the x and y tables are added into one x-by-y table,
    and each image looks up its entry there and in the z table.  That
    sums its squared offsets as ``(x + y) + z``, the grouping the unpruned
    kernel's sum over the last axis of an (N, 8, 3) array uses, so the
    distances keep their bits; ``x + (y + z)`` would not.  The order
    doubles as the reflection exponent, since ``|i - a| + |i| == |2i - a|``
    for integer ``i`` and ``a`` in {0, 1}.  Dropping the images over the
    cap before the tap filter keeps the same set as filtering both at
    once, and taps past the response go to an extra bin ``n`` that is cut
    off, which leaves every other bin's sum alone.  The images are visited
    in the cached order, in blocks of ``8 * _CHUNK``, and the taps of all
    blocks go through one ``np.bincount`` from zeros, which adds them in
    visiting order, so the output bits equal a tap-by-tap ``np.add.at``
    into a zero buffer.  Summing per block and adding the partial sums
    would not: ``r + (a + b)`` and ``(r + a) + b`` can differ in the last
    bit.  The bits also depend on the exact form of the amplitude
    ``bpow[order] / (4 pi d)``.
    """
    emax = 2 * sum(half) + 3
    bpow = np.empty(emax + 1)
    bpow[0] = 1.0  # covers the anechoic direct path when beta == 0
    np.cumprod(np.full(emax, beta), out=bpow[1:])

    # no image of the box has an order above emax, so no cap is the cap emax
    images = _image_lattice(tuple(half), max_order if max_order >= 0 else emax)
    tables = []
    for k, h in enumerate(half):
        rm = 2.0 * np.arange(-h, h + 1) * dims[k]
        table = np.empty((2 * h + 1, 2))
        for a in (0, 1):
            table[:, a] = ((1 - 2 * a) * src[k] + rm - mic[k]) ** 2
        tables.append(table.ravel())
    xy = (tables[0][:, None] + tables[1]).ravel()
    z = tables[2]

    count = images.shape[1]
    taps = np.empty(count, dtype=np.int64)
    amps = np.empty(count)
    # int32 to intp once into a reused buffer: np.take converts other
    # index types on every call.  Every cached index is within its table,
    # so mode="clip" only skips the bounds check and its buffering
    index = np.empty(min(8 * _CHUNK, count), dtype=np.intp)
    work = np.empty(index.size)
    for start in range(0, count, index.size):
        stop = min(start + index.size, count)
        i, w, d = index[:stop - start], work[:stop - start], amps[start:stop]
        np.copyto(i, images[0, start:stop])
        np.take(xy, i, out=d, mode="clip")
        np.copyto(i, images[1, start:stop])
        d += np.take(z, i, out=w, mode="clip")
        np.sqrt(d, out=d)
        # round half up; d is never negative
        np.multiply(d, samples_per_meter, out=w)
        w += 0.5
        np.floor(w, out=w)
        np.minimum(w, n, out=w)
        taps[start:stop] = w
        np.copyto(i, images[2, start:stop])
        np.multiply(d, _FOUR_PI, out=d)
        np.divide(np.take(bpow, i, out=w, mode="clip"), d, out=d)
    return np.bincount(taps, weights=amps, minlength=n + 1)[:n]


def white_noise_signal(duration_s: float, sample_rate: float, rng) -> np.ndarray:
    """Unit-variance white Gaussian excitation."""
    n = int(round(duration_s * sample_rate))
    return rng.standard_normal(n)


def speech_surrogate_signal(duration_s: float, sample_rate: float, rng) -> np.ndarray:
    """Speech-band stand-in: low-passed white noise under a slow random envelope.

    A fixed 2nd-order low-pass at 2.5 kHz concentrates energy where the
    feature band lives, and a 4 Hz random envelope mimics syllabic
    amplitude modulation.  Normalized to unit RMS.
    """
    # scipy.signal loads scipy.stats and more; only this excitation needs it
    from scipy.signal import butter, sosfilt

    n = int(round(duration_s * sample_rate))
    sos = butter(2, min(2500.0, 0.45 * sample_rate), btype="low", fs=sample_rate, output="sos")
    x = sosfilt(sos, rng.standard_normal(n))
    ctrl = rng.uniform(size=max(int(math.ceil(duration_s * 4.0)) + 2, 2))
    t = np.arange(n) / sample_rate
    env = 0.15 + 0.85 * np.interp(t * 4.0, np.arange(ctrl.size), ctrl)
    x *= env
    return x / max(np.sqrt(np.mean(x**2)), 1e-12)


def load_audio_signal(path: str, sample_rate: float, duration_s: float) -> np.ndarray:
    """External excitation from a WAV file; must match the scene sample rate."""
    from scipy.io import wavfile

    fs, raw = wavfile.read(path)
    if fs != sample_rate:
        raise ValueError(f"audio file rate {fs} != scene rate {sample_rate}; resample first")
    data = np.asarray(raw, dtype=float)
    if data.ndim > 1:
        data = data[:, 0]
    if np.issubdtype(np.asarray(raw).dtype, np.integer):
        data = data / max(np.abs(data).max(), 1.0)
    n = int(round(duration_s * sample_rate))
    if data.size < n:
        raise ValueError(f"audio file shorter ({data.size} samples) than requested {n}")
    return data[:n]


def make_signal(spec: SourceSetSpec, index: int, sample_rate: float) -> np.ndarray:
    """Excitation for record ``index`` of a set, deterministic in (seed, index)."""
    rng = np.random.default_rng((spec.seed, index, 0))
    if spec.signal_kind == "wgn":
        return white_noise_signal(spec.duration_s, sample_rate, rng)
    if spec.signal_kind == "speech":
        return speech_surrogate_signal(spec.duration_s, sample_rate, rng)
    return load_audio_signal(spec.audio_path, sample_rate, spec.duration_s)


def render_measurement(scene: SceneConfig, source_pos, source_signal, seed) -> MeasurementRecord:
    """Propagate one excitation to every microphone and add sensor noise.

    Each channel is the full linear convolution of the excitation with its
    impulse response, computed as ``scipy.signal.fftconvolve`` does: both
    padded to the next fast real-FFT length, multiplied as
    ``excitation_spectrum * rir_spectrum`` and transformed back.  The
    excitation is transformed once per FFT length, not once per channel,
    which keeps every bit.  White Gaussian noise is scaled per channel so
    the ratio of clean-signal power over the active support to the noise
    variance equals ``scene.snr_db`` and is added to the clean channel in
    place; ``snr_db == inf`` keeps the clean convolutions exactly.  The
    excitation must be a finite 1-D signal that is not all zeros.
    """
    source_signal = np.asarray(source_signal, dtype=float)
    if source_signal.ndim != 1:
        raise ValueError(f"source signal must be 1-D, got shape {source_signal.shape}")
    if source_signal.size == 0:
        raise ValueError("empty source signal")
    if not np.all(np.isfinite(source_signal)):
        raise ValueError("non-finite samples in source signal")
    if not np.any(source_signal):
        raise ValueError("source signal is all zeros")
    mics = scene.flat_mics()
    rirs = [simulate_rir(scene, source_pos, mic) for mic in mics]
    n_out = source_signal.size + max(r.size for r in rirs) - 1
    clean = np.zeros((len(rirs), n_out))
    spectra = {}
    for i, rir in enumerate(rirs):
        size = source_signal.size + rir.size - 1
        if source_signal.size == 1:
            # fftconvolve multiplies directly when an input has length 1
            clean[i, :size] = source_signal * rir
            continue
        nfft = next_fast_len(size, True)
        if nfft not in spectra:
            spectra[nfft] = rfftn(source_signal, [nfft], axes=[0])
        # excitation spectrum first, as fftconvolve multiplies: complex
        # products round differently with the operands swapped, and the
        # operator form ``spectrum * rfftn(...)`` may run in place in the
        # temporary, i.e. swapped
        product = np.multiply(spectra[nfft], rfftn(rir, [nfft], axes=[0]))
        clean[i, :size] = irfftn(product, [nfft], axes=[0])[:size]

    if not math.isinf(scene.snr_db):
        rng = np.random.default_rng(seed)
        snr_lin = 10.0 ** (scene.snr_db / 10.0)
        for i in range(clean.shape[0]):
            mag = np.abs(clean[i])
            active = np.flatnonzero(mag > 1e-12 * mag.max())
            support = clean[i, active[0] : active[-1] + 1]
            noise_var = float(np.mean(support**2)) / snr_lin
            clean[i] += math.sqrt(noise_var) * rng.standard_normal(n_out)

    return MeasurementRecord(
        signals=clean,
        sample_rate=scene.sample_rate,
        num_nodes=scene.num_nodes,
        true_position=np.asarray(source_pos, dtype=float),
    )


def generate_dataset(scene: SceneConfig, labeled: SourceSetSpec, unlabeled: SourceSetSpec,
                     test: SourceSetSpec, out_dir, spectral=None, config_hash: str = "") -> str:
    """Render every record of the three sets and write the dataset directory.

    Returns the manifest path.  Record ids are stable and the rendering of
    each record depends only on (set seed, record index), so regeneration
    with the same specs is bit-identical.
    """
    from . import dataio

    sets = [("labeled", labeled), ("unlabeled", unlabeled), ("test", test)]
    records = []
    for role, spec in sets:
        for i in range(spec.count):
            _check_inside(spec.positions[i], scene.room_dims, f"{role} source")
            signal = make_signal(spec, i, scene.sample_rate)
            rec = render_measurement(scene, spec.positions[i], signal, (spec.seed, i, 1))
            rec.record_id = f"{role}_{i:04d}"
            records.append((role, rec))
    return dataio.write_dataset(out_dir, scene, records, spectral=spectral,
                                config_hash=config_hash)
