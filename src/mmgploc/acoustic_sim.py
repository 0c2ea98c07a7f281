"""Synthetic room-acoustics data generation.

Multichannel measurements are rendered with the mirror-image method for
rectangular rooms: every wall reflection is represented by an image source
whose tap lands at the rounded sample delay with 1/(4*pi*d) spherical
attenuation.  The image sum is built by one vectorized NumPy kernel,
``_accumulate_images``: it drops every lattice point whose images all
exceed the reflection-order cap before any per-image arithmetic, works on
flip-major rows (one row of lattice points per mirror flip, squared axis
offsets summed as ``(x + y) + z``, the reflection order reused as the
exponent of the wall coefficient), and adds all taps with a single
``np.bincount``, which sums them in the same order as a tap-by-tap
accumulation and so keeps the output bits of the unpruned kernel.
``render_measurement`` convolves through one excitation spectrum per FFT
length, with the same bits as a per-channel ``fftconvolve``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.signal import butter, sosfilt

# tail beyond the nominal decay time kept in each impulse response, so the
# -60 dB point stays resolvable after truncation
_TAIL_FACTOR = 1.25

_FOUR_PI = 4.0 * np.pi

# the 8 mirror-flip combinations, last axis fastest
_FLIPS = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)

# lattice points processed per vectorized block, bounds peak memory
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


def _accumulate_images(n, dims, src, mic, beta, half, max_order, samples_per_meter):
    """Sum every image-source tap of one source/mic pair into an n-sample response.

    ``half`` holds the lattice half-extents per axis and ``max_order`` the
    reflection-order cap (negative disables it).  Lattice points whose
    8 images all exceed the cap are dropped before any per-image
    arithmetic; the rest are visited in lexicographic order, mirror flips
    inner, in blocks of ``_CHUNK`` points.

    Each block works on flip-major rows of its N points: per axis and flip
    one squared offset ``((1 - 2a) * src + 2 i L - mic) ** 2`` and one
    order ``|2i - a|``, summed into the 8 flip rows as ``(x + y) + z``.
    That grouping is the one a sum over the last axis of an (N, 8, 3)
    array uses, so the distances keep their bits; ``x + (y + z)`` would
    not.  The order doubles as the reflection exponent, since
    ``|i - a| + |i| == |2i - a|`` for integer ``i`` and ``a`` in {0, 1}.
    The rows are transposed back to point-major, flip-inner order, and
    the taps of all blocks go through one ``np.bincount`` from zeros,
    which adds them in visiting order, so the output bits equal a
    tap-by-tap ``np.add.at`` into a zero buffer.  Summing per block and
    adding the partial sums would not: ``r + (a + b)`` and ``(r + a) + b``
    can differ in the last bit.  The bits also depend on the exact form of
    the amplitude ``bpow[order] / (4 pi d)``.
    """
    emax = 2 * sum(half) + 3
    bpow = np.empty(emax + 1)
    bpow[0] = 1.0  # covers the anechoic direct path when beta == 0
    np.cumprod(np.full(emax, beta), out=bpow[1:])

    if max_order < 0:
        within = np.ones([2 * h + 1 for h in half], dtype=bool)
    else:
        # along one axis, lattice index i with flip a has order |2i - a|;
        # the lowest over both flips bounds the point's 8 images from below
        lowest = [np.minimum(np.abs(2 * i), np.abs(2 * i - 1))
                  for i in (np.arange(-h, h + 1) for h in half)]
        within = lowest[0][:, None, None] + lowest[1][:, None] + lowest[2] <= max_order
    # (3, points) in lexicographic order, the transpose of np.argwhere
    lattice = np.array(np.nonzero(within)) - np.array(half)[:, None]

    taps, amps = [], []
    for start in range(0, lattice.shape[1], _CHUNK):
        idx = lattice[:, start:start + _CHUNK]
        rm = 2.0 * idx * dims[:, None]
        sq = [[((1 - 2 * a) * src[k] + rm[k] - mic[k]) ** 2 for a in (0, 1)] for k in range(3)]
        axis_order = [[np.abs(2 * idx[k] - a) for a in (0, 1)] for k in range(3)]
        d2 = np.empty((8, idx.shape[1]))
        order = np.empty((8, idx.shape[1]), dtype=np.int64)
        for j, (ax, ay, az) in enumerate(_FLIPS):
            np.add(sq[0][ax], sq[1][ay], out=d2[j])
            d2[j] += sq[2][az]
            np.add(axis_order[0][ax], axis_order[1][ay], out=order[j])
            order[j] += axis_order[2][az]
        d = np.sqrt(d2.T).ravel()
        order = order.T.ravel()
        # round half up; d is never negative
        tap = np.floor(d * samples_per_meter + 0.5).astype(np.int64)
        keep = tap < n
        if max_order >= 0:
            keep &= order <= max_order
        taps.append(tap[keep])
        amps.append(bpow[order[keep]] / (_FOUR_PI * d[keep]))
    return np.bincount(np.concatenate(taps), weights=np.concatenate(amps), minlength=n)


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
