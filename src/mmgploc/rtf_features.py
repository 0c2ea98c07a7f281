"""Relative transfer function (RTF) features.

A node's two microphones share the source signal, so the ratio of their
cross- and auto-spectra estimates the acoustic transfer ratio between the
channels independently of what the source emitted.  Features are restricted
to a fixed frequency band and concatenated across nodes into the aggregated
RTF that the localization models consume.

Each node of a record takes one framed real FFT over its two channels;
the node's Welch auto- and cross-spectra are frame means of that one
transform, so no channel is transformed twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy import signal as sp_signal

# relative weight of the spectral-floor guard added to the denominator
_DENOM_DELTA = 1e-10


@dataclass
class SpectralConfig:
    """Welch analysis parameters and the feature band.

    ``window_length_s`` is converted to samples at ``sample_rate``; the FFT
    size must be at least that long.  Band edges are inclusive.
    """

    sample_rate: float = 16000.0
    window_length_s: float = 0.128
    overlap_fraction: float = 0.75
    fft_size: int = 2048
    band_low_hz: float = 200.0
    band_high_hz: float = 2500.0

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not 0 <= self.overlap_fraction < 1:
            raise ValueError("overlap_fraction must be in [0, 1)")
        if self.fft_size < self.window_samples:
            raise ValueError("fft_size must be >= window length in samples")
        if not 0 <= self.band_low_hz < self.band_high_hz <= self.sample_rate / 2:
            raise ValueError("need 0 <= band_low < band_high <= fs/2")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_length_s * self.sample_rate))

    @property
    def hop_samples(self) -> int:
        return self.window_samples - int(round(self.overlap_fraction * self.window_samples))


def band_bins(cfg: SpectralConfig) -> np.ndarray:
    """Half-spectrum FFT bin indices k with band_low <= k*fs/fft_size <= band_high."""
    k = np.arange(cfg.fft_size // 2 + 1)
    freqs = k * cfg.sample_rate / cfg.fft_size
    return k[(freqs >= cfg.band_low_hz) & (freqs <= cfg.band_high_hz)]


def band_bin_count(cfg: SpectralConfig) -> int:
    """Feature dimension D for one node under ``cfg``."""
    return int(band_bins(cfg).size)


def bin_frequencies(cfg: SpectralConfig) -> np.ndarray:
    """Center frequencies in Hz of the band bins."""
    return band_bins(cfg) * cfg.sample_rate / cfg.fft_size


@dataclass
class RtfVector:
    """Band-restricted RTF estimate of one node for one source event."""

    values: np.ndarray
    node_index: int
    bin_frequencies: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self.bin_frequencies = np.asarray(self.bin_frequencies, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a nonempty 1-D complex vector")
        if self.bin_frequencies.shape != self.values.shape:
            raise ValueError("bin_frequencies must match values in length")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("non-finite RTF entries")
        if self.node_index < 1:
            raise ValueError("node_index is 1-based")

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass
class AggregatedRtf:
    """Concatenation of all M nodes' RTF vectors for one source event.

    ``per_node`` is ordered by node index 1..M with a common bin grid.
    ``true_position`` is set for labelled events only.
    """

    per_node: list
    true_position: np.ndarray | None = None

    def __post_init__(self):
        if not self.per_node:
            raise ValueError("need at least one node RTF")
        indices = [v.node_index for v in self.per_node]
        if indices != list(range(1, len(self.per_node) + 1)):
            raise ValueError(f"node indices must be exactly 1..M, got {indices}")
        d0 = self.per_node[0].dim
        for v in self.per_node[1:]:
            if v.dim != d0 or not np.array_equal(v.bin_frequencies,
                                                 self.per_node[0].bin_frequencies):
                raise ValueError("all nodes must share one bin grid")
        if self.true_position is not None:
            self.true_position = np.asarray(self.true_position, dtype=float)
            if self.true_position.shape != (3,):
                raise ValueError("true_position must be a 3-vector")

    @property
    def num_nodes(self) -> int:
        return len(self.per_node)

    @property
    def dim(self) -> int:
        return self.per_node[0].dim

    def stack(self) -> np.ndarray:
        """Per-node features as an (M, D) complex array."""
        return np.stack([v.values for v in self.per_node])

    def concatenated(self) -> np.ndarray:
        """All nodes flattened to one (M*D,) complex vector."""
        return np.concatenate([v.values for v in self.per_node])


def welch_cross_spectrum(x, y, cfg: SpectralConfig) -> np.ndarray:
    """Welch-averaged cross-spectrum, length fft_size/2 + 1.

    Hann windows with per-window mean removal; the convention is
    S_xy(f) = mean over frames of conj(X_frame) * Y_frame, so a delayed
    copy y(t) = x(t - tau) shows phase -2*pi*f*tau.  Feature extraction
    forms the same spectra from one framed FFT per node.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("signals must be equal-length 1-D arrays")
    nper = cfg.window_samples
    if x.size < nper:
        raise ValueError(f"signal ({x.size} samples) shorter than one window ({nper})")
    _, s = sp_signal.csd(
        x, y,
        fs=cfg.sample_rate,
        window="hann",
        nperseg=nper,
        noverlap=int(round(cfg.overlap_fraction * nper)),
        nfft=cfg.fft_size,
        detrend="constant",
        return_onesided=True,
        scaling="density",
        average="mean",
    )
    return s


def _psd_window(fs: float, nper: int) -> np.ndarray:
    # the Hann window scaled to unit-area power as scipy.signal.ShortTimeFFT
    # scales it for scale_to="psd"; the builtin sum keeps its rounding
    h = sp_signal.get_window("hann", nper)
    return h * (1 / np.sqrt(sum(h**2) / (1 / fs)))


def _node_spectra(pair: np.ndarray, window: np.ndarray, hop: int, num_frames: int,
                  fft_size: int) -> tuple:
    """Short-time spectra of a node's two channels, each a C-contiguous (F, P) array.

    Frame p covers samples [p*hop, p*hop + len(window)); each frame loses
    its mean and is windowed, and one real FFT covers every frame of both
    channels.  The (F, P) layout makes the per-frame products and frame
    means that follow round as they do on a per-channel STFT.
    """
    frames = sliding_window_view(pair, window.size, axis=-1)[:, : num_frames * hop : hop]
    windowed = frames - frames.mean(axis=-1, keepdims=True)
    windowed *= window
    spec = sp_fft.rfft(windowed, n=fft_size, axis=-1)
    del windowed  # only the spectra and their transposes stay alive
    return np.ascontiguousarray(spec[0].T), np.ascontiguousarray(spec[1].T)


def _band_rtfs(record, nodes: range, cfg: SpectralConfig) -> np.ndarray:
    """Band RTFs of the 1-based ``nodes`` of a record, as a (len(nodes), D) array.

    Node by node, one framed real FFT (``_node_spectra``) covers the two
    channels on the frames ``welch_cross_spectrum`` uses, and the spectra
    are formed as it forms them: squared magnitudes and S_sec * conj(S_ref)
    per frame, the one-sided doubling (the Nyquist bin of an even FFT stays
    single), and the frame mean.  One node at a time keeps the frame
    temporaries small; a whole-record batch is slower and peaks higher.
    """
    if record.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"record rate {record.sample_rate} != config rate {cfg.sample_rate}")
    for m in nodes:
        y_ref, _ = record.node_channels(m)
        if not np.any(y_ref):
            raise ValueError("degenerate recording: reference channel is all zeros")
    n = record.signals.shape[-1]
    nper = cfg.window_samples
    if n < nper:
        raise ValueError(f"signal ({n} samples) shorter than one window ({nper})")
    noverlap = int(round(cfg.overlap_fraction * nper))
    hop = nper - noverlap
    num_frames = (n - noverlap) // hop
    window = _psd_window(cfg.sample_rate, nper)
    doubled = slice(1, -1 if cfg.fft_size % 2 == 0 else None)
    bins = band_bins(cfg)
    out = np.empty((len(nodes), bins.size), dtype=complex)
    for i, m in enumerate(nodes):
        # C-contiguous rows: on another layout (a transposed recording) the
        # frame means can add in another order than the Welch oracle's
        pair = np.ascontiguousarray(record.signals[2 * (m - 1):2 * m])
        ref, sec = _node_spectra(pair, window, hop, num_frames, cfg.fft_size)
        s_auto = ref.real**2 + ref.imag**2
        s_cross = sec * ref.conj()
        s_auto[doubled] *= 2
        s_cross[doubled] *= 2
        s_auto = s_auto.mean(axis=-1)
        s_cross = s_cross.mean(axis=-1)
        ratio = s_cross / (s_auto + _DENOM_DELTA * s_auto.mean())
        out[i] = ratio[bins]
    return out


def estimate_rtf(record, node_index: int, cfg: SpectralConfig) -> RtfVector:
    """Biased RTF estimate of one node, restricted to the feature band.

    The estimate is the ratio of the Welch cross-spectrum between the
    node's channels to the reference channel's auto-spectrum; a small
    spectral-floor term keeps dead bins finite.  The ratio cancels the
    source spectrum, so the result is gain-invariant.
    """
    values = _band_rtfs(record, range(node_index, node_index + 1), cfg)[0]
    return RtfVector(values=values, node_index=node_index, bin_frequencies=bin_frequencies(cfg))


def assemble_artf(node_rtfs, true_position=None, cfg: SpectralConfig | None = None) -> AggregatedRtf:
    """Order per-node RTF vectors by node index into one aggregated RTF.

    Input order does not matter; duplicates, gaps, mixed bin grids, or a
    dimension conflicting with ``cfg`` are errors.
    """
    ordered = sorted(node_rtfs, key=lambda v: v.node_index)
    if cfg is not None:
        want = band_bin_count(cfg)
        for v in ordered:
            if v.dim != want:
                raise ValueError(f"node {v.node_index} has D={v.dim}, config implies {want}")
    return AggregatedRtf(per_node=list(ordered), true_position=true_position)


def artf_from_record(record, cfg: SpectralConfig) -> AggregatedRtf:
    """Full feature-extraction step for one measurement record."""
    rows = _band_rtfs(record, range(1, record.num_nodes + 1), cfg)
    freqs = bin_frequencies(cfg)
    vectors = [RtfVector(values=row, node_index=m, bin_frequencies=freqs)
               for m, row in enumerate(rows, start=1)]
    return assemble_artf(vectors, true_position=record.true_position, cfg=cfg)
