"""Relative transfer function (RTF) features.

A node's two microphones share the source signal, so the ratio of their
cross- and auto-spectra estimates the acoustic transfer ratio between the
channels independently of what the source emitted.  Features are restricted
to a fixed frequency band, and one source event's feature is the (M, D)
complex array of its M nodes' band RTFs (row m - 1 is node m), held by
``AggregatedRtf`` with the event's position when it is labelled.

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
        if not np.all(np.isfinite([self.sample_rate, self.window_length_s, self.overlap_fraction,
                                   self.fft_size, self.band_low_hz, self.band_high_hz])):
            raise ValueError("spectral settings must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not 0 <= self.overlap_fraction < 1:
            raise ValueError("overlap_fraction must be in [0, 1)")
        if self.window_samples < 1 or self.hop_samples < 1:
            raise ValueError("window and hop must each span at least one sample")
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
class AggregatedRtf:
    """The M nodes' band RTFs for one source event, joined as one feature.

    ``features`` is an (M, D) complex array whose row m - 1 is node m.
    ``true_position`` is set for labelled events only.
    """

    features: np.ndarray
    true_position: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=complex)
        if self.features.ndim != 2 or self.features.size == 0:
            raise ValueError("features must be a nonempty (M, D) complex array")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite RTF entries")
        if self.true_position is not None:
            self.true_position = np.asarray(self.true_position, dtype=float)
            if self.true_position.shape != (3,):
                raise ValueError("true_position must be a 3-vector")

    def stack(self) -> np.ndarray:
        """The (M, D) complex feature array."""
        return self.features


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
        noverlap=nper - cfg.hop_samples,
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


def _band_rtfs(record, cfg: SpectralConfig) -> np.ndarray:
    """Band RTFs of every node of a record, as an (M, D) array in node order.

    A node's RTF is the ratio of the Welch cross-spectrum between its
    channels to the reference channel's auto-spectrum; a small
    spectral-floor term keeps dead bins finite.  The ratio cancels the
    source spectrum, so the result is gain-invariant.

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
    if not np.all(np.any(record.signals[0::2], axis=-1)):
        raise ValueError("degenerate recording: reference channel is all zeros")
    n = record.signals.shape[-1]
    nper = cfg.window_samples
    if n < nper:
        raise ValueError(f"signal ({n} samples) shorter than one window ({nper})")
    hop = cfg.hop_samples
    num_frames = (n - nper) // hop + 1
    window = _psd_window(cfg.sample_rate, nper)
    doubled = slice(1, -1 if cfg.fft_size % 2 == 0 else None)
    bins = band_bins(cfg)
    out = np.empty((record.num_nodes, bins.size), dtype=complex)
    for m in range(record.num_nodes):
        # C-contiguous rows: on another layout (a transposed recording) the
        # frame means can add in another order than the Welch oracle's
        pair = np.ascontiguousarray(record.signals[2 * m:2 * m + 2])
        ref, sec = _node_spectra(pair, window, hop, num_frames, cfg.fft_size)
        s_auto = ref.real**2 + ref.imag**2
        s_cross = sec * ref.conj()
        s_auto[doubled] *= 2
        s_cross[doubled] *= 2
        s_auto = s_auto.mean(axis=-1)
        s_cross = s_cross.mean(axis=-1)
        ratio = s_cross / (s_auto + _DENOM_DELTA * s_auto.mean())
        out[m] = ratio[bins]
    return out


def artf_from_record(record, cfg: SpectralConfig) -> AggregatedRtf:
    """Full feature-extraction step: the record's (M, D) band RTFs and its position."""
    return AggregatedRtf(features=_band_rtfs(record, cfg), true_position=record.true_position)
