"""Relative transfer function (RTF) features.

A node's two microphones share the source signal, so the ratio of their
cross- and auto-spectra estimates the acoustic transfer ratio between the
channels independently of what the source emitted.  Features are restricted
to a fixed frequency band, and one source event's feature is the (M, D)
complex array of its M nodes' band RTFs (row m - 1 is node m); a pool of
n events is the (n, M, D) stack of those arrays.

Each node of a record takes one framed real FFT over its two channels;
the node's Welch auto- and cross-spectra are frame means of that one
transform, so no channel is transformed twice.  The auto-spectrum covers
every bin, since the spectral floor averages them all, while the
cross-spectrum is formed on the band bins only.  Its product's operand
order is written out to match the order NumPy runs the Welch path's full
product in (see ``_band_rtfs``), so the features keep that path's bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# relative weight of the spectral-floor guard added to the denominator
_DENOM_DELTA = 1e-10

# NumPy runs a binary operator in place on a temporary operand of at least
# this many bytes (its NPY_MIN_ELIDE_BYTES)
_ELIDE_BYTES = 256 * 1024


@dataclass
class SpectralConfig:
    """Welch analysis parameters and the feature band.

    ``window_length_s`` is converted to samples at ``sample_rate``; the FFT
    size must be at least that long.  Band edges are inclusive, and the band
    must hold at least one FFT bin.
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
        if band_bins(self).size == 0:
            raise ValueError(f"band {self.band_low_hz}-{self.band_high_hz} Hz holds no bin of "
                             f"the {self.fft_size}-point FFT")

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


@dataclass
class AggregatedRtf:
    """The M nodes' band RTFs for one source event, as ``artf_from_record`` returns them.

    ``features`` is a checked, finite (M, D) complex array whose row m - 1
    is node m; ``stack()`` hands it back.  The model layer takes only such
    arrays.
    """

    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=complex)
        if self.features.ndim != 2 or self.features.size == 0:
            raise ValueError("features must be a nonempty (M, D) complex array")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite RTF entries")

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
    # scipy.signal loads scipy.stats and more; only this reference path needs it
    from scipy.signal import csd

    _, s = csd(
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


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window of ``n`` samples, ``scipy.signal.get_window("hann", n)``.

    SciPy's ``general_cosine`` with coefficients 0.5 and 0.5 over ``n + 1``
    points from -pi to pi, last point dropped: its sum ``0 + 0.5 * cos(0)
    + 0.5 * cos(x)`` rounds as ``0.5 + 0.5 * cos(x)``, so the bits match,
    without importing ``scipy.signal``.
    """
    if n <= 1:
        return np.ones(n)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]


@functools.lru_cache(maxsize=8)
def _psd_window(fs: float, nper: int) -> np.ndarray:
    # the Hann window scaled to unit-area power as scipy.signal.ShortTimeFFT
    # scales it for scale_to="psd"; the builtin sum keeps its rounding.
    # Cached per (fs, nper) and read-only, since every block shares it
    h = hann_window(nper)
    window = h * (1 / np.sqrt(sum(h**2) / (1 / fs)))
    window.flags.writeable = False
    return window


def _node_spectra(pair: np.ndarray, window: np.ndarray, hop: int, num_frames: int,
                  fft_size: int) -> np.ndarray:
    """Short-time spectra of a node's two channels, a (2, P, F) array of P frames.

    Frame p covers samples [p*hop, p*hop + len(window)); each frame loses
    its mean and is windowed, and one real FFT covers every frame of both
    channels.
    """
    frames = sliding_window_view(pair, window.size, axis=-1)[:, : num_frames * hop : hop]
    windowed = frames - frames.mean(axis=-1, keepdims=True)
    windowed *= window
    return np.fft.rfft(windowed, n=fft_size, axis=-1)


def _band_rtfs(record, cfg: SpectralConfig) -> np.ndarray:
    """Band RTFs of every node of a record, as an (M, D) array in node order.

    A node's RTF is the ratio of the Welch cross-spectrum between its
    channels to the reference channel's auto-spectrum; a small
    spectral-floor term keeps dead bins finite.  The ratio cancels the
    source spectrum, so the result is gain-invariant.

    Node by node, one framed real FFT (``_node_spectra``) covers the two
    channels on the frames ``welch_cross_spectrum`` uses, and the spectra
    are formed with its bits:
    - the auto-spectrum is squared magnitudes on every bin, since the
      floor is a mean over all of them; the cross-spectrum is formed on
      the band bins only;
    - each frame mean runs over a C-contiguous row of P frames, as on a
      per-channel STFT, so only the real auto-spectrum and the band
      columns are transposed;
    - the one-sided doubling (the DC bin and the Nyquist bin of an even
      FFT stay single) follows the frame means: scaling by 2 is exact.

    The Welch path (``scipy.signal.csd``) forms ``S_sec * conj(S_ref)``
    on all F bins, and NumPy runs that expression in place on the
    conjugate temporary, operands swapped, once the temporary reaches
    ``_ELIDE_BYTES``; complex products with fused multiply-add round the
    two orders differently.  A band-sized product never reaches that
    size, so its order is written out by the full product's size:
    ``conj(S_ref) * S_sec`` from 256 KiB on (16 frames at the defaults),
    else ``S_sec * conj(S_ref)``.  One node at a time keeps the frame
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
    num_bins = cfg.fft_size // 2 + 1
    doubled = np.zeros(num_bins, dtype=bool)
    doubled[1:num_bins - 1 if cfg.fft_size % 2 == 0 else None] = True
    bins = band_bins(cfg)
    band = slice(bins[0], bins[-1] + 1)
    # the full (F, P) complex product's bytes pick the operand order
    ref_first = num_bins * num_frames * 16 >= _ELIDE_BYTES
    out = np.empty((record.num_nodes, bins.size), dtype=complex)
    for m in range(record.num_nodes):
        # frames over unit-stride rows, such as a block cut from a longer
        # recording, average as the Welch oracle's do; on another layout (a
        # transposed recording) the frame means could add in another order
        pair = record.signals[2 * m:2 * m + 2]
        if pair.strides[-1] != pair.itemsize:
            pair = np.ascontiguousarray(pair)
        spec = _node_spectra(pair, window, hop, num_frames, cfg.fft_size)
        s_auto = spec[0].real**2 + spec[0].imag**2
        s_auto = np.ascontiguousarray(s_auto.T).mean(axis=-1)
        ref, sec = np.ascontiguousarray(spec[:, :, band].transpose(0, 2, 1))
        s_cross = np.multiply(ref.conj(), sec) if ref_first else np.multiply(sec, ref.conj())
        s_cross = s_cross.mean(axis=-1)
        s_auto[doubled] *= 2
        s_cross[doubled[band]] *= 2
        out[m] = s_cross / (s_auto[band] + _DENOM_DELTA * s_auto.mean())
    return out


def artf_from_record(record, cfg: SpectralConfig) -> AggregatedRtf:
    """Full feature-extraction step: the record's (M, D) band RTFs; ``.stack()`` gives the array."""
    return AggregatedRtf(features=_band_rtfs(record, cfg))
