"""Comparison localizers: per-node averaging, product-kernel GP, SRP-PHAT.

The two GP baselines share the main model's labelled-set posterior core,
so accuracy differences isolate the covariance choice.  SRP-PHAT is a
from-scratch reconstruction (frame choice, band limit, and interpolation
are fixed here, not taken from any reference implementation) and needs
the exact microphone positions, which the GP methods never see.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .acoustic_sim import grid_counts, grid_positions
from .kernels import Hyperparameters, gram_stack
from .mmgp_model import LabelledGp, Prediction, as_sample, labelled_pool
from .mmgp_model import fit as fit_mmgp
from .rtf_features import hann_window

# SRP-PHAT frame length in samples; frames hop by half of it
_FRAME_LENGTH = 4096


# ---------------------------------------------------------------------------
# mean of per-node regressors


@dataclass
class MeanOfNodesModel:
    """M independent single-node regressions whose outputs are averaged.

    Each node gets its own fused-kernel model over that node's feature
    slice only; the reported variance treats the per-node estimates as
    independent, so it is the per-node average divided by M.
    """

    node_models: list

    @property
    def num_nodes(self) -> int:
        return len(self.node_models)

    def predict(self, h_t) -> Prediction:
        sample = as_sample(h_t, (self.num_nodes,) + self.node_models[0].pool.shape[2:])
        preds = [model.predict(sample[m:m + 1])
                 for m, model in enumerate(self.node_models)]
        m = self.num_nodes
        position = np.mean([p.position for p in preds], axis=0)
        variance = np.mean([p.variance for p in preds], axis=0) / m
        prior = float(np.mean([p.prior_variance for p in preds]) / m)
        return Prediction(position=position, variance=variance, prior_variance=prior)


def fit_mean_of_nodes(training_set, labelled_positions, hp: Hyperparameters) -> MeanOfNodesModel:
    pool, positions = labelled_pool(training_set, labelled_positions, hp.num_nodes)
    models = []
    for m in range(hp.num_nodes):
        node_hp = Hyperparameters(eps=[hp.eps[m]], sigma2=hp.sigma2, jitter=hp.jitter)
        models.append(fit_mmgp(pool[:, m:m + 1, :], positions, node_hp))
    return MeanOfNodesModel(node_models=models)


# ---------------------------------------------------------------------------
# product-kernel GP


def product_gram(a_samples, b_samples, hp: Hyperparameters) -> np.ndarray:
    """Entrywise product over nodes of the per-node Gaussian Gram matrices.

    With equal widths this equals the Gaussian kernel on the concatenated
    feature vectors, since squared distances add across nodes.
    """
    return np.prod(gram_stack(a_samples, b_samples, hp).per_node, axis=0)


@dataclass(kw_only=True)
class KernelProductModel(LabelledGp):
    """Plain supervised GP whose covariance multiplies the node kernels.

    Unlabelled pool samples carry no information here: the product kernel
    compares test and labelled features directly, with no manifold sum.
    """

    features: np.ndarray          # (n_L, M, D) labelled features

    def __post_init__(self):
        self._condition(product_gram(self.features, None, self.hyperparameters))

    def predict(self, h_t) -> Prediction:
        sample = as_sample(h_t, self.features.shape[1:])
        k = product_gram(sample[None], self.features, self.hyperparameters)[0]
        # unit kernel diagonal, so the prior variance is exactly one
        return self._posterior(k, 1.0)


def fit_kernel_product(training_set, labelled_positions, hp: Hyperparameters) -> KernelProductModel:
    pool, positions = labelled_pool(training_set, labelled_positions, hp.num_nodes)
    return KernelProductModel(features=pool[: positions.shape[0]], positions=positions,
                              hyperparameters=hp)


# ---------------------------------------------------------------------------
# SRP-PHAT


@dataclass
class SrpConfig:
    """Steered-response search over a rectangular grid.

    ``mic_positions`` is (num_channels, 3) and must match the channel
    order of the records being localized; the GP methods never receive
    this information.
    """

    mic_positions: np.ndarray
    grid_min: np.ndarray
    grid_max: np.ndarray
    resolution: float
    band_low_hz: float = 200.0
    band_high_hz: float = 2500.0
    sample_rate: float = 16000.0
    sound_speed: float = 343.0

    def __post_init__(self):
        self.mic_positions = np.asarray(self.mic_positions, dtype=float)
        self.grid_min = np.asarray(self.grid_min, dtype=float)
        self.grid_max = np.asarray(self.grid_max, dtype=float)
        if self.mic_positions.ndim != 2 or self.mic_positions.shape[1] != 3:
            raise ValueError("mic_positions must be (num_channels, 3)")
        if self.mic_positions.shape[0] < 2:
            raise ValueError("need at least two channels for cross-correlation")
        grid_counts(self.grid_min, self.grid_max, self.resolution)   # the grid's range rules
        for name in ("sample_rate", "sound_speed"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0 <= self.band_low_hz < self.band_high_hz:
            raise ValueError("need 0 <= band_low_hz < band_high_hz")
        if self.band_high_hz > self.sample_rate / 2:
            raise ValueError("band_high_hz exceeds the Nyquist frequency")

    @property
    def num_channels(self) -> int:
        return self.mic_positions.shape[0]


def grid_points(cfg: SrpConfig) -> np.ndarray:
    """Candidate positions, (G, 3), last axis fastest in the flat index."""
    return grid_positions(cfg.grid_min, cfg.resolution,
                          grid_counts(cfg.grid_min, cfg.grid_max, cfg.resolution))


def _averaged_gcc(signals: np.ndarray, cfg: SrpConfig):
    """Frame-averaged band-limited GCC-PHAT for every channel pair.

    Returns (gcc, pairs): gcc is (num_pairs, _FRAME_LENGTH) at circular
    integer lags, pairs lists (i, j) channel indices with i < j.  Per frame
    and pair, PHAT keeps the in-band bins above 1e-12 of the pair's peak
    magnitude; the inverse FFT is linear, so the masked PHAT spectra are
    summed over frames and inverted once.
    """
    n = _FRAME_LENGTH
    if signals.shape[1] < n:
        padded = np.zeros((signals.shape[0], n))
        padded[:, :signals.shape[1]] = signals
        signals = padded
    hop = n // 2
    starts = range(0, signals.shape[1] - n + 1, hop)
    window = hann_window(n)
    freqs = np.fft.rfftfreq(n, 1.0 / cfg.sample_rate)
    band = (freqs >= cfg.band_low_hz) & (freqs <= cfg.band_high_hz)
    pairs = list(itertools.combinations(range(signals.shape[0]), 2))
    first, second = np.array(pairs).T
    acc = np.zeros((len(pairs), freqs.size), dtype=complex)
    for start in starts:
        spec = np.fft.rfft(signals[:, start:start + n] * window, axis=1)
        cross = np.conj(spec[first]) * spec[second]
        mag = np.abs(cross)
        keep = band & (mag > 1e-12 * mag.max(axis=1, keepdims=True))
        acc += np.divide(cross, mag, out=np.zeros_like(cross), where=keep)
    return np.fft.irfft(acc, n, axis=1) / len(starts), pairs


def srp_phat(signals, cfg: SrpConfig) -> np.ndarray:
    """Grid point maximizing the summed pairwise GCC-PHAT response.

    The GCC is evaluated at the exact fractional inter-channel delay of
    each candidate by linear interpolation between circular integer lags;
    ties go to the lowest flat grid index.  The GCC inverts each pair's
    frame-summed PHAT spectra once; a pair keeps only in-band bins above
    1e-12 of its own frame peak, so a silent channel's pairs add nothing.
    ``signals`` is a finite (channels, samples) array, taken to be sampled
    at the config's rate.
    """
    signals = np.asarray(signals, dtype=float)
    if signals.ndim != 2:
        raise ValueError("signals must be (num_channels, num_samples)")
    if signals.shape[0] != cfg.num_channels:
        raise ValueError(
            f"record has {signals.shape[0]} channels, config {cfg.num_channels}")
    if not np.all(np.isfinite(signals)):
        raise ValueError("non-finite samples in record")
    if not np.any(signals):
        raise ValueError("silent record: all channels are zero")

    gcc, pairs = _averaged_gcc(signals, cfg)
    pts = grid_points(cfg)
    dists = np.linalg.norm(pts[:, None, :] - cfg.mic_positions[None], axis=2)
    n = _FRAME_LENGTH
    samples_per_meter = cfg.sample_rate / cfg.sound_speed
    power = np.zeros(pts.shape[0])
    for p, (i, j) in enumerate(pairs):
        lag = (dists[:, j] - dists[:, i]) * samples_per_meter
        base = np.floor(lag)
        frac = lag - base
        i0 = base.astype(np.int64) % n
        i1 = (i0 + 1) % n
        power += (1.0 - frac) * gcc[p, i0] + frac * gcc[p, i1]
    return pts[int(np.argmax(power))]
