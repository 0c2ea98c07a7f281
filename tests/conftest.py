"""Shared builders and brute-force oracles for the test suite."""

import itertools
import math

import numpy as np
from scipy.signal import fftconvolve

from mmgploc import acoustic_sim as ac
from mmgploc import baselines as bl
from mmgploc import kernels as kn
from mmgploc import mmgp_model as mm
from mmgploc import rtf_features as rf
from mmgploc.acoustic_sim import _CHUNK, _FLIPS, _FOUR_PI

# mirror sign per axis of each of the 8 flips in ``_FLIPS``
_SIGNS = 1 - 2 * _FLIPS


def make_artf(rng, num_nodes, dim):
    """Random (num_nodes, dim) complex feature of one sample."""
    rows = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(num_nodes)]
    return np.stack(rows)


def make_set(rng, n, num_nodes, dim):
    """Random (n, num_nodes, dim) feature pool, drawn sample by sample as ``make_artf``."""
    return np.stack([make_artf(rng, num_nodes, dim) for _ in range(n)])


def gaussian_kernel(h_i, h_j, eps_m: float) -> float:
    """exp(-||h_i - h_j||^2 / eps_m) for two (D,) rows of one node's features."""
    if eps_m <= 0:
        raise ValueError("eps_m must be positive")
    if h_i.shape != h_j.shape:
        raise ValueError("dimension mismatch")
    delta = h_i - h_j
    return float(np.exp(-np.sum(delta.real**2 + delta.imag**2) / eps_m))


def node_manifold_kernel(r, l, training_set, m: int, hp) -> float:
    """Single-node manifold covariance: sum_i k_m(h_r, h_i) k_m(h_l, h_i).

    ``m`` is the 1-based node index; the sum runs over the whole training
    pool (labelled and unlabelled alike).
    """
    return cross_node_kernel(r, l, m, m, training_set, hp)


def cross_node_kernel(r, l, q: int, w: int, training_set, hp) -> float:
    """Cross-node covariance term: sum_i k_q(h^q_r, h^q_i) k_w(h^w_l, h^w_i).

    Symmetric under swapping (r, q) with (l, w), not under (q, w) alone.
    """
    pool = kn.stack_features(training_set)
    if pool.shape[0] == 0:
        raise ValueError("empty training set")
    if not (1 <= q <= hp.num_nodes and 1 <= w <= hp.num_nodes):
        raise ValueError("node indices are 1-based")
    kr = np.exp(-kn.sq_dists(r[None, q - 1], pool[:, q - 1, :]) / hp.eps[q - 1])[0]
    kl = np.exp(-kn.sq_dists(l[None, w - 1], pool[:, w - 1, :]) / hp.eps[w - 1])[0]
    return float(kr @ kl)


def brute_cross_node(r, l, q, w, pool, hp):
    """Literal sum over the pool of per-node kernel products (1-based q, w)."""
    total = 0.0
    for s in pool:
        total += (gaussian_kernel(r[q - 1], s[q - 1], hp.eps[q - 1])
                  * gaussian_kernel(l[w - 1], s[w - 1], hp.eps[w - 1]))
    return total


def brute_mmgp(a_set, b_set, pool, hp):
    """Literal (1/M^2) double sum over node pairs; the factorization oracle."""
    m = hp.num_nodes
    out = np.zeros((len(a_set), len(b_set)))
    for i, a in enumerate(a_set):
        for j, b in enumerate(b_set):
            total = 0.0
            for q in range(1, m + 1):
                for w in range(1, m + 1):
                    total += brute_cross_node(a, b, q, w, pool, hp)
            out[i, j] = total / m**2
    return out


def conditional_gaussian_oracle(labeled, test, pool, hp, positions, diag):
    """Posterior mean/variance from the explicit joint covariance.

    Solves the linear systems directly instead of reusing any model state;
    ``diag`` is the total additive diagonal (sigma2 + jitter).
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    mean = positions.mean(axis=0)
    both = np.concatenate([labeled, test[None]])
    joint = brute_mmgp(both, both, pool, hp)
    n_l = len(labeled)
    s_ll = joint[:n_l, :n_l] + diag * np.eye(n_l)
    s_tl = joint[n_l, :n_l]
    s_tt = joint[n_l, n_l]
    sol = np.linalg.solve(s_ll, s_tl)
    mu = sol @ (positions - mean) + mean
    var = s_tt - s_tl @ np.linalg.solve(s_ll, s_tl)
    return mu, var, s_tt


def reference_image_rir(rir, dims, src, mic, beta, half, max_order, samples_per_meter):
    """Add every image-source tap of one source/mic pair to ``rir`` in place.

    The image-source kernel as it was before lattice pruning, kept as the
    bit-level oracle: it evaluates the whole lattice box and adds each tap
    with ``np.add.at`` in visiting order (lattice point outer, mirror flips
    inner).  Returns ``rir``.
    """
    n = rir.shape[0]
    n1, n2, n3 = half

    emax = 2 * (n1 + n2 + n3) + 3
    bpow = np.empty(emax + 1)
    bpow[0] = 1.0  # covers the anechoic direct path when beta == 0
    np.cumprod(np.full(emax, beta), out=bpow[1:])

    gx, gy, gz = np.meshgrid(np.arange(-n1, n1 + 1), np.arange(-n2, n2 + 1),
                             np.arange(-n3, n3 + 1), indexing="ij")
    lattice = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    for start in range(0, lattice.shape[0], _CHUNK):
        idx = lattice[start:start + _CHUNK]
        rm = 2.0 * idx * dims
        delta = _SIGNS * src + rm[:, None, :] - mic
        d = np.sqrt((delta * delta).sum(axis=2)).ravel()
        if max_order >= 0:
            order = np.abs(2 * idx[:, None, :] - _FLIPS).sum(axis=2).ravel()
            keep = order <= max_order
        else:
            keep = np.ones(d.size, dtype=bool)
        # round half up; d is never negative
        tap = np.floor(d * samples_per_meter + 0.5).astype(np.int64)
        keep &= tap < n
        if not np.any(keep):
            continue
        e = (np.abs(idx[:, None, :] - _FLIPS)
             + np.abs(idx)[:, None, :]).sum(axis=2).ravel()
        np.add.at(rir, tap[keep], bpow[e[keep]] / (_FOUR_PI * d[keep]))
    return rir


def reference_render(scene, source_pos, source_signal, seed):
    """Noisy multichannel record through one ``fftconvolve`` per channel.

    ``render_measurement`` as it was before it shared the excitation
    spectrum across channels, kept as the bit-level oracle: it transforms
    the excitation once per channel and adds the noise into a second
    buffer.  Returns the (2M, n) signals.
    """
    source_signal = np.asarray(source_signal, dtype=float)
    rirs = [ac.simulate_rir(scene, source_pos, mic) for mic in scene.flat_mics()]
    n_out = source_signal.size + max(r.size for r in rirs) - 1
    clean = np.zeros((len(rirs), n_out))
    for i, rir in enumerate(rirs):
        y = fftconvolve(source_signal, rir)
        clean[i, : y.size] = y
    if math.isinf(scene.snr_db):
        return clean
    rng = np.random.default_rng(seed)
    signals = np.empty_like(clean)
    snr_lin = 10.0 ** (scene.snr_db / 10.0)
    for i in range(clean.shape[0]):
        active = np.flatnonzero(np.abs(clean[i]) > 1e-12 * np.abs(clean[i]).max())
        support = clean[i, active[0] : active[-1] + 1]
        noise_var = float(np.mean(support**2)) / snr_lin
        signals[i] = clean[i] + math.sqrt(noise_var) * rng.standard_normal(n_out)
    return signals


def reference_estimate_rtf(record, node_index: int, cfg):
    """One node's (D,) band RTF from two ``welch_cross_spectrum`` calls.

    The feature extractor as it was before the one-STFT-per-record path,
    kept as the bit-level oracle: it transforms the reference channel
    twice and the secondary channel once per node.
    """
    if record.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"record rate {record.sample_rate} != config rate {cfg.sample_rate}")
    y_ref, y_sec = record.signals[2 * node_index - 2:2 * node_index]
    if not np.any(y_ref):
        raise ValueError("degenerate recording: reference channel is all zeros")
    s_auto = rf.welch_cross_spectrum(y_ref, y_ref, cfg).real
    s_cross = rf.welch_cross_spectrum(y_ref, y_sec, cfg)
    ratio = s_cross / (s_auto + rf._DENOM_DELTA * s_auto.mean())
    return ratio[rf.band_bins(cfg)]


def reference_artf_from_record(record, cfg):
    """A record's (M, D) band RTFs, node by node through ``reference_estimate_rtf``."""
    rows = [reference_estimate_rtf(record, m, cfg) for m in range(1, record.num_nodes + 1)]
    return np.stack(rows)


def reference_predict(model, h_t):
    """Posterior of one test sample through two ``mmgp_covariance`` calls.

    ``MmgpModel.predict`` as it was before it shared the test row's Gram
    between k and the prior, kept as the bit-level oracle.
    """
    t = mm.as_sample(h_t, model.pool.shape[1:])[None]
    hp = model.hyperparameters
    k_lt = kn.mmgp_covariance(model.labeled_features, t, model.pool, hp)[:, 0]
    prior = float(kn.mmgp_covariance(t, None, model.pool, hp)[0, 0])
    est = k_lt @ model.weights + model.label_mean
    var = prior - float(k_lt @ model.gamma @ k_lt)
    var = max(var, 0.0)
    return mm.Prediction(position=est, variance=np.full(model.num_coords, var),
                         prior_variance=prior)


class ArrayPoolModel:
    """An ``MmgpModel``'s state as writeable copies, detached from the model.

    The twin that ``reference_update_recursive`` grows and
    ``reference_predict`` reads, so a stream through it shares no array
    and no code path of the model's own update.
    """

    def __init__(self, model):
        self.pool = np.array(model.pool)
        self.s_ld = np.array(model.labelled_gram)
        self.n_labeled = model.n_labeled
        self.label_mean = model.label_mean.copy()
        self.centered = model.centered.copy()
        self.hyperparameters = model.hyperparameters
        self.jitter_used = model.jitter_used
        self.sigma_l = model.sigma_l.copy()
        self.gamma = model.gamma.copy()
        self.weights = model.weights.copy()
        self.update_count = model.update_count

    @property
    def labeled_features(self):
        return self.pool[: self.n_labeled]

    @property
    def num_coords(self):
        return self.centered.shape[1]


def reference_update_recursive(model, h_t):
    """``MmgpModel.update_recursive`` on concatenated arrays.

    Kept as the bit-level oracle: it grows the pool and S_LD with
    ``np.concatenate`` and re-conditions on the whole S_LD with the jitter
    resolved at fit, spelled out here instead of through
    ``LabelledGp._condition``.
    """
    t = mm.as_sample(h_t, model.pool.shape[1:])[None]
    hp = model.hyperparameters
    k = kn.gram_stack(model.labeled_features, t, hp).summed
    model.s_ld = np.concatenate([model.s_ld, k], axis=1)
    model.sigma_l = kn.fused_from_sums(model.s_ld, None, hp.num_nodes)
    _, model.gamma = mm.spd_factor(model.sigma_l, hp.sigma2 + model.jitter_used)
    model.weights = model.gamma @ model.centered
    model.pool = np.concatenate([model.pool, t])
    model.update_count += 1
    return model


def reference_averaged_gcc(signals, cfg):
    """``baselines._averaged_gcc`` with one inverse FFT per frame and pair.

    The GCC stage as it was before the frame-summed spectra, kept as the
    oracle: each pair's masked PHAT spectrum is inverted frame by frame and
    the GCCs are averaged, and a pair whose frame peak is 0 keeps no bin.
    """
    n = bl._FRAME_LENGTH
    if signals.shape[1] < n:
        padded = np.zeros((signals.shape[0], n))
        padded[:, :signals.shape[1]] = signals
        signals = padded
    hop = n // 2
    starts = range(0, signals.shape[1] - n + 1, hop)
    window = rf.hann_window(n)
    freqs = np.fft.rfftfreq(n, 1.0 / cfg.sample_rate)
    band = (freqs >= cfg.band_low_hz) & (freqs <= cfg.band_high_hz)
    pairs = list(itertools.combinations(range(signals.shape[0]), 2))
    gcc = np.zeros((len(pairs), n))
    for start in starts:
        spec = np.fft.rfft(signals[:, start:start + n] * window, axis=1)
        for p, (i, j) in enumerate(pairs):
            cross = np.conj(spec[i]) * spec[j]
            mag = np.abs(cross)
            phat = np.zeros_like(cross)
            # masked normalization: bins with negligible power stay zero
            peak = mag.max()
            keep = band & (mag > 1e-12 * peak) if peak > 0 else np.zeros_like(band)
            np.divide(cross, mag, out=phat, where=keep)
            gcc[p] += np.fft.irfft(phat, n)
    gcc /= len(starts)
    return gcc, pairs
