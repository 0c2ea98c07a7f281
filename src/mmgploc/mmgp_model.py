"""Fused-manifold Gaussian process localization model.

The model regresses source coordinates on aggregated RTF features.  The
prior covariance between any two events is the fused kernel over the whole
training pool (labelled plus unlabelled), so unlabelled data sharpens the
geometry without needing positions.  Streaming test samples are absorbed
with rank-1 updates whose results match a from-scratch refit.  The pool is
a ``FeaturePool`` that caches each node's conjugated rows and squared norms,
so an update appends in amortised O(1) copies and a prediction builds its
two Grams against the pool without copying it.

The labelled-set core below (``LabelledGp``, ``labelled_pool``,
``condition``, ``as_sample``) also serves the GP baselines and ML learning.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .dataio import atomic_write
from .kernels import (FeaturePool, Hyperparameters, fused_from_sums, gram_stack,
                      mmgp_covariance, stack_features)

_MAGIC = b"MMGP"
_FORMAT_VERSION = 1

# relative scale of the automatic diagonal regularizer
_AUTO_JITTER = 1e-8


@dataclass
class Prediction:
    """Position estimate with per-coordinate posterior variance.

    ``prior_variance`` is the fused-kernel variance of the test sample
    before conditioning; the posterior variance never exceeds it.
    """

    position: np.ndarray
    variance: np.ndarray
    prior_variance: float

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.variance = np.asarray(self.variance, dtype=float)
        if self.position.shape != self.variance.shape:
            raise ValueError("position and variance must have equal length")


@dataclass(kw_only=True)
class LabelledGp:
    """The labelled-set posterior every GP localizer here shares.

    The models differ only in their covariance: each supplies the vector
    k between a test sample and the n_L labelled samples plus the test
    sample's prior variance, and ``_posterior`` conditions on the labels.
    ``gamma`` is the explicit (K_L + (sigma2 + jitter) I)^-1 of the
    labelled covariance K_L; ``weights`` has one column per coordinate.
    """

    positions: np.ndarray         # (n_L, C) original labels
    label_mean: np.ndarray        # (C,)
    centered: np.ndarray          # (n_L, C)
    hyperparameters: Hyperparameters
    jitter_used: float
    gamma: np.ndarray             # (n_L, n_L)
    weights: np.ndarray           # (n_L, C)

    @property
    def num_coords(self) -> int:
        return self.positions.shape[1]

    def _posterior(self, k: np.ndarray, prior: float) -> Prediction:
        est = k @ self.weights + self.label_mean
        var = max(prior - float(k @ self.gamma @ k), 0.0)
        return Prediction(position=est, variance=np.full(self.num_coords, var),
                          prior_variance=prior)


@dataclass(kw_only=True)
class MmgpModel(LabelledGp):
    """Fused-kernel GP: pool features, labelled geometry, and the explicit inverse.

    ``feature_pool`` holds the (n_D, M, D) training features with the
    labelled samples first, plus each node's cached Gram operands;
    streaming updates append to it and ``pool`` reads it as a read-only
    array.  ``sigma_l`` is the fused covariance of the labelled set.
    """

    feature_pool: FeaturePool
    n_labeled: int
    sigma_l: np.ndarray           # (n_L, n_L)
    update_count: int = 0

    @property
    def pool(self) -> np.ndarray:
        return self.feature_pool.features

    @property
    def labeled_features(self) -> np.ndarray:
        return self.pool[: self.n_labeled]

    @property
    def num_nodes(self) -> int:
        return self.pool.shape[1]

    def conditioning_residual(self) -> float:
        """max |gamma (sigma_l + (sigma2+jitter) I) - I|; small when consistent."""
        n = self.sigma_l.shape[0]
        diag = self.hyperparameters.sigma2 + self.jitter_used
        return float(np.abs(self.gamma @ (self.sigma_l + diag * np.eye(n)) - np.eye(n)).max())

    def predict(self, h_t) -> Prediction:
        """Posterior mean and variance for one test sample; read-only."""
        t = as_sample(h_t, self.feature_pool.shape[1:])
        hp = self.hyperparameters
        # the test row's node-summed Gram is built once for both k and the prior
        s_ld = gram_stack(self.labeled_features, self.feature_pool, hp).summed
        s_t = gram_stack(t, self.feature_pool, hp).summed
        k_lt = fused_from_sums(s_ld, s_t, hp.num_nodes)[:, 0]
        prior = float(fused_from_sums(s_t, None, hp.num_nodes)[0, 0])
        return self._posterior(k_lt, prior)

    def update_recursive(self, h_t) -> "MmgpModel":
        """Absorb one test sample into the pool with a rank-1 update.

        The labelled covariance gains (1/M^2) k k^T where k sums the plain
        per-node kernels against the labelled set; the explicit inverse is
        updated in closed form and the weight vectors are refreshed.
        Returns self for chaining.
        """
        t = as_sample(h_t, self.feature_pool.shape[1:])
        hp = self.hyperparameters
        m2 = float(hp.num_nodes) ** 2
        k = gram_stack(self.labeled_features, t, hp).summed[:, 0]
        gk = self.gamma @ k
        self.gamma = self.gamma - np.outer(gk, gk) / (m2 + k @ gk)
        self.gamma = 0.5 * (self.gamma + self.gamma.T)
        self.sigma_l = self.sigma_l + np.outer(k, k) / m2
        self.sigma_l = 0.5 * (self.sigma_l + self.sigma_l.T)
        self.weights = self.gamma @ self.centered
        self.feature_pool.append(t)
        self.update_count += 1
        return self

    def predict_recursive(self, h_t) -> Prediction:
        """Absorb the test sample, then predict it against the grown pool."""
        self.update_recursive(h_t)
        return self.predict(h_t)


def as_sample(h_t, shape) -> np.ndarray:
    """One test sample as a (1, M, D) block; ``shape`` is the model's (M, D)."""
    t = stack_features([h_t]) if not isinstance(h_t, np.ndarray) else \
        stack_features(h_t[None] if h_t.ndim == 2 else h_t)
    if t.shape[0] != 1:
        raise ValueError("predict/update take one sample at a time")
    if t.shape[1:] != tuple(shape):
        raise ValueError(f"sample shape {t.shape[1:]} != model features {tuple(shape)}")
    return t


def labelled_pool(training_set, labelled_positions, num_nodes: int):
    """The (n_D, M, D) pool and finite (n_L, C) labels, 1 <= n_L <= n_D, M == num_nodes."""
    pool = stack_features(training_set)
    positions = np.atleast_2d(np.asarray(labelled_positions, dtype=float))
    if not np.all(np.isfinite(positions)):
        raise ValueError("labelled positions must be finite")
    n_l = positions.shape[0]
    if not 1 <= n_l <= pool.shape[0]:
        raise ValueError(f"need 1 <= n_L={n_l} <= pool size {pool.shape[0]}")
    if pool.shape[1] != num_nodes:
        raise ValueError(f"features have M={pool.shape[1]} nodes, "
                         f"hyperparameters have {num_nodes} widths")
    return pool, positions


def condition(cov_l: np.ndarray, positions: np.ndarray, hp: Hyperparameters) -> dict:
    """The ``LabelledGp`` fields for labelled covariance ``cov_l`` and labels.

    The jitter is trace-scaled when ``hp.jitter`` is None; labels are
    centered per coordinate and the mean restored at prediction time.
    """
    jitter = hp.jitter if hp.jitter is not None else \
        _AUTO_JITTER * float(np.trace(cov_l)) / positions.shape[0]
    gamma = _spd_inverse(cov_l, hp.sigma2 + jitter)
    mean = positions.mean(axis=0)
    centered = positions - mean
    return dict(positions=positions, label_mean=mean, centered=centered,
                hyperparameters=hp, jitter_used=float(jitter), gamma=gamma,
                weights=gamma @ centered)


def _spd_inverse(sigma: np.ndarray, diag: float) -> np.ndarray:
    n = sigma.shape[0]
    a = sigma + diag * np.eye(n)
    try:
        cf = cho_factor(a, lower=True)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(a).min())
        raise ValueError(
            f"conditioning failure: labelled covariance plus noise is not positive "
            f"definite (smallest eigenvalue {smallest:.3e}); increase sigma2 or jitter"
        ) from None
    inv = cho_solve(cf, np.eye(n))
    return 0.5 * (inv + inv.T)


def fit(training_set, labelled_positions, hp: Hyperparameters) -> MmgpModel:
    """Fit the model on a pool whose first n_L samples are labelled.

    ``training_set`` holds all aggregated RTFs, labelled first, unlabelled
    after; ``labelled_positions`` is (n_L, C) and sets n_L.
    """
    pool, positions = labelled_pool(training_set, labelled_positions, hp.num_nodes)
    n_l = positions.shape[0]
    sigma_l = mmgp_covariance(pool[:n_l], None, pool, hp)
    return MmgpModel(feature_pool=FeaturePool(pool), n_labeled=n_l, sigma_l=sigma_l,
                     **condition(sigma_l, positions, hp))


def save_model(model: MmgpModel, path) -> None:
    """Serialize to a little-endian binary file (magic "MMGP", version 1).

    The header carries the counts, then hyperparameters, the labelled-set
    covariance and inverse, centered labels and means, and finally the
    full pool features so a loaded model can keep predicting and updating.
    """
    n_l, c = model.centered.shape
    n_d, m, d = model.pool.shape
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<6I", _FORMAT_VERSION, n_l, c, m,
                             model.update_count, n_d))
        fh.write(struct.pack("<I", d))
        _write_f64(fh, model.hyperparameters.eps)
        _write_f64(fh, [model.hyperparameters.sigma2, model.jitter_used])
        _write_f64(fh, model.sigma_l)
        _write_f64(fh, model.gamma)
        _write_f64(fh, model.centered)
        _write_f64(fh, model.label_mean)
        _write_f64(fh, model.positions)
        # complex features as interleaved real/imag doubles
        _write_f64(fh, model.pool.view(float))


def load_model(path) -> MmgpModel:
    """Restore a model written by save_model.

    The sizes the header declares are checked against the file's size
    before any array is read, so a corrupt count cannot ask for more
    memory than the file holds; a NaN or infinity in any array is rejected.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a model file (bad magic)")
        version, n_l, c, m, count, n_d = struct.unpack("<6I", _read_exact(fh, 24))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        d = struct.unpack("<I", _read_exact(fh, 4))[0]
        declared = 32 + 8 * (m + 2 + 2 * n_l * n_l + 2 * n_l * c + c + 2 * n_d * m * d)
        size = os.fstat(fh.fileno()).st_size
        if declared > size:
            raise ValueError(f"truncated model file: header declares {declared} bytes, "
                             f"file has {size}")
        if declared < size:
            raise ValueError("trailing bytes in model file")
        if m == 0 or not 1 <= n_l <= n_d:
            raise ValueError(f"inconsistent model header: M={m}, n_L={n_l}, n_D={n_d}")
        eps = _read_f64(fh, m)
        noise = _read_f64(fh, 2)
        sigma_l = _read_f64(fh, n_l * n_l).reshape(n_l, n_l)
        gamma = _read_f64(fh, n_l * n_l).reshape(n_l, n_l)
        centered = _read_f64(fh, n_l * c).reshape(n_l, c)
        mean = _read_f64(fh, c)
        positions = _read_f64(fh, n_l * c).reshape(n_l, c)
        pool = _read_f64(fh, n_d * m * d * 2).view(complex).reshape(n_d, m, d)
    if not all(np.isfinite(a).all() for a in (eps, noise, sigma_l, gamma, centered,
                                              mean, positions, pool)):
        raise ValueError("non-finite values in model file")
    sigma2, jitter = noise
    hp = Hyperparameters(eps=eps, sigma2=float(sigma2), jitter=float(jitter))
    return MmgpModel(feature_pool=FeaturePool(pool), n_labeled=n_l, positions=positions,
                     label_mean=mean, centered=centered, hyperparameters=hp,
                     jitter_used=float(jitter), sigma_l=sigma_l, gamma=gamma,
                     weights=gamma @ centered, update_count=count)


def _write_f64(fh, arr) -> None:
    fh.write(np.ascontiguousarray(np.asarray(arr, dtype="<f8")).tobytes())


def _read_exact(fh, size: int) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError("truncated model file")
    return raw


def _read_f64(fh, count: int) -> np.ndarray:
    return np.frombuffer(_read_exact(fh, 8 * count), dtype="<f8").copy()
