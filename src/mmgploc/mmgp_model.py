"""Fused-manifold Gaussian process localization model.

The model regresses source coordinates on aggregated RTF features.  The
prior covariance between any two events is the fused kernel over the whole
training pool (labelled plus unlabelled), so unlabelled data sharpens the
geometry without needing positions.  The model's state is the
node-summed Gram S_LD of the labelled set against the pool (one column per
pool sample), the labels, the hyperparameters and the jitter resolved at
fit.  Fit, every streaming update and a model load derive the labelled
covariance, its inverse and the weights from that state by one
conditioning step, so a streamed model always equals a fit on its own
S_LD.  The pool and S_LD are plain read-only arrays.  A prediction builds
only the test row's Gram against the pool; an absorbed sample copies the
pool and S_LD once to grow them, the same order of work as that Gram.
The pool's conjugated rows and squared row norms, which every Gram
against it takes, are derived state like the posterior: prepared when the
model is built and again when an absorb grows the pool, and not written
to the model file.

Streaming prediction absorbs only novel samples: a sample whose largest
kernel value against the pool comes close to 1 on average over the nodes
adds almost nothing the pool does not already hold, and absorbing many such
near-duplicates lets them dominate the unnormalised fused covariance.
Comparing a sample with its nearest pool row only is the coherence
criterion of kernel affine-projection filters (Richard, Bermudez & Honeine,
IEEE TSP 2009), not the approximate-linear-dependence test of sparse online
GPs and kernel RLS, which measures the residual of projecting the sample on
the span of the whole pool; it bounds the pool on a redundant stream, and
with it the cost of each step.

The labelled-set core below (``LabelledGp``, ``labelled_pool``,
``as_sample``, ``spd_factor``) also serves the GP baselines and ML
learning: the likelihood factors its labelled covariance through the same
``spd_factor`` step as ``LabelledGp._condition``.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .dataio import atomic_write
from .kernels import Hyperparameters, fused_from_sums, gram_stack, prepare_rows, stack_features
# mmgp_covariance stays importable here: perfbench/tracing.py wraps this lookup place
from .kernels import mmgp_covariance  # noqa: F401

_MAGIC = b"MMGP"
_FORMAT_VERSION = 3

# relative scale of the automatic diagonal regularizer
_AUTO_JITTER = 1e-8

# predict_recursive absorbs a sample only when the mean over nodes of its
# largest per-node kernel value against the pool is below this
_NOVELTY = 0.9


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

    The models differ only in their covariance.  Each hands its labelled
    covariance K_L to ``_condition``, and for a test sample supplies the
    vector k between it and the n_L labelled samples plus its prior
    variance, which ``_posterior`` conditions on the labels.  ``gamma`` is
    the explicit (K_L + (sigma2 + jitter) I)^-1; ``weights`` has one
    column per coordinate.
    """

    positions: np.ndarray         # (n_L, C) original labels
    hyperparameters: Hyperparameters
    jitter_used: float | None = field(default=None, init=False)
    label_mean: np.ndarray = field(init=False)    # (C,)
    centered: np.ndarray = field(init=False)      # (n_L, C)
    gamma: np.ndarray = field(init=False)         # (n_L, n_L)
    weights: np.ndarray = field(init=False)       # (n_L, C)

    @property
    def num_coords(self) -> int:
        return self.positions.shape[1]

    def _condition(self, cov_l: np.ndarray) -> None:
        """Derive the posterior fields from the labelled covariance ``cov_l``.

        The first call resolves ``jitter_used``: ``hyperparameters.jitter``,
        or trace-scaled when that is None; later calls keep it.  Labels are
        centered per coordinate and the mean restored at prediction time.
        """
        hp = self.hyperparameters
        if self.jitter_used is None:
            self.jitter_used = float(hp.jitter if hp.jitter is not None else
                                     _AUTO_JITTER * np.trace(cov_l) / cov_l.shape[0])
        _, self.gamma = spd_factor(cov_l, hp.sigma2 + self.jitter_used)
        self.label_mean = self.positions.mean(axis=0)
        self.centered = self.positions - self.label_mean
        self.weights = self.gamma @ self.centered

    def _posterior(self, k: np.ndarray, prior: float) -> Prediction:
        est = k @ self.weights + self.label_mean
        var = max(prior - float(k @ self.gamma @ k), 0.0)
        return Prediction(position=est, variance=np.full(self.num_coords, var),
                          prior_variance=prior)


@dataclass(kw_only=True)
class MmgpModel(LabelledGp):
    """Fused-kernel GP: pool features, the labelled Gram S_LD and the labels.

    ``pool`` holds the (n_D, M, D) training features with the labelled
    samples first.  ``labelled_gram`` is the node-summed Gram S_LD of the
    labelled set against the pool, (n_L, n_D).  Both are read-only arrays
    the model owns; an update replaces each with a grown copy, so a
    reference taken before it keeps its contents.  S_LD, ``positions``,
    ``hyperparameters`` and ``jitter_used`` are the whole state: on
    construction and after every update ``_recondition`` derives
    ``sigma_l`` = S_LD S_LD^T / M^2 from S_LD and conditions on it.

    ``pool_rows`` is ``kernels.prepare_rows(pool)``, which every Gram
    against the pool takes.  It is derived state, not model state: ``fit``
    hands over the rows it built S_LD with, an absorb prepares them for the
    grown pool, and a model file does not hold them.

    ``update_count`` is the number of samples absorbed into the pool after
    the fit, whether by ``update_recursive`` or by ``predict_recursive``
    on a novel sample; samples ``predict_recursive`` skips do not count.
    A model file keeps it.
    """

    pool: np.ndarray              # (n_D, M, D)
    n_labeled: int
    labelled_gram: np.ndarray     # (n_L, n_D)
    update_count: int = 0
    pool_rows: list = field(repr=False)   # prepare_rows(pool)
    config_hash: str | None = field(default=None, init=False)   # the file's, set by load_model
    sigma_l: np.ndarray = field(init=False)   # (n_L, n_L)

    def __post_init__(self):
        _read_only(self.pool)
        _read_only(self.labelled_gram)
        self._recondition()

    def _recondition(self) -> None:
        self.sigma_l = fused_from_sums(self.labelled_gram, None, self.hyperparameters.num_nodes)
        self._condition(self.sigma_l)

    @property
    def labeled_features(self) -> np.ndarray:
        return self.pool[: self.n_labeled]

    @property
    def num_nodes(self) -> int:
        return self.pool.shape[1]

    def conditioning_residual(self) -> float:
        """max |gamma (sigma_l + (sigma2+jitter) I) - I|, a health record of the inverse."""
        n = self.sigma_l.shape[0]
        diag = self.hyperparameters.sigma2 + self.jitter_used
        return float(np.abs(self.gamma @ (self.sigma_l + diag * np.eye(n)) - np.eye(n)).max())

    def predict(self, h_t) -> Prediction:
        """Posterior mean and variance for one test sample; read-only."""
        t = as_sample(h_t, self.pool.shape[1:])
        # the test row's node-summed Gram is built once for both k and the prior
        return self._predict_row(self._gram_row(t).summed)

    def _gram_row(self, t: np.ndarray):
        """The Gram stack of one (M, D) sample against the pool, from the prepared rows."""
        return gram_stack(t[None], self.pool, self.hyperparameters, self.pool_rows)

    def _predict_row(self, s_t: np.ndarray) -> Prediction:
        """The posterior of a test sample from its (1, n_D) node-summed Gram against the pool."""
        num_nodes = self.hyperparameters.num_nodes
        k_lt = fused_from_sums(self.labelled_gram, s_t, num_nodes)[:, 0]
        prior = float(fused_from_sums(s_t, None, num_nodes)[0, 0])
        return self._posterior(k_lt, prior)

    def update_recursive(self, h_t) -> "MmgpModel":
        """Absorb one test sample into the pool and re-condition, unconditionally.

        k, the node-summed Gram of the labelled set against the sample,
        becomes the new column of S_LD, and the posterior is derived from
        S_LD afresh with the jitter resolved at fit.  ``update_count``
        counts the samples absorbed this way.  Returns self for chaining.
        """
        t = as_sample(h_t, self.pool.shape[1:])[None]
        k = gram_stack(self.labeled_features, t, self.hyperparameters).summed
        self.labelled_gram = _read_only(np.concatenate([self.labelled_gram, k], axis=1))
        self.pool = _read_only(np.concatenate([self.pool, t]))
        self.pool_rows = prepare_rows(self.pool)
        self.update_count += 1
        self._recondition()
        return self

    def predict_recursive(self, h_t) -> Prediction:
        """Absorb the test sample if it is novel, then predict it against the pool.

        The sample's Gram against the pool is built once.  It is novel when
        the mean over nodes of its largest kernel value is below
        ``_NOVELTY``; only then does ``update_recursive`` absorb it, and the
        prediction uses its row against the grown pool.  A sample the pool
        already covers is predicted from the row at hand, as ``predict``
        would, and leaves the model unchanged.  So the variance of an
        absorbed sample includes the sample itself: its own pool row adds
        exactly M to its node-summed Gram row s, which raises its prior
        variance ||s||^2 / M^2 by exactly 1, to rounding.
        """
        t = as_sample(h_t, self.pool.shape[1:])
        rows = self._gram_row(t)
        if rows.per_node[:, 0].max(axis=1).mean() < _NOVELTY:
            self.update_recursive(t)
            return self.predict(t)
        return self._predict_row(rows.summed)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def as_sample(h_t, shape) -> np.ndarray:
    """One finite test sample, an (M, D) array, as C-contiguous complex; ``shape`` is the model's (M, D)."""
    if np.ndim(h_t) != 2:
        raise ValueError("predict/update take one sample at a time, an (M, D) array; "
                         f"got {type(h_t).__name__} of shape {np.shape(h_t)}")
    if np.shape(h_t) != tuple(shape):
        raise ValueError(f"sample shape {np.shape(h_t)} != model features {tuple(shape)}")
    return stack_features(np.asarray(h_t)[None])[0]


def labelled_pool(training_set, labelled_positions, num_nodes: int):
    """The (n_D, M, D) pool and finite (n_L, C) labels, 1 <= n_L <= n_D, C >= 1, M == num_nodes."""
    pool = stack_features(training_set)
    positions = np.atleast_2d(np.asarray(labelled_positions, dtype=float))
    # an empty label array becomes (1, 0): one label with no coordinate
    if positions.shape[1] == 0:
        raise ValueError("no labelled positions: each label needs at least one coordinate")
    if not np.all(np.isfinite(positions)):
        raise ValueError("labelled positions must be finite")
    n_l = positions.shape[0]
    if not 1 <= n_l <= pool.shape[0]:
        raise ValueError(f"need 1 <= n_L={n_l} <= pool size {pool.shape[0]}")
    if pool.shape[1] != num_nodes:
        raise ValueError(f"features have M={pool.shape[1]} nodes, "
                         f"hyperparameters have {num_nodes} widths")
    return pool, positions


def spd_factor(sigma: np.ndarray, diag: float) -> tuple:
    """``cho_factor``'s lower factor and the symmetrised inverse of ``sigma + diag * I``.

    A matrix that is not positive definite raises the conditioning failure.
    """
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
    return cf, 0.5 * (inv + inv.T)


def fit(training_set, labelled_positions, hp: Hyperparameters) -> MmgpModel:
    """Fit the model on a pool whose first n_L samples are labelled.

    ``training_set`` is the (n_D, M, D) feature array, labelled samples
    first, unlabelled after; ``labelled_positions`` is (n_L, C) and sets
    n_L.  Finite features so large that their kernel Gram overflows are
    rejected.
    """
    pool, positions = labelled_pool(training_set, labelled_positions, hp.num_nodes)
    # stack_features may hand back the caller's own array; the model owns a copy
    pool = pool.copy()
    n_l = positions.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = prepare_rows(pool)
        s_ld = gram_stack(pool[:n_l], pool, hp, rows).summed
    if not np.isfinite(s_ld).all():
        raise ValueError("features overflow the kernel Gram")
    return MmgpModel(pool=pool, n_labeled=n_l, labelled_gram=s_ld, positions=positions,
                     hyperparameters=hp, pool_rows=rows)


def save_model(model: MmgpModel, path, config_hash: str) -> None:
    """Serialize to a little-endian binary file (magic "MMGP", version 3).

    The file holds only primary data: the counts, ``config_hash`` (64
    lowercase hex digits, stored as their 32 bytes), the kernel widths,
    sigma2 and the jitter resolved at fit, the labels and the full pool
    features, so a loaded model can keep predicting and updating.
    """
    digest = bytes.fromhex(config_hash)
    if len(digest) != 32 or digest.hex() != config_hash:
        raise ValueError(f"config hash must be 64 lowercase hex digits, got {config_hash!r}")
    n_l, c = model.positions.shape
    n_d, m, d = model.pool.shape
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<7I", _FORMAT_VERSION, n_l, c, m, model.update_count, n_d, d))
        fh.write(digest)
        _write_f64(fh, model.hyperparameters.eps)
        _write_f64(fh, [model.hyperparameters.sigma2, model.jitter_used])
        _write_f64(fh, model.positions)
        # complex features as interleaved real/imag doubles
        _write_f64(fh, model.pool.view(float))


def load_model(path) -> MmgpModel:
    """Restore a model written by save_model by fitting on the file's pool.

    The result carries the file's ``config_hash``; version 1 and 2 files,
    which hold none, are refused.  The sizes the header declares are
    checked against the file's size before any array is read, so a corrupt
    count cannot ask for more memory than the file holds; a NaN or infinity in any array, and a
    finite value that overflows the conditioning, is rejected.  ``fit``
    with the stored jitter re-derives the posterior, so the result equals
    a fit on the file's pool bit for bit.  A model that streamed updates
    built its S_LD one column at a time, so its reload agrees with it to
    rounding only.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a model file (bad magic)")
        version, n_l, c, m, count, n_d, d = struct.unpack("<7I", _read_exact(fh, 28))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        declared = 64 + 8 * (m + 2 + n_l * c + 2 * n_d * m * d)
        size = os.fstat(fh.fileno()).st_size
        if declared > size:
            raise ValueError(f"truncated model file: header declares {declared} bytes, "
                             f"file has {size}")
        if declared < size:
            raise ValueError("trailing bytes in model file")
        if m == 0 or not 1 <= n_l <= n_d:
            raise ValueError(f"inconsistent model header: M={m}, n_L={n_l}, n_D={n_d}")
        config_hash = _read_exact(fh, 32).hex()
        eps = _read_f64(fh, m)
        sigma2, jitter = _read_f64(fh, 2)
        positions = _read_f64(fh, n_l * c).reshape(n_l, c)
        pool = _read_f64(fh, n_d * m * d * 2).view(complex).reshape(n_d, m, d)
    if not all(np.isfinite(a).all() for a in (eps, [sigma2, jitter], positions, pool)):
        raise ValueError("non-finite values in model file")
    hp = Hyperparameters(eps=eps, sigma2=float(sigma2), jitter=float(jitter))
    try:
        with np.errstate(over="raise", invalid="raise"):
            model = fit(pool, positions, hp)
    except FloatingPointError:
        raise ValueError("model file values overflow the conditioning") from None
    model.update_count = count
    model.config_hash = config_hash
    return model


def _write_f64(fh, arr) -> None:
    fh.write(np.ascontiguousarray(np.asarray(arr, dtype="<f8")).tobytes())


def _read_exact(fh, size: int) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError("truncated model file")
    return raw


def _read_f64(fh, count: int) -> np.ndarray:
    return np.frombuffer(_read_exact(fh, 8 * count), dtype="<f8").copy()
