"""Per-node Gaussian kernels and the fused multi-node covariance.

Every localization model here rates the similarity of two source events by
comparing their per-node RTF vectors.  The fused covariance couples all
node pairs through products of kernel sums over a training pool; it is
always computed through the S*S^T factorization, which is algebraically
equal to the pairwise double sum but cheaper and positive semidefinite by
construction.

A model's training pool is a ``FeaturePool``: it keeps each node's
conjugated rows and squared row norms, so a Gram against the pool reads
them instead of rebuilding them on every call, and appending a sample costs
amortised O(1) copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Hyperparameters:
    """Kernel widths (one per node), label-noise variance, and jitter.

    ``eps`` lives in squared-feature-distance units, ``sigma2`` in squared
    meters.  ``jitter=None`` lets the model pick a trace-scaled default at
    fit time.
    """

    eps: np.ndarray
    sigma2: float = 0.0
    jitter: float | None = None

    def __post_init__(self):
        self.eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
        if self.eps.ndim != 1 or np.any(self.eps <= 0) or not np.all(np.isfinite(self.eps)):
            raise ValueError("eps must be a vector of positive finite scalars")
        if self.sigma2 < 0 or not np.isfinite(self.sigma2):
            raise ValueError("sigma2 must be finite and >= 0")
        if self.jitter is not None and (self.jitter < 0 or not np.isfinite(self.jitter)):
            raise ValueError("jitter must be finite and >= 0 when given")

    @property
    def num_nodes(self) -> int:
        return self.eps.size


@dataclass
class GramStack:
    """Per-node kernel matrices over an A-set x B-set, plus their node sum."""

    per_node: np.ndarray  # (M, |A|, |B|)
    summed: np.ndarray    # (|A|, |B|), sum over the node axis

    @property
    def num_nodes(self) -> int:
        return self.per_node.shape[0]

    @property
    def shape(self) -> tuple:
        return self.per_node.shape[1:]


def stack_features(samples) -> np.ndarray:
    """Aggregated RTFs as one (n, M, D) complex array; validates consistency."""
    if isinstance(samples, np.ndarray):
        if samples.ndim != 3:
            raise ValueError("feature array must have shape (n, M, D)")
        return np.ascontiguousarray(samples, dtype=complex)
    if len(samples) == 0:
        raise ValueError("empty sample set")
    mats = [s.stack() for s in samples]
    shape0 = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape0:
            raise ValueError(f"inconsistent feature shapes: {m.shape} vs {shape0}")
    return np.ascontiguousarray(np.stack(mats))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared complex Euclidean norm of every row."""
    return np.einsum("ij,ij->i", x.real, x.real) + np.einsum("ij,ij->i", x.imag, x.imag)


def sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise squared complex Euclidean distances between row sets."""
    return _sq_dists_conj(x, y.conj(), _sq_norms(y))


def _sq_dists_conj(x: np.ndarray, y_conj: np.ndarray, yy: np.ndarray) -> np.ndarray:
    """``sq_dists`` from the conjugated rows of y and their squared norms."""
    cross = (x @ y_conj.T).real
    return np.clip(_sq_norms(x)[:, None] + yy[None, :] - 2.0 * cross, 0.0, None)


class FeaturePool:
    """A growable (n, M, D) training pool with per-node Gram operands cached.

    Besides the features it keeps, per node, the conjugated rows as one
    C-contiguous (capacity, D) slab and the squared row norms, each filled
    in once when its row is appended.  ``gram_stack`` reads them when the
    pool is its B set, so a Gram against the pool copies nothing pool-wide
    and gives the same bits as one against the plain feature array.  The
    buffers double when full, so ``append`` costs amortised O(1) copies per
    row.  The price is memory: with the slack of both buffers, the features
    and the conjugate slab take at most about four times the pool's own
    bytes.
    """

    def __init__(self, features):
        features = stack_features(features)
        n, m, d = features.shape
        self._size = 0
        self._features = np.empty((n, m, d), dtype=complex)
        self._conj = np.empty((m, n, d), dtype=complex)
        self._norms = np.empty((m, n))
        self.append(features)

    @property
    def features(self) -> np.ndarray:
        """The (n, M, D) features, C-contiguous and read-only."""
        view = self._features[: self._size]
        view.flags.writeable = False
        return view

    @property
    def shape(self) -> tuple:
        return (self._size,) + self._features.shape[1:]

    def node_operands(self, m: int) -> tuple:
        """Node m's conjugated rows, a C-contiguous (n, D) view, and their norms."""
        return self._conj[m, : self._size], self._norms[m, : self._size]

    def append(self, rows) -> None:
        """Add (k, M, D) feature rows; only the new rows' operands are computed."""
        rows = stack_features(rows)
        if rows.shape[1:] != self._features.shape[1:]:
            raise ValueError(f"row shape {rows.shape[1:]} != pool {self._features.shape[1:]}")
        start, stop = self._size, self._size + rows.shape[0]
        if stop > self._features.shape[0]:
            self._grow(max(stop, 2 * self._features.shape[0]))
        self._features[start:stop] = rows
        for m in range(rows.shape[1]):
            y = self._features[start:stop, m, :]
            np.conjugate(y, out=self._conj[m, start:stop])
            self._norms[m, start:stop] = _sq_norms(y)
        self._size = stop

    def _grow(self, capacity: int) -> None:
        n = self._size
        features = np.empty((capacity,) + self._features.shape[1:], dtype=complex)
        features[:n] = self._features[:n]
        conj = np.empty((self._conj.shape[0], capacity, self._conj.shape[2]), dtype=complex)
        conj[:, :n] = self._conj[:, :n]
        norms = np.empty((self._norms.shape[0], capacity))
        norms[:, :n] = self._norms[:, :n]
        self._features, self._conj, self._norms = features, conj, norms


def _sq_dists_symmetric(x: np.ndarray) -> np.ndarray:
    # using the product's own diagonal as the squared norms zeroes the
    # distance diagonal exactly, keeping the kernel diagonal at 1
    g = (x @ x.conj().T).real
    g = 0.5 * (g + g.T)
    nn = np.diag(g)
    return np.clip(nn[:, None] + nn[None, :] - 2.0 * g, 0.0, None)


def gram_stack(a_samples, b_samples, hp: Hyperparameters) -> GramStack:
    """All M per-node Gram matrices between two sample sets and their sum.

    Pass ``b_samples=None`` for the symmetric A=A case; that path has an
    exactly-unit diagonal and exact symmetry.  A ``FeaturePool`` as the B
    set supplies its cached per-node conjugates and norms.
    """
    a = stack_features(a_samples)
    symmetric = b_samples is None
    pooled = isinstance(b_samples, FeaturePool)
    b = a if symmetric else b_samples if pooled else stack_features(b_samples)
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"inconsistent (M, D): {a.shape[1:]} vs {b.shape[1:]}")
    if a.shape[1] != hp.num_nodes:
        raise ValueError(f"features have M={a.shape[1]} nodes, hyperparameters {hp.num_nodes}")
    per_node = np.empty((a.shape[1], a.shape[0], b.shape[0]))
    for m in range(a.shape[1]):
        x = a[:, m, :]
        if symmetric:
            d2 = _sq_dists_symmetric(x)
        elif pooled:
            d2 = _sq_dists_conj(x, *b.node_operands(m))
        else:
            d2 = sq_dists(x, b[:, m, :])
        per_node[m] = np.exp(-d2 / hp.eps[m])
    return GramStack(per_node=per_node, summed=per_node.sum(axis=0))


def mmgp_covariance(a_samples, b_samples, training_set, hp: Hyperparameters) -> np.ndarray:
    """Fused covariance matrix between two sample sets over a training pool.

    Equals (1/M^2) * sum_i sum_{q,w} k_q(h^q_a, h^q_i) k_w(h^w_b, h^w_i),
    computed as (1/M^2) S_AD S_BD^T with S_XD the node-summed Gram stack.
    Pass ``b_samples=None`` for the symmetric case (PSD by construction).
    """
    pool = stack_features(training_set)
    if pool.shape[0] == 0:
        raise ValueError("empty training set")
    s_ad = gram_stack(a_samples, pool, hp).summed
    s_bd = None if b_samples is None else gram_stack(b_samples, pool, hp).summed
    return fused_from_sums(s_ad, s_bd, hp.num_nodes)


def fused_from_sums(s_ad: np.ndarray, s_bd: np.ndarray | None, num_nodes: int) -> np.ndarray:
    """The fused covariance (1/M^2) S_AD S_BD^T from node-summed Grams.

    ``s_bd=None`` gives the symmetric S_AD S_AD^T / M^2.
    """
    if s_bd is None:
        cov = s_ad @ s_ad.T
        return 0.5 * (cov + cov.T) / num_nodes**2
    return (s_ad @ s_bd.T) / num_nodes**2


def median_heuristic(training_set) -> np.ndarray:
    """Per-node median of pairwise squared feature distances.

    A scale-free starting point for the kernel widths when nothing better
    is known.  Degenerate pools (all features identical in a node) fall
    back to 1.0 for that node.
    """
    pool = stack_features(training_set)
    n, num_nodes = pool.shape[0], pool.shape[1]
    if n < 2:
        raise ValueError("median heuristic needs at least two samples")
    iu = np.triu_indices(n, k=1)
    eps = np.empty(num_nodes)
    for m in range(num_nodes):
        med = float(np.median(_sq_dists_symmetric(pool[:, m, :])[iu]))
        eps[m] = med if med > 0 else 1.0
    return eps
