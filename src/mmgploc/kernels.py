"""Per-node Gaussian kernels and the fused multi-node covariance.

Every localization model here rates the similarity of two source events by
comparing their per-node RTF vectors.  The fused covariance couples all
node pairs through products of kernel sums over a training pool; it is
always computed through the S*S^T factorization, which is algebraically
equal to the pairwise double sum but cheaper and positive semidefinite by
construction.  A model's pool is a plain (n, M, D) complex array; a Gram
against it forms each node's conjugated rows and squared norms afresh.
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


def stack_features(samples) -> np.ndarray:
    """An (n, M, D) finite feature array as C-contiguous complex; may be the caller's own array."""
    if np.ndim(samples) != 3:
        raise ValueError("feature array must have shape (n, M, D)")
    features = np.ascontiguousarray(samples, dtype=complex)
    if not np.isfinite(features).all():
        raise ValueError("non-finite entries in feature array")
    return features


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared complex Euclidean norm of every row."""
    return np.einsum("ij,ij->i", x.real, x.real) + np.einsum("ij,ij->i", x.imag, x.imag)


def sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise squared complex Euclidean distances between row sets."""
    cross = (x @ y.conj().T).real
    return np.clip(_sq_norms(x)[:, None] + _sq_norms(y)[None, :] - 2.0 * cross, 0.0, None)


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
    exactly-unit diagonal and exact symmetry.
    """
    a = stack_features(a_samples)
    symmetric = b_samples is None
    b = a if symmetric else stack_features(b_samples)
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"inconsistent (M, D): {a.shape[1:]} vs {b.shape[1:]}")
    if a.shape[1] != hp.num_nodes:
        raise ValueError(f"features have M={a.shape[1]} nodes, hyperparameters {hp.num_nodes}")
    per_node = np.empty((a.shape[1], a.shape[0], b.shape[0]))
    for m in range(a.shape[1]):
        x = a[:, m, :]
        if symmetric:
            d2 = _sq_dists_symmetric(x)
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
