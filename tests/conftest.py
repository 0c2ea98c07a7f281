"""Shared builders and brute-force oracles for the test suite."""

import numpy as np

from mmgploc import kernels as kn
from mmgploc import rtf_features as rf
from mmgploc.acoustic_sim import _CHUNK, _FLIPS, _FOUR_PI, _SIGNS


def make_artf(rng, num_nodes, dim, pos=None):
    """Random aggregated RTF with ``num_nodes`` nodes of dimension ``dim``."""
    vecs = [rf.RtfVector(values=rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
                         node_index=m + 1,
                         bin_frequencies=np.arange(dim, dtype=float))
            for m in range(num_nodes)]
    return rf.assemble_artf(vecs, true_position=pos)


def make_set(rng, n, num_nodes, dim):
    return [make_artf(rng, num_nodes, dim) for _ in range(n)]


def gaussian_kernel(h_i, h_j, eps_m: float) -> float:
    """exp(-||h_i - h_j||^2 / eps_m) for two same-node RTF vectors."""
    if eps_m <= 0:
        raise ValueError("eps_m must be positive")
    if h_i.node_index != h_j.node_index:
        raise ValueError("kernel arguments must come from the same node")
    if h_i.dim != h_j.dim:
        raise ValueError("dimension mismatch")
    delta = h_i.values - h_j.values
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
    kr = np.exp(-kn._sq_dists(r.stack()[None, q - 1], pool[:, q - 1, :]) / hp.eps[q - 1])[0]
    kl = np.exp(-kn._sq_dists(l.stack()[None, w - 1], pool[:, w - 1, :]) / hp.eps[w - 1])[0]
    return float(kr @ kl)


def brute_cross_node(r, l, q, w, pool, hp):
    """Literal sum over the pool of per-node kernel products (1-based q, w)."""
    total = 0.0
    for s in pool:
        total += (gaussian_kernel(r.per_node[q - 1], s.per_node[q - 1], hp.eps[q - 1])
                  * gaussian_kernel(l.per_node[w - 1], s.per_node[w - 1], hp.eps[w - 1]))
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
    joint = brute_mmgp(labeled + [test], labeled + [test], pool, hp)
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
