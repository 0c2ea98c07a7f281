"""Kernel and fused-covariance tests.

The factorized covariance is compared against literal double-sum and
matrix-product oracles built from scalar kernel calls, and the structural
invariants (PSD, symmetry, pool monotonicity, node-permutation invariance)
are exercised on seeded random instances.
"""

import numpy as np
import pytest
from conftest import (brute_cross_node, brute_mmgp, cross_node_kernel, gaussian_kernel,
                      make_artf, make_set, node_manifold_kernel)

from mmgploc import kernels as kn


def test_hyperparameters_validation():
    hp = kn.Hyperparameters(eps=[1.0, 2.0], sigma2=0.1, jitter=1e-8)
    assert hp.num_nodes == 2
    kn.Hyperparameters(eps=3.0)  # scalar promotes to length-1 vector
    with pytest.raises(ValueError):
        kn.Hyperparameters(eps=[1.0, -2.0])
    with pytest.raises(ValueError):
        kn.Hyperparameters(eps=[1.0], sigma2=-0.5)
    with pytest.raises(ValueError):
        kn.Hyperparameters(eps=[1.0], jitter=-1e-9)
    for jitter in (np.inf, np.nan):
        with pytest.raises(ValueError, match="jitter must be finite"):
            kn.Hyperparameters(eps=[1.0], sigma2=0.1, jitter=jitter)
    with pytest.raises(ValueError):
        kn.Hyperparameters(eps=[np.inf])
    with pytest.raises(ValueError, match="eps must give at least one width"):
        kn.Hyperparameters(eps=[], sigma2=0.1)


def test_gaussian_kernel_identity_and_scale():
    rng = np.random.default_rng(2)
    v = make_artf(rng, 1, 8)[0]
    assert gaussian_kernel(v, v, 0.5) == 1.0
    # construct a pair at exactly squared distance eps
    a = np.zeros(4, complex)
    b = np.array([1.0, 1j, 0, 0])
    assert gaussian_kernel(a, b, 2.0) == pytest.approx(np.exp(-1.0), rel=1e-15)


def test_gaussian_kernel_matches_scalar_recomputation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(2, 12))
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        eps = float(rng.uniform(0.1, 50.0))
        expected = np.exp(-sum(abs(x[i] - y[i]) ** 2 for i in range(dim)) / eps)
        assert gaussian_kernel(x, y, eps) == pytest.approx(expected, rel=1e-13)
        assert 0 < gaussian_kernel(x, y, eps) <= 1


def test_gaussian_kernel_errors():
    rng = np.random.default_rng(1)
    a = make_artf(rng, 2, 4)
    with pytest.raises(ValueError, match="positive"):
        gaussian_kernel(a[0], a[0], 0.0)


def test_gram_stack_singleton_and_symmetry():
    rng = np.random.default_rng(11)
    hp = kn.Hyperparameters(eps=[1.0, 2.0, 3.0])
    one = make_set(rng, 1, 3, 6)
    g = kn.gram_stack(one, None, hp)
    np.testing.assert_array_equal(g.per_node, np.ones((3, 1, 1)))
    np.testing.assert_array_equal(g.summed, [[3.0]])

    many = make_set(rng, 7, 3, 6)
    g = kn.gram_stack(many, None, hp)
    assert g.per_node.shape[1:] == (7, 7)
    for m in range(3):
        np.testing.assert_array_equal(g.per_node[m], g.per_node[m].T)
        np.testing.assert_array_equal(np.diag(g.per_node[m]), np.ones(7))
        assert np.all(g.per_node[m] > 0) and np.all(g.per_node[m] <= 1)
    np.testing.assert_array_equal(np.diag(g.summed), np.full(7, 3.0))


def test_gram_stack_matches_elementwise_kernel():
    rng = np.random.default_rng(13)
    hp = kn.Hyperparameters(eps=[0.7, 4.0])
    a_set = make_set(rng, 4, 2, 5)
    b_set = make_set(rng, 6, 2, 5)
    g = kn.gram_stack(a_set, b_set, hp)
    for m in range(2):
        for i, a in enumerate(a_set):
            for j, b in enumerate(b_set):
                want = gaussian_kernel(a[m], b[m], hp.eps[m])
                assert g.per_node[m, i, j] == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(g.summed, g.per_node.sum(axis=0), atol=0)


def test_gram_stack_shape_errors():
    rng = np.random.default_rng(17)
    hp = kn.Hyperparameters(eps=[1.0, 1.0])
    a_set = make_set(rng, 3, 2, 5)
    with pytest.raises(ValueError, match="inconsistent"):
        kn.gram_stack(a_set, make_set(rng, 3, 2, 4), hp)
    with pytest.raises(ValueError, match="hyperparameters"):
        kn.gram_stack(make_set(rng, 3, 3, 5), None, hp)
    with pytest.raises(ValueError, match=r"shape \(n, M, D\)"):
        kn.stack_features([])


def test_node_manifold_kernel_small_cases():
    rng = np.random.default_rng(19)
    hp = kn.Hyperparameters(eps=[1.5])
    sole = make_artf(rng, 1, 4)
    assert node_manifold_kernel(sole, sole, sole[None], 1, hp) == pytest.approx(1.0, rel=1e-14)
    pool = np.concatenate([sole[None], make_set(rng, 5, 1, 4)])
    assert node_manifold_kernel(sole, sole, pool, 1, hp) >= 1.0


def test_cross_node_kernel_brute_force_and_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(10):
        num_nodes = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 6))
        hp = kn.Hyperparameters(eps=rng.uniform(0.5, 8.0, num_nodes))
        pool = make_set(rng, int(rng.integers(1, 8)), num_nodes, dim)
        r, l = make_artf(rng, num_nodes, dim), make_artf(rng, num_nodes, dim)
        q = int(rng.integers(1, num_nodes + 1))
        w = int(rng.integers(1, num_nodes + 1))
        got = cross_node_kernel(r, l, q, w, pool, hp)
        assert got == pytest.approx(brute_cross_node(r, l, q, w, pool, hp), rel=1e-12)
        swapped = cross_node_kernel(l, r, w, q, pool, hp)
        assert got == pytest.approx(swapped, rel=1e-12)
        same = cross_node_kernel(r, l, q, q, pool, hp)
        assert same == pytest.approx(node_manifold_kernel(r, l, pool, q, hp), rel=1e-13)


def test_cross_node_kernel_saturates_at_pool_size():
    rng = np.random.default_rng(29)
    hp = kn.Hyperparameters(eps=[1e12, 1e12])
    pool = make_set(rng, 6, 2, 4)
    r, l = make_artf(rng, 2, 4), make_artf(rng, 2, 4)
    assert cross_node_kernel(r, l, 1, 2, pool, hp) == pytest.approx(6.0, rel=1e-9)


def test_cross_node_kernel_errors():
    rng = np.random.default_rng(31)
    hp = kn.Hyperparameters(eps=[1.0, 1.0])
    r = make_artf(rng, 2, 4)
    with pytest.raises(ValueError, match=r"shape \(n, M, D\)"):
        cross_node_kernel(r, r, 1, 1, [], hp)
    with pytest.raises(ValueError, match="1-based"):
        cross_node_kernel(r, r, 0, 1, r[None], hp)


def test_mmgp_covariance_matches_double_sum():
    rng = np.random.default_rng(37)
    for _ in range(8):
        num_nodes = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 6))
        hp = kn.Hyperparameters(eps=rng.uniform(0.5, 10.0, num_nodes))
        pool = make_set(rng, int(rng.integers(2, 10)), num_nodes, dim)
        a_set = make_set(rng, 3, num_nodes, dim)
        b_set = make_set(rng, 4, num_nodes, dim)
        got = kn.mmgp_covariance(a_set, b_set, pool, hp)
        np.testing.assert_allclose(got, brute_mmgp(a_set, b_set, pool, hp), rtol=1e-12)


def test_mmgp_covariance_matrix_product_form():
    # the A=B=pool case against the explicit (1/M^2) sum_qw K^q K^w^T of Grams
    rng = np.random.default_rng(41)
    hp = kn.Hyperparameters(eps=[0.8, 2.0, 5.0])
    pool = make_set(rng, 8, 3, 5)
    g = kn.gram_stack(pool, None, hp)
    want = np.zeros((8, 8))
    for q in range(3):
        for w in range(3):
            want += g.per_node[q] @ g.per_node[w].T
    want /= 9.0
    got = kn.mmgp_covariance(pool, None, pool, hp)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_mmgp_covariance_psd_and_diagonal():
    rng = np.random.default_rng(43)
    for _ in range(10):
        num_nodes = int(rng.integers(1, 4))
        hp = kn.Hyperparameters(eps=rng.uniform(0.5, 5.0, num_nodes))
        pool = make_set(rng, int(rng.integers(2, 12)), num_nodes, 4)
        cov = kn.mmgp_covariance(pool, None, pool, hp)
        np.testing.assert_array_equal(cov, cov.T)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-10 * np.linalg.norm(cov)
        # members of the pool carry at least the unit self term
        assert np.all(np.diag(cov) >= 1.0 - 1e-12)


def test_mmgp_covariance_monotone_in_pool():
    rng = np.random.default_rng(47)
    hp = kn.Hyperparameters(eps=[1.0, 3.0])
    pool = make_set(rng, 6, 2, 4)
    a_set = make_set(rng, 3, 2, 4)
    small = kn.mmgp_covariance(a_set, None, pool[:4], hp)
    big = kn.mmgp_covariance(a_set, None, pool, hp)
    assert np.all(big >= small - 1e-14)


def test_mmgp_covariance_node_permutation_invariant():
    rng = np.random.default_rng(53)
    num_nodes, dim = 3, 4
    hp = kn.Hyperparameters(eps=[0.7, 2.0, 4.5])
    pool = make_set(rng, 5, num_nodes, dim)
    a_set = make_set(rng, 4, num_nodes, dim)
    perm = [2, 0, 1]

    hp_p = kn.Hyperparameters(eps=hp.eps[perm])
    base = kn.mmgp_covariance(a_set, None, pool, hp)
    permuted = kn.mmgp_covariance(a_set[:, perm], None, pool[:, perm], hp_p)
    np.testing.assert_allclose(permuted, base, rtol=1e-13)


def test_mmgp_covariance_m1_reduces_to_node_kernel():
    rng = np.random.default_rng(59)
    hp = kn.Hyperparameters(eps=[1.3])
    pool = make_set(rng, 6, 1, 5)
    a_set = make_set(rng, 3, 1, 5)
    cov = kn.mmgp_covariance(a_set, a_set, pool, hp)
    for i, a in enumerate(a_set):
        for j, b in enumerate(a_set):
            want = node_manifold_kernel(a, b, pool, 1, hp)
            assert cov[i, j] == pytest.approx(want, rel=1e-12)


def test_median_heuristic():
    rng = np.random.default_rng(61)
    pool = make_set(rng, 7, 2, 4)
    eps = kn.median_heuristic(pool)
    assert eps.shape == (2,)
    feats = kn.stack_features(pool)
    for m in range(2):
        dists = [np.sum(np.abs(feats[i, m] - feats[j, m]) ** 2)
                 for i in range(7) for j in range(i + 1, 7)]
        assert eps[m] == pytest.approx(np.median(dists), rel=1e-12)
    # degenerate: every sample identical in one node
    clone = make_artf(rng, 1, 4)
    eps_d = kn.median_heuristic(np.stack([clone, clone, clone]))
    assert eps_d[0] == 1.0
    with pytest.raises(ValueError, match="two samples"):
        kn.median_heuristic(clone[None])
