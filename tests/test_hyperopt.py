"""Likelihood and gradient-learning tests.

The log-likelihood is checked against scipy's multivariate-normal density
on the brute-force covariance; every analytic gradient is checked against
central finite differences of the likelihood itself.
"""

import csv
import math

import numpy as np
import pytest
from conftest import (brute_mmgp, log_likelihood_and_grad, make_artf, make_set,
                      reference_log_likelihood_and_grad)
from scipy import stats

from mmgploc import hyperopt as ho
from mmgploc import kernels as kn
from mmgploc import mmgp_model as mm


def log_likelihood(hp, pool, positions):
    return log_likelihood_and_grad(hp, pool, positions)[0]


def random_problem(rng, n_l=None, n_u=None, num_nodes=None, dim=4, c=2):
    num_nodes = num_nodes or int(rng.integers(1, 4))
    n_l = n_l or int(rng.integers(2, 8))
    n_u = n_u if n_u is not None else int(rng.integers(0, 8))
    pool = make_set(rng, n_l + n_u, num_nodes, dim)
    positions = rng.uniform(0.0, 5.0, (n_l, c))
    hp = kn.Hyperparameters(eps=rng.uniform(0.5, 8.0, num_nodes),
                            sigma2=float(rng.uniform(0.05, 0.5)))
    return pool, positions, hp


def test_single_label_likelihood_closed_form():
    rng = np.random.default_rng(3)
    pool = make_set(rng, 3, 2, 4)
    hp = kn.Hyperparameters(eps=[2.0, 3.0], sigma2=0.4)
    got = log_likelihood(hp, pool, np.array([[1.5, 2.5]]))
    var = brute_mmgp(pool[:1], pool[:1], pool, hp)[0, 0] + hp.sigma2
    # centered single label is zero, so only the normalizer remains, per coordinate
    want = 2 * (-0.5 * math.log(var) - 0.5 * math.log(2 * math.pi))
    assert got == pytest.approx(want, rel=1e-12)


def test_likelihood_matches_density_oracle():
    rng = np.random.default_rng(7)
    for _ in range(8):
        pool, positions, hp = random_problem(rng)
        n_l = positions.shape[0]
        got = log_likelihood(hp, pool, positions)
        cov = brute_mmgp(pool[:n_l], pool[:n_l], pool, hp) + hp.sigma2 * np.eye(n_l)
        centered = positions - positions.mean(axis=0)
        want = sum(stats.multivariate_normal.logpdf(centered[:, c], cov=cov,
                                                    allow_singular=False)
                   for c in range(positions.shape[1]))
        assert got == pytest.approx(want, rel=1e-9)


def test_zero_labels_leave_only_normalizer():
    rng = np.random.default_rng(11)
    pool = make_set(rng, 5, 1, 4)
    hp = kn.Hyperparameters(eps=[3.0], sigma2=0.2)
    positions = np.zeros((3, 2))
    got = log_likelihood(hp, pool, positions)
    cov = brute_mmgp(pool[:3], pool[:3], pool, hp) + hp.sigma2 * np.eye(3)
    logdet = np.linalg.slogdet(cov)[1]
    want = 2 * (-0.5 * logdet - 1.5 * math.log(2 * math.pi))
    assert got == pytest.approx(want, rel=1e-12)


def central_fd(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_grad_eps_matches_finite_differences():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(10):
        pool, positions, hp = random_problem(rng)
        m = int(rng.integers(1, hp.num_nodes + 1))
        analytic = log_likelihood_and_grad(hp, pool, positions)[1][m - 1]

        def of_eps(e):
            eps = hp.eps.copy()
            eps[m - 1] = e
            return log_likelihood(
                kn.Hyperparameters(eps=eps, sigma2=hp.sigma2), pool, positions)

        fd = central_fd(of_eps, hp.eps[m - 1], hp.eps[m - 1] * 1e-5)
        if abs(analytic) < 1e-8 and abs(fd) < 1e-8:
            continue  # flat direction: both sides at the noise floor
        assert analytic == pytest.approx(fd, rel=1e-5)
        checked += 1
    assert checked >= 5


def test_evaluate_matches_the_loop_form_oracle():
    # over 4400 such problems the largest differences measured 3.9e-16
    # relative in L, 3.2e-14 of max |dL/deps| and 1.0e-13 relative in dL/dsigma2
    rng = np.random.default_rng(79)
    for _ in range(200):
        num_nodes, c = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        n_l = int(rng.integers(1, 12))
        pool = make_set(rng, n_l + int(rng.integers(0, 8)), num_nodes, 4)
        positions = rng.uniform(0.0, 5.0, (n_l, c))
        eps, sig2 = rng.uniform(0.5, 8.0, num_nodes), float(rng.uniform(0.05, 0.5))
        prob = ho._Problem(pool, positions, num_nodes)
        value, g_eps, g_sig = prob.evaluate(eps, sig2)
        want_value, want_eps, want_sig = reference_log_likelihood_and_grad(prob, eps, sig2)
        assert value == pytest.approx(want_value, rel=4e-15, abs=0)
        assert np.max(np.abs(g_eps - want_eps)) <= 1e-12 * np.max(np.abs(want_eps))
        assert g_sig == pytest.approx(want_sig, rel=1e-12, abs=0)


def test_grad_eps_zero_for_degenerate_node():
    rng = np.random.default_rng(17)
    shared = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pool = []
    for _ in range(5):
        own = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pool.append(np.stack([shared, own]))
    pool = np.stack(pool)
    hp = kn.Hyperparameters(eps=[2.0, 3.0], sigma2=0.3)
    positions = rng.uniform(0.0, 4.0, (3, 2))
    _, g_eps, _ = log_likelihood_and_grad(hp, pool, positions)
    assert g_eps[0] == 0.0
    assert g_eps[1] != 0.0


def test_grad_sigma2_matches_finite_differences():
    rng = np.random.default_rng(19)
    for _ in range(8):
        pool, positions, hp = random_problem(rng)
        analytic = log_likelihood_and_grad(hp, pool, positions)[2]

        def of_sig(s):
            return log_likelihood(
                kn.Hyperparameters(eps=hp.eps, sigma2=s), pool, positions)

        fd = central_fd(of_sig, hp.sigma2, hp.sigma2 * 1e-5)
        assert analytic == pytest.approx(fd, rel=1e-5)


def test_grad_sigma2_sign_with_zero_labels():
    rng = np.random.default_rng(23)
    pool = make_set(rng, 6, 2, 4)
    hp = kn.Hyperparameters(eps=[2.0, 4.0], sigma2=0.5)
    g = log_likelihood_and_grad(hp, pool, np.zeros((4, 2)))[2]
    assert g < 0  # nothing to explain: noise should shrink


def test_grad_sigma2_far_features_scalar_case():
    # kernels underflow to zero at astronomical distances, but every sample
    # still matches itself in the pool, so the labelled covariance collapses
    # to the identity and the gradient has a closed white-noise-like form
    rng = np.random.default_rng(29)
    pool = make_set(rng, 4, 1, 4)
    for i, agg in enumerate(pool):
        agg[0] = agg[0] + 1e8 * (i + 1)
    positions = rng.uniform(0.0, 3.0, (4, 2))
    hp = kn.Hyperparameters(eps=[1.0], sigma2=1.0)
    y = positions - positions.mean(axis=0)
    total = 1.0 + hp.sigma2
    want = 0.5 * (np.sum(y**2) / total**2 - 2 * 4 / total)
    assert log_likelihood_and_grad(hp, pool, positions)[2] == pytest.approx(want, rel=1e-12)


def test_wrong_width_count_rejected():
    rng = np.random.default_rng(33)
    pool, positions, _ = random_problem(rng, n_l=5, n_u=3, num_nodes=3)
    for eps in ([2.0], [2.0, 3.0], [2.0, 3.0, 4.0, 5.0]):
        hp = kn.Hyperparameters(eps=eps, sigma2=0.1)
        for call in (lambda: log_likelihood_and_grad(hp, pool, positions),
                     lambda: ho.optimize(pool, positions, hp0=hp)):
            with pytest.raises(ValueError, match=f"M=3 nodes, hyperparameters have {len(eps)} widths"):
                call()


def test_likelihood_invariant_to_node_order():
    rng = np.random.default_rng(37)
    pool, positions, hp = random_problem(rng, num_nodes=3)
    perm = [2, 0, 1]

    hp_p = kn.Hyperparameters(eps=hp.eps[perm], sigma2=hp.sigma2)
    a = log_likelihood(hp, pool, positions)
    b = log_likelihood(hp_p, pool[:, perm], positions)
    assert a == pytest.approx(b, rel=1e-12)


def test_likelihood_non_pd_reports_eigenvalue():
    rng = np.random.default_rng(41)
    base = make_artf(rng, 1, 4)
    pool = [base, base, base]
    hp = kn.Hyperparameters(eps=[1.0], sigma2=0.0)
    with pytest.raises(ValueError, match="eigenvalue") as learned:
        log_likelihood(hp, pool, np.zeros((3, 2)))
    # the fitted model conditions through the same factor step, so with no
    # jitter it fails on the same matrix with the same message
    with pytest.raises(ValueError, match="conditioning failure") as fitted:
        mm.fit(pool, np.zeros((3, 2)), kn.Hyperparameters(eps=[1.0], sigma2=0.0, jitter=0.0))
    assert str(learned.value) == str(fitted.value)


def test_optimize_improves_and_trace_is_monotone(monkeypatch):
    monkeypatch.setattr(ho, "_MAX_ITERS", 60)
    rng = np.random.default_rng(43)
    pool, positions, _ = random_problem(rng, n_l=7, n_u=5, num_nodes=2)
    hp0 = kn.Hyperparameters(eps=[0.5, 0.5], sigma2=0.5)
    result = ho.optimize(pool, positions, hp0=hp0)
    start = log_likelihood(hp0, pool, positions)
    assert result.log_likelihood >= start
    values = [row[1] for row in result.trace]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # log-space iterates can never leave the positive orthant
    for row in result.trace:
        assert all(p > 0 for p in row[2:])
    assert result.hyperparameters.num_nodes == 2
    assert result.hyperparameters.sigma2 > 0


def test_optimize_restart_at_optimum_terminates_immediately(monkeypatch):
    monkeypatch.setattr(ho, "_MAX_ITERS", 150)
    monkeypatch.setattr(ho, "_GRAD_TOL", 1e-6)
    rng = np.random.default_rng(47)
    pool, positions, _ = random_problem(rng, n_l=6, n_u=4, num_nodes=1)
    first = ho.optimize(pool, positions)
    again = ho.optimize(pool, positions, hp0=first.hyperparameters)
    assert again.converged
    assert len(again.trace) <= 3  # initial row plus at most two touch-up steps
    assert again.log_likelihood >= first.log_likelihood - 1e-9


def test_optimize_budget_exhaustion_warns_and_returns_best(monkeypatch):
    monkeypatch.setattr(ho, "_MAX_ITERS", 2)
    monkeypatch.setattr(ho, "_GRAD_TOL", 1e-14)
    rng = np.random.default_rng(53)
    pool, positions, _ = random_problem(rng, n_l=6, n_u=4, num_nodes=2)
    result = ho.optimize(pool, positions, hp0=kn.Hyperparameters(eps=[0.3, 0.3], sigma2=0.8))
    assert not result.converged
    assert result.warning is not None
    best_traced = max(row[1] for row in result.trace)
    assert result.log_likelihood == pytest.approx(best_traced)


def test_optimize_start_below_sigma2_floor_is_raised_to_it():
    rng = np.random.default_rng(59)
    pool, positions, _ = random_problem(rng, n_l=6, n_u=4, num_nodes=2)
    hp0 = kn.Hyperparameters(eps=[1.0, 2.0], sigma2=1e-7)
    result = ho.optimize(pool, positions, hp0=hp0)
    assert result.trace[0][-1] == ho._SIGMA2_FLOOR
    assert list(result.trace[0][2:4]) == [1.0, 2.0]
    assert all(row[-1] >= ho._SIGMA2_FLOOR for row in result.trace)
    assert result.hyperparameters.sigma2 >= ho._SIGMA2_FLOOR


def test_optimize_trace_and_result_are_the_likelihood():
    # optimize evaluates the likelihood through the same call the public
    # value-and-gradient function makes, so its start row and its result
    # equal that function's value bit for bit
    rng = np.random.default_rng(61)
    for _ in range(6):
        pool, positions, hp = random_problem(rng)
        result = ho.optimize(pool, positions, hp0=hp)
        m = hp.num_nodes
        start = kn.Hyperparameters(eps=result.trace[0][2:2 + m], sigma2=result.trace[0][-1])
        assert result.trace[0][1] == log_likelihood_and_grad(start, pool, positions)[0]
        learned = log_likelihood_and_grad(result.hyperparameters, pool, positions)[0]
        assert result.log_likelihood == learned


def test_optimize_validation():
    rng = np.random.default_rng(67)
    pool, positions, _ = random_problem(rng, num_nodes=2)
    with pytest.raises(ValueError, match="widths"):
        ho.optimize(pool, positions, hp0=kn.Hyperparameters(eps=[1.0], sigma2=0.1))
    bad = positions.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="labelled positions must be finite"):
        ho.optimize(pool, bad)
    with pytest.raises(ValueError, match="positive start"):
        ho.optimize(pool, positions, hp0=kn.Hyperparameters(eps=[1.0, 1.0], sigma2=0.0))


def test_trace_csv_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(ho, "_MAX_ITERS", 10)
    rng = np.random.default_rng(71)
    pool, positions, _ = random_problem(rng, n_l=5, n_u=3, num_nodes=2)
    result = ho.optimize(pool, positions)
    path = tmp_path / "trace.csv"
    ho.write_trace_csv(result, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "log_likelihood", "eps_1", "eps_2", "sigma2"]
    assert len(rows) == len(result.trace) + 1
    assert float(rows[1][1]) == pytest.approx(result.trace[0][1])
