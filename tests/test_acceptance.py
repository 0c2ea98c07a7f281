"""Acceptance suite: one test per release criterion, runnable standalone.

Each criterion prints a single PASS line with its measured numbers (visible
under ``pytest -s``); the pytest verdict per test is the pass/fail record.
The bin-count clause of the RTF-fidelity criterion is an expected failure:
the band 200-2500 Hz on a 2048-point grid at 16 kHz contains 295 bins, not
the targeted 286, and no consistent setting reproduces that count.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import (brute_mmgp, conditional_gaussian_oracle, log_likelihood_and_grad,
                      make_artf, make_set, true_transfer_ratio)

import mmgploc.acoustic_sim as ac
import mmgploc.cli as cli
import mmgploc.dataio as dio
import mmgploc.hyperopt as ho
import mmgploc.kernels as kn
import mmgploc.mmgp_model as mm
import mmgploc.rtf_features as rf


def _report(criterion: str, detail: str) -> None:
    print(f"{criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# P1 - factorized covariance equals the brute-force double sum


def test_p1_kernel_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_rel, worst_eig = 0.0, 0.0
    for _ in range(100):
        num_nodes = int(rng.integers(1, 5))
        n_d = int(rng.integers(2, 21))
        dim = int(rng.integers(3, 7))
        pool = make_set(rng, n_d, num_nodes, dim)
        hp = kn.Hyperparameters(eps=rng.uniform(0.5, 10.0, num_nodes), sigma2=0.1)

        # the path fit and predict run: node-summed Grams against the
        # model's stacked pool array, fused by fused_from_sums
        stacked = kn.stack_features(pool)
        a = pool[: int(rng.integers(1, 4))]
        b = pool[-int(rng.integers(1, 4)):]
        got = kn.fused_from_sums(kn.gram_stack(a, stacked, hp).summed,
                                 kn.gram_stack(b, stacked, hp).summed, num_nodes)
        want = brute_mmgp(a, b, pool, hp)
        worst_rel = max(worst_rel, float(np.max(np.abs(got - want) / np.abs(want))))

        full = kn.fused_from_sums(kn.gram_stack(pool, stacked, hp).summed, None, num_nodes)
        eigs = np.linalg.eigvalsh(full)
        floor = -1e-10 * float(np.max(np.abs(eigs)))
        worst_eig = min(worst_eig, float(eigs.min() - floor))
    elapsed = time.perf_counter() - t0
    assert worst_rel <= 1e-12
    assert worst_eig >= 0.0  # every min eigenvalue stayed above its floor
    assert elapsed < 10.0
    _report("P1 kernel-oracle-equivalence",
            f"100 instances, max rel err {worst_rel:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# P2 - posterior matches direct joint-Gaussian conditioning


def test_p2_conditional_gaussian_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        num_nodes = int(rng.integers(1, 4))
        n_l = int(rng.integers(2, 7))
        n_u = int(rng.integers(0, 6))
        dim = int(rng.integers(3, 6))
        pool = make_set(rng, n_l + n_u, num_nodes, dim)
        positions = rng.uniform(0.0, 5.0, (n_l, 3))
        hp = kn.Hyperparameters(eps=rng.uniform(1.0, 8.0, num_nodes),
                                sigma2=float(rng.uniform(0.05, 0.4)), jitter=1e-10)
        test = make_artf(rng, num_nodes, dim)
        model = mm.fit(pool, positions, hp)
        got = model.predict(test)
        mu, var, _ = conditional_gaussian_oracle(
            pool[:n_l], test, pool, hp, positions, hp.sigma2 + hp.jitter)
        worst = max(worst, float(np.max(np.abs(got.position - mu) / np.abs(mu))))
        assert got.position == pytest.approx(mu, rel=1e-8)
        assert got.variance == pytest.approx(np.full(3, max(var, 0.0)),
                                             rel=1e-8, abs=1e-10)
    _report("P2 conditional-gaussian-oracle",
            f"50 instances, max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# P3 - streaming equals batch refits


def test_p3_recursive_batch_equivalence():
    rng = np.random.default_rng(303)
    worst_pred, worst_res = 0.0, 0.0
    for _ in range(8):
        num_nodes = int(rng.integers(1, 4))
        n_l = int(rng.integers(3, 7))
        n_u = int(rng.integers(0, 5))
        dim = 4
        pool = make_set(rng, n_l + n_u, num_nodes, dim)
        positions = rng.uniform(0.0, 5.0, (n_l, 3))
        hp = kn.Hyperparameters(eps=rng.uniform(1.0, 6.0, num_nodes),
                                sigma2=float(rng.uniform(0.05, 0.3)), jitter=1e-9)
        stream = make_set(rng, int(rng.integers(1, 11)), num_nodes, dim)

        model = mm.fit(pool, positions, hp)
        absorbed = []
        for sample in stream:
            got = model.predict_recursive(sample)
            absorbed.append(sample)
            batch = mm.fit(np.concatenate([pool, absorbed]), positions, hp).predict(sample)
            rel = float(np.max(np.abs(got.position - batch.position)
                               / np.maximum(np.abs(batch.position), 1e-12)))
            worst_pred = max(worst_pred, rel)
            assert got.position == pytest.approx(batch.position, rel=1e-8)
            assert got.variance == pytest.approx(batch.variance, rel=1e-8, abs=1e-12)
        residual = model.conditioning_residual()
        worst_res = max(worst_res, residual)
        assert residual <= 1e-8
    _report("P3 recursive-batch-equivalence",
            f"8 streams (up to 10), max pred rel err {worst_pred:.2e}, "
            f"max conditioning residual {worst_res:.2e}")


# ---------------------------------------------------------------------------
# P4 - analytic likelihood gradients match finite differences


def _fd_log_derivative(f, x0: float):
    """d f / d log x at x0 by Richardson-combined central differences.

    Returns ``(value, trusted)``; ``trusted`` means the two step sizes agree
    closely enough for the estimate to serve as a 1e-6-accurate oracle.
    Float64 cancellation makes plain differences unreliable when the
    derivative is tiny next to f itself, so untrusted cases must be skipped
    rather than compared.
    """
    out = []
    for delta in (1e-4, 5e-5):
        hi, lo = f(x0 * math.exp(delta)), f(x0 * math.exp(-delta))
        out.append((hi - lo) / (2 * delta))
    richardson = (4 * out[1] - out[0]) / 3
    trusted = abs(out[0] - out[1]) <= max(1e-6 * abs(richardson), 1e-13)
    return richardson, trusted


def test_p4_gradient_checks():
    rng = np.random.default_rng(404)
    decades = [(-0.6, 0.5), (0.5, 1.5), (1.5, 2.6)]
    eps_seen = []
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 50 and attempts < 1000:
        attempts += 1
        num_nodes = int(rng.integers(1, 4))
        n_l = int(rng.integers(3, 8))
        n_u = int(rng.integers(0, 6))
        positions = rng.uniform(0.0, 5.0, (n_l, 3))
        # instances cycle through three width decades; the feature scale
        # tracks the width so squared distances stay comparable to eps and
        # the likelihood keeps a finite-difference-resolvable slope
        eps = 10.0 ** rng.uniform(*decades[attempts % 3], num_nodes)
        m = int(rng.integers(1, num_nodes + 1))
        scale = math.sqrt(eps[m - 1] / 16.0)
        pool = make_set(rng, n_l + n_u, num_nodes, 4)
        pool *= scale
        hp = kn.Hyperparameters(eps=eps, sigma2=float(rng.uniform(0.05, 0.5)))

        def of_eps(e, hp=hp, pool=pool, positions=positions, m=m):
            eps2 = hp.eps.copy()
            eps2[m - 1] = e
            return log_likelihood_and_grad(
                kn.Hyperparameters(eps=eps2, sigma2=hp.sigma2), pool, positions)[0]

        def of_sig(s, hp=hp, pool=pool, positions=positions):
            return log_likelihood_and_grad(
                kn.Hyperparameters(eps=hp.eps, sigma2=s), pool, positions)[0]

        # both derivatives are compared in log-parameter space: d/d log x
        # = x * d/dx, which keeps the difference quotient well scaled
        fd, ok = _fd_log_derivative(of_eps, hp.eps[m - 1])
        fd_sig, ok_sig = _fd_log_derivative(of_sig, hp.sigma2)
        if not (ok and ok_sig):
            continue
        _, g_eps, g_sig = log_likelihood_and_grad(hp, pool, positions)
        analytic = g_eps[m - 1] * hp.eps[m - 1]
        rel = abs(analytic - fd) / abs(fd)
        worst = max(worst, rel)
        assert rel <= 1e-5

        g_sig = g_sig * hp.sigma2
        rel_sig = abs(g_sig - fd_sig) / abs(fd_sig)
        worst = max(worst, rel_sig)
        assert rel_sig <= 1e-5
        eps_seen.append(eps[m - 1])
        checked += 1
    assert checked >= 50
    span = max(eps_seen) / min(eps_seen)
    assert span >= 1e3  # the checked widths really cover three decades
    _report("P4 gradient-checks",
            f"{checked} instances ({attempts} drawn), eps span {span:.1e}, "
            f"max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# P5 - feature fidelity on a simulated node


def test_p5a_rtf_fidelity():
    scene = ac.SceneConfig(room_dims=[4.0, 5.0, 3.0],
                           mic_positions=[[[1.2, 1.0, 1.4], [1.2, 1.1, 1.4]]],
                           t60=0.3, snr_db=20.0, sample_rate=16000.0)
    src = [1.2, 1.5, 1.4]
    # long windows resolve the channel's ~7 Hz coherence bandwidth, and the
    # nearby source keeps every bin above the measurement-noise floor
    cfg = rf.SpectralConfig(window_length_s=1.024, fft_size=16384)
    sig = ac.white_noise_signal(10.0, scene.sample_rate,
                                np.random.default_rng((17, 0)))
    rec = ac.render_measurement(scene, src, sig, seed=(18, 0))
    v = rf.artf_from_record(rec, cfg).stack()[0]
    mics = scene.flat_mics()
    truth = true_transfer_ratio(ac.simulate_rir(scene, src, mics[0]),
                                ac.simulate_rir(scene, src, mics[1]), cfg)
    rel = np.abs(v - truth) / np.abs(truth)
    frac = float(np.mean(rel <= 0.10))
    assert frac >= 0.90
    _report("P5a rtf-fidelity",
            f"{100 * frac:.1f}% of {rel.size} band bins within 10% at SNR 20")


@pytest.mark.xfail(
    reason="200-2500 Hz on a 2048-bin grid at 16 kHz holds 295 bins; the "
           "targeted count of 286 is not reachable from the stated settings",
    strict=True)
def test_p5b_band_bin_count_target():
    cfg = rf.SpectralConfig()
    assert rf.band_bins(cfg).size == 286


# ---------------------------------------------------------------------------
# P6/P7/P8 - desk-scale simulation study


def desk_config():
    return {
        "seed": 3,
        "method": "mmgp",
        "scene": {
            "room_dims": [4.0, 5.0, 3.0],
            "mic_positions": [[[0.5, 1.0, 1.5], [0.5, 1.2, 1.5]],
                              [[3.5, 2.5, 1.5], [3.5, 2.7, 1.5]],
                              [[1.8, 4.5, 1.5], [2.0, 4.5, 1.5]]],
            "t60": 0.4,
            "snr_db": 20.0,
            "sample_rate": 16000.0,
        },
        "labeled": {"grid": {"origin": [1.25, 1.75, 1.5], "spacing": 0.5,
                             "counts": [4, 4, 1]},
                    "signal": {"kind": "wgn", "duration_s": 2.0}},
        "unlabeled": {"random": {"low": [1.25, 1.75, 1.5],
                                 "high": [2.75, 3.25, 1.5], "count": 40},
                      "signal": {"kind": "wgn", "duration_s": 2.0}},
        "test": {"loop": {"center": [2.0, 2.5, 1.5], "radius": 0.6,
                          "count": 30, "jitter": 0.05},
                 "signal": {"kind": "wgn", "duration_s": 2.0}},
        "hyperparameters": "learn",
        "srp": {"grid_min": [1.25, 1.75, 1.5], "grid_max": [2.75, 3.25, 1.5],
                "resolution": 0.25},
    }


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """The full pinned-seed experiment: 16 labeled, 40 unlabeled, 30 test."""
    root = tmp_path_factory.mktemp("desk")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(desk_config()))
    t0 = time.perf_counter()
    cfg = cli.resolve_config(cfg_path)
    ds = root / "ds"
    cli.cmd_simulate(cfg, ds)
    cli.cmd_features(ds)
    model_path = root / "model.bin"
    cli.cmd_fit(cfg, ds, model_path)

    out = {"root": root, "cfg": cfg, "ds": ds, "model_path": model_path}
    est = root / "est_mmgp.csv"
    cli.cmd_localize(model_path, ds, est, streaming=False)
    out["mmgp"] = cli.cmd_evaluate(est, ds, root / "metrics_mmgp.csv")
    est = root / "est_stream.csv"
    cli.cmd_localize(model_path, ds, est, streaming=True)
    out["stream"] = cli.cmd_evaluate(est, ds, root / "metrics_stream.csv")
    for method, tag in (("mean", "mean"), ("kernel-product", "kp"),
                        ("srp-phat", "srp")):
        est = root / f"est_{tag}.csv"
        cli.cmd_baseline(cfg, method, ds, est, model_path=model_path)
        out[tag] = cli.cmd_evaluate(est, ds, root / f"metrics_{tag}.csv")
    out["elapsed"] = time.perf_counter() - t0
    out["hp"] = mm.load_model(model_path).hyperparameters
    return out


def test_p6_desk_scale_end_to_end(desk):
    rmse = desk["mmgp"]["rmse"]
    rmse_mean = desk["mean"]["rmse"]
    rmse_kp = desk["kp"]["rmse"]
    assert rmse <= 0.5  # within the labeled grid spacing
    assert rmse <= 1.05 * rmse_mean
    assert rmse <= 1.05 * rmse_kp
    assert desk["elapsed"] < 300.0
    _report("P6 desk-scale-end-to-end",
            f"rmse mmgp={rmse:.3f} m vs mean={rmse_mean:.3f}, "
            f"kernel-product={rmse_kp:.3f}, srp-phat={desk['srp']['rmse']:.3f}; "
            f"pipeline {desk['elapsed']:.0f} s")


def test_p7_streaming_improvement_trend(desk):
    errors = desk["stream"]["errors"]
    assert errors.size == 30
    blocks = [float(np.mean(errors[b:b + 5])) for b in range(0, 30, 5)]
    assert blocks[-1] <= 1.10 * blocks[0]
    assert desk["stream"]["rmse"] < desk["mmgp"]["rmse"]
    _report("P7 streaming-improvement-trend",
            f"block means first={blocks[0]:.3f} m last={blocks[-1]:.3f} m, "
            f"stream rmse {desk['stream']['rmse']:.3f} < batch {desk['mmgp']['rmse']:.3f}")


def _desk_pool_and_scorer(desk):
    """The desk training pool, labelled rows first, its positions, and
    ``rmse_for(hp, pool)``: the test-set RMSE of a fit on ``pool``."""
    manifest = dio.load_manifest(desk["ds"])
    pool, positions = cli._load_pool(manifest)
    entries = cli._test_entries(manifest)
    tests = [dio.read_record_features(manifest, r) for r in entries]
    evaluation = dio.load_manifest(desk["ds"] / dio.EVALUATION_NAME)
    truth = {r["id"]: np.asarray(r["true_position"])
             for r in evaluation["records"] if r["true_position"] is not None}

    def rmse_for(hp, pool=pool):
        model = mm.fit(pool, positions, hp)
        errs = [np.linalg.norm(model.predict(t).position - truth[e["id"]])
                for t, e in zip(tests, entries)]
        return float(np.sqrt(np.mean(np.square(errs))))

    return pool, positions, rmse_for


def test_p8_width_sweep_consistency(desk):
    eps_ml = desk["hp"].eps
    sig_ml = desk["hp"].sigma2
    pool, positions, rmse_for = _desk_pool_and_scorer(desk)

    sweep = np.logspace(1.0, 5.0, 50)
    likelihoods, rmses = [], []
    for e1 in sweep:
        hp = kn.Hyperparameters(eps=[e1, eps_ml[1], eps_ml[2]], sigma2=sig_ml)
        likelihoods.append(log_likelihood_and_grad(hp, pool, positions)[0])
        rmses.append(rmse_for(hp))
    likelihoods = np.asarray(likelihoods)
    rmses = np.asarray(rmses)

    nearest = int(np.argmin(np.abs(np.log(sweep) - np.log(eps_ml[0]))))
    decile = float(np.quantile(likelihoods, 0.9))
    assert likelihoods[nearest] >= decile

    rmse_ml = rmse_for(kn.Hyperparameters(eps=eps_ml, sigma2=sig_ml))
    assert rmse_ml <= 1.15 * float(rmses.min())
    _report("P8 width-sweep-consistency",
            f"learned eps_1={eps_ml[0]:.0f} sits in the sweep's top decile "
            f"(L={likelihoods[nearest]:.2f} >= {decile:.2f}); "
            f"rmse {rmse_ml:.3f} vs sweep best {rmses.min():.3f}")


def test_p6_ml_learning_converges(desk):
    # the fit stage's ML learning converges on the desk pool, and re-running
    # it reproduces the hyperparameters the model file holds
    manifest = dio.load_manifest(desk["ds"])
    pool, positions = cli._load_pool(manifest)
    result = ho.optimize(pool, positions)
    iterations = len(result.trace) - 1
    assert result.converged and result.warning is None
    assert iterations < ho._MAX_ITERS
    np.testing.assert_array_equal(result.hyperparameters.eps, desk["hp"].eps)
    assert result.hyperparameters.sigma2 == desk["hp"].sigma2
    _report("P6 ml-learning-converges",
            f"{iterations} iterations, L={result.log_likelihood:.3f}, "
            f"sigma2={result.hyperparameters.sigma2:.2e}")


# ---------------------------------------------------------------------------
# The semi-supervised gain: the unlabelled rows help


def test_unlabelled_pool_improves_on_the_labelled_rows_alone(desk):
    # the paper's premise: a few labelled measurements plus many unlabelled
    # ones localize better than the labelled ones alone.  ML re-learned and
    # fit on the labelled rows plus the first n_u unlabelled rows; the
    # fixture's full pool measured 0.73 times the labelled-only RMSE
    pool, positions, rmse_for = _desk_pool_and_scorer(desk)
    n_l = positions.shape[0]
    curve = {}
    for n_u in (0, 5, 10, 20, 30, pool.shape[0] - n_l):
        rows = pool[:n_l + n_u]
        curve[n_u] = rmse_for(ho.optimize(rows, positions).hyperparameters, rows)
    assert desk["mmgp"]["rmse"] <= 0.9 * curve[0]
    _report("semi-supervised-gain",
            "rmse by unlabelled rows " + ", ".join(f"{n}: {r:.4f}" for n, r in curve.items())
            + f"; full pool {desk['mmgp']['rmse']:.4f} m = "
            f"{desk['mmgp']['rmse'] / curve[0]:.2f} of labelled-only")
