"""Baseline localizer tests.

The GP baselines are checked against explicitly constructed per-node
models and a dense conditional-Gaussian oracle; SRP-PHAT against
synthetic free-field scenes with known geometry.
"""

import warnings

import numpy as np
import pytest
from conftest import make_artf, make_set, reference_averaged_gcc

import mmgploc.acoustic_sim as sim
import mmgploc.baselines as bl
import mmgploc.kernels as kn
import mmgploc.mmgp_model as mm


def features_and_labels(rng, n_l, n_u, num_nodes, dim, c=3):
    pool = make_set(rng, n_l + n_u, num_nodes, dim)
    positions = rng.uniform(0.0, 5.0, (n_l, c))
    return pool, positions


# ---------------------------------------------------------------------------
# mean of nodes


def test_mean_of_nodes_single_node_equals_main_model():
    rng = np.random.default_rng(5)
    pool, positions = features_and_labels(rng, 5, 4, 1, 6)
    hp = kn.Hyperparameters(eps=[3.0], sigma2=0.1)
    test = make_artf(rng, 1, 6)
    got = bl.fit_mean_of_nodes(pool, positions, hp).predict(test)
    want = mm.fit(pool, positions, hp).predict(test)
    np.testing.assert_array_equal(got.position, want.position)


def test_mean_of_nodes_identical_features_equal_single_node():
    rng = np.random.default_rng(7)
    single = make_set(rng, 8, 1, 5)
    pool = np.repeat(single, 3, axis=1)
    positions = rng.uniform(0.0, 4.0, (5, 3))
    probe = make_artf(rng, 1, 5)
    probe3 = np.repeat(probe, 3, axis=0)
    hp3 = kn.Hyperparameters(eps=[2.5, 2.5, 2.5], sigma2=0.2)
    hp1 = kn.Hyperparameters(eps=[2.5], sigma2=0.2)
    got = bl.fit_mean_of_nodes(pool, positions, hp3).predict(probe3).position
    want = mm.fit(single, positions, hp1).predict(probe).position
    assert got == pytest.approx(want, rel=1e-12)


def test_mean_of_nodes_two_nodes_explicit_average():
    rng = np.random.default_rng(11)
    pool, positions = features_and_labels(rng, 6, 3, 2, 4)
    hp = kn.Hyperparameters(eps=[2.0, 5.0], sigma2=0.15)
    test = make_artf(rng, 2, 4)
    parts = []
    for m in range(2):
        node_hp = kn.Hyperparameters(eps=[hp.eps[m]], sigma2=hp.sigma2)
        parts.append(mm.fit(pool[:, m:m + 1, :], positions, node_hp)
                     .predict(test[m:m + 1]).position)
    want = 0.5 * (parts[0] + parts[1])
    got = bl.fit_mean_of_nodes(pool, positions, hp).predict(test).position
    assert got == pytest.approx(want, rel=1e-12)


def test_mean_of_nodes_shape_errors():
    rng = np.random.default_rng(13)
    pool, positions = features_and_labels(rng, 4, 2, 2, 4)
    hp = kn.Hyperparameters(eps=[1.0], sigma2=0.1)
    with pytest.raises(ValueError, match="M="):
        bl.fit_mean_of_nodes(pool, positions, hp)


# ---------------------------------------------------------------------------
# product-kernel GP


def test_product_gram_equal_widths_matches_concatenated_kernel():
    rng = np.random.default_rng(17)
    for _ in range(5):
        num_nodes = int(rng.integers(2, 5))
        samples = make_set(rng, 7, num_nodes, 4)
        eps = float(rng.uniform(1.0, 6.0))
        hp = kn.Hyperparameters(eps=[eps] * num_nodes, sigma2=0.1)
        got = bl.product_gram(samples, None, hp)
        concat = samples.reshape(len(samples), 1, -1)
        want = kn.gram_stack(concat, None, kn.Hyperparameters(eps=[eps], sigma2=0.1)).summed
        assert np.max(np.abs(got - want)) <= 1e-12


def test_kernel_product_single_node_is_plain_gaussian_gp():
    rng = np.random.default_rng(19)
    pool, positions = features_and_labels(rng, 6, 0, 1, 5)
    hp = kn.Hyperparameters(eps=[2.0], sigma2=0.1, jitter=1e-9)
    test = make_artf(rng, 1, 5)
    model = bl.fit_kernel_product(pool, positions, hp)
    feats = pool.reshape(len(pool), -1)
    probe = test.ravel()
    def kern(a, b):
        return np.exp(-np.sum(np.abs(a - b) ** 2) / 2.0)

    gram = np.array([[kern(a, b) for b in feats] for a in feats])
    k = np.array([kern(probe, b) for b in feats])
    a = gram + (hp.sigma2 + 1e-9) * np.eye(6)
    mean = positions.mean(axis=0)
    want = k @ np.linalg.solve(a, positions - mean) + mean
    got = model.predict(test)
    assert got.position == pytest.approx(want, rel=1e-10)
    want_var = 1.0 - k @ np.linalg.solve(a, k)
    assert got.variance == pytest.approx(np.full(3, want_var), rel=1e-8)


def test_kernel_product_matches_conditional_oracle():
    rng = np.random.default_rng(23)
    for _ in range(6):
        num_nodes = int(rng.integers(1, 4))
        n_l = int(rng.integers(3, 8))
        pool, positions = features_and_labels(rng, n_l, 0, num_nodes, 4)
        hp = kn.Hyperparameters(eps=rng.uniform(1.0, 5.0, num_nodes),
                                sigma2=float(rng.uniform(0.05, 0.3)), jitter=0.0)
        test = make_artf(rng, num_nodes, 4)
        joint = np.concatenate([pool, test[None]])
        gram = bl.product_gram(joint, None, hp)
        a = gram[:n_l, :n_l] + hp.sigma2 * np.eye(n_l)
        k = gram[:n_l, n_l]
        mean = positions.mean(axis=0)
        want = k @ np.linalg.solve(a, positions - mean) + mean
        got = bl.fit_kernel_product(pool, positions, hp).predict(test).position
        assert got == pytest.approx(want, rel=1e-8)


def test_kernel_product_ignores_unlabelled_samples():
    rng = np.random.default_rng(29)
    pool, positions = features_and_labels(rng, 5, 0, 2, 4)
    extra = np.concatenate([pool, make_set(rng, 4, 2, 4)])
    hp = kn.Hyperparameters(eps=[2.0, 3.0], sigma2=0.1)
    test = make_artf(rng, 2, 4)
    a = bl.fit_kernel_product(pool, positions, hp).predict(test).position
    b = bl.fit_kernel_product(extra, positions, hp).predict(test).position
    np.testing.assert_array_equal(a, b)


def test_kernel_product_auto_jitter_reuses_trace_rule():
    rng = np.random.default_rng(31)
    pool, positions = features_and_labels(rng, 5, 0, 2, 4)
    hp = kn.Hyperparameters(eps=[2.0, 3.0], sigma2=0.1)
    model = bl.fit_kernel_product(pool, positions, hp)
    gram = bl.product_gram(pool, None, hp)
    assert model.jitter_used == pytest.approx(1e-8 * np.trace(gram) / 5, rel=1e-12)


# ---------------------------------------------------------------------------
# SRP-PHAT


def free_field_signals(rng, source, mics, fs=16000.0, c=343.0, duration=1.0):
    """Unit-amplitude white noise delayed by the true integer-rounded taps."""
    n = int(round(duration * fs))
    x = rng.standard_normal(n)
    out = np.zeros((len(mics), n))
    for k, mic in enumerate(mics):
        tap = int(np.floor(np.linalg.norm(source - mic) * fs / c + 0.5))
        out[k, tap:] = x[:n - tap]
    return out


def room_mics():
    return np.array([
        [0.8, 0.9, 1.2], [0.8, 1.1, 1.2],
        [3.1, 3.9, 1.6], [3.1, 4.1, 1.6],
        [0.9, 3.8, 1.1], [0.9, 4.0, 1.1],
    ])


def test_srp_phat_recovers_grid_point_free_field():
    rng = np.random.default_rng(37)
    mics = room_mics()
    cfg = bl.SrpConfig(mic_positions=mics,
                       grid_min=[1.0, 1.0, 1.0], grid_max=[3.0, 4.0, 2.0],
                       resolution=0.5)
    source = np.array([2.0, 2.5, 1.5])
    signals = free_field_signals(rng, source, mics)
    got = bl.srp_phat(signals, cfg)
    np.testing.assert_allclose(got, source, atol=1e-12)


def test_srp_phat_simulated_anechoic_scene():
    scene = sim.SceneConfig(
        room_dims=(4.0, 5.0, 3.0),
        mic_positions=room_mics().reshape(3, 2, 3),
        t60=0.0, snr_db=float("inf"), sample_rate=16000.0)
    record = sim.render_measurement(scene, [2.0, 2.5, 1.5],
                                    sim.make_signal("wgn", 1.0, 41, 0, scene.sample_rate),
                                    seed=(41, 0, 1))
    cfg = bl.SrpConfig(mic_positions=scene.flat_mics(),
                       grid_min=[1.0, 1.0, 1.0], grid_max=[3.0, 4.0, 2.0],
                       resolution=0.5)
    got = bl.srp_phat(record.signals, cfg)
    np.testing.assert_allclose(got, [2.0, 2.5, 1.5], atol=1e-12)


def test_srp_phat_tie_breaks_to_lowest_index():
    rng = np.random.default_rng(43)
    mics = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
    # both candidates are mirror images across the pair axis, so every
    # pairwise delay matches exactly and the response values tie bitwise
    cfg = bl.SrpConfig(mic_positions=mics,
                       grid_min=[0.5, 1.5, 1.0], grid_max=[1.5, 1.5, 1.0],
                       resolution=1.0)
    assert bl.grid_points(cfg).shape == (2, 3)
    source = np.array([1.0, 1.5, 1.0])
    signals = free_field_signals(rng, source, mics)
    got = bl.srp_phat(signals, cfg)
    np.testing.assert_array_equal(got, [0.5, 1.5, 1.0])


def test_srp_phat_single_point_grid():
    rng = np.random.default_rng(47)
    mics = room_mics()[:2]
    cfg = bl.SrpConfig(mic_positions=mics,
                       grid_min=[2.0, 2.0, 1.5], grid_max=[2.0, 2.0, 1.5],
                       resolution=0.3)
    signals = free_field_signals(rng, np.array([1.0, 3.0, 1.0]), mics)
    np.testing.assert_array_equal(bl.srp_phat(signals, cfg), [2.0, 2.0, 1.5])


def test_srp_phat_gain_invariance():
    rng = np.random.default_rng(53)
    mics = room_mics()
    cfg = bl.SrpConfig(mic_positions=mics,
                       grid_min=[1.0, 1.0, 1.0], grid_max=[3.0, 4.0, 2.0],
                       resolution=0.5)
    signals = free_field_signals(rng, np.array([1.5, 3.5, 1.5]), mics)
    base = bl.srp_phat(signals, cfg)
    np.testing.assert_array_equal(bl.srp_phat(8.0 * signals, cfg), base)
    np.testing.assert_array_equal(bl.srp_phat(3.7 * signals, cfg), base)


def test_srp_phat_silent_record_errors():
    cfg = bl.SrpConfig(mic_positions=room_mics()[:2],
                       grid_min=[1.0, 1.0, 1.0], grid_max=[2.0, 2.0, 2.0],
                       resolution=0.5)
    with pytest.raises(ValueError, match="silent"):
        bl.srp_phat(np.zeros((2, 8000)), cfg)


def test_srp_phat_at_another_rate():
    rng = np.random.default_rng(61)
    mics = room_mics()
    signals = free_field_signals(rng, np.array([2.0, 2.5, 1.5]), mics, fs=8000.0)
    at_8k = bl.SrpConfig(mic_positions=mics, grid_min=[1.0, 1.0, 1.0], grid_max=[3.0, 4.0, 2.0],
                         resolution=0.5, sample_rate=8000.0)
    np.testing.assert_allclose(bl.srp_phat(signals, at_8k), [2.0, 2.5, 1.5], atol=1e-12)


def test_srp_phat_short_signal_is_padded():
    rng = np.random.default_rng(59)
    mics = room_mics()
    cfg = bl.SrpConfig(mic_positions=mics,
                       grid_min=[1.0, 1.0, 1.0], grid_max=[3.0, 4.0, 2.0],
                       resolution=0.5)
    signals = free_field_signals(rng, np.array([2.5, 3.0, 1.5]), mics,
                                 duration=0.1)  # shorter than one frame
    got = bl.srp_phat(signals, cfg)
    np.testing.assert_allclose(got, [2.5, 3.0, 1.5], atol=1e-12)


def room_grid():
    return bl.SrpConfig(mic_positions=room_mics(),
                        grid_min=[1.0, 1.0, 1.0], grid_max=[3.0, 4.0, 2.0],
                        resolution=0.5)


def gcc_scenes():
    """Free-field scenes (one shorter than a frame) and a reverberant, noisy record."""
    rng = np.random.default_rng(67)
    mics = room_mics()
    scenes = [free_field_signals(rng, np.array(source), mics, duration=duration)
              for source, duration in (([2.0, 2.5, 1.5], 1.0), ([1.5, 3.5, 1.5], 2.0),
                                       ([2.5, 3.0, 1.5], 0.1))]
    scene = sim.SceneConfig(room_dims=(4.0, 5.0, 3.0), mic_positions=mics.reshape(3, 2, 3),
                            t60=0.4, snr_db=20.0, sample_rate=16000.0)
    record = sim.render_measurement(scene, [1.5, 3.0, 1.4],
                                    sim.make_signal("wgn", 2.0, 71, 0, scene.sample_rate),
                                    seed=(71, 0, 1))
    return scenes + [record.signals]


def assert_gcc_near_oracle(got, want):
    # summing the spectra before one inverse FFT reorders the additions;
    # the measured difference is 5.3e-16 of the peak at most
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_averaged_gcc_matches_the_per_frame_oracle(monkeypatch):
    cfg = room_grid()
    scenes = gcc_scenes()
    for signals in scenes:
        got, pairs = bl._averaged_gcc(signals, cfg)
        want, want_pairs = reference_averaged_gcc(signals, cfg)
        assert pairs == want_pairs
        assert_gcc_near_oracle(got, want)
    estimates = [bl.srp_phat(signals, cfg) for signals in scenes]
    monkeypatch.setattr(bl, "_averaged_gcc", reference_averaged_gcc)
    for signals, estimate in zip(scenes, estimates):
        np.testing.assert_array_equal(bl.srp_phat(signals, cfg), estimate)


def test_averaged_gcc_pairs_with_a_silent_channel_are_zero():
    rng = np.random.default_rng(73)
    cfg = room_grid()
    signals = free_field_signals(rng, np.array([2.0, 2.5, 1.5]), room_mics())
    signals[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, pairs = bl._averaged_gcc(signals, cfg)
        bl.srp_phat(signals, cfg)
    want, _ = reference_averaged_gcc(signals, cfg)
    silent = [p for p, pair in enumerate(pairs) if 2 in pair]
    assert len(silent) == 5
    assert not np.any(got[silent]) and not np.any(want[silent])
    assert_gcc_near_oracle(got, want)


def test_srp_phat_rejects_non_finite_samples():
    rng = np.random.default_rng(79)
    mics = room_mics()[:2]
    cfg = bl.SrpConfig(mic_positions=mics, grid_min=[0.5, 0.5, 1.0],
                       grid_max=[1.5, 1.5, 1.0], resolution=0.5)
    signals = free_field_signals(rng, np.array([1.0, 1.5, 1.0]), mics)
    for bad in (np.nan, np.inf, -np.inf):
        corrupt = signals.copy()
        corrupt[1, 100] = bad
        with pytest.raises(ValueError, match="non-finite samples in record"):
            bl.srp_phat(corrupt, cfg)


def test_srp_config_validation():
    mics = room_mics()[:2]
    good = dict(mic_positions=mics, grid_min=[0.0, 0.0, 0.0],
                grid_max=[1.0, 1.0, 1.0], resolution=0.5)
    bl.SrpConfig(**good)
    with pytest.raises(ValueError, match="resolution"):
        bl.SrpConfig(**{**good, "resolution": 0.0})
    with pytest.raises(ValueError, match="grid_max"):
        bl.SrpConfig(**{**good, "grid_max": [-1.0, 1.0, 1.0]})
    with pytest.raises(ValueError, match="two channels"):
        bl.SrpConfig(**{**good, "mic_positions": mics[:1]})
    with pytest.raises(ValueError, match="Nyquist"):
        bl.SrpConfig(**{**good, "band_high_hz": 9000.0})
    with pytest.raises(ValueError, match="channels"):
        bl.srp_phat(np.ones((3, 8000)), bl.SrpConfig(**good))


def test_grid_points_layout():
    cfg = bl.SrpConfig(mic_positions=room_mics()[:2],
                       grid_min=[0.0, 0.0, 0.0], grid_max=[1.0, 0.5, 0.0],
                       resolution=0.5)
    pts = bl.grid_points(cfg)
    want = [[0.0, 0.0, 0.0], [0.0, 0.5, 0.0],
            [0.5, 0.0, 0.0], [0.5, 0.5, 0.0],
            [1.0, 0.0, 0.0], [1.0, 0.5, 0.0]]
    np.testing.assert_allclose(pts, want)
