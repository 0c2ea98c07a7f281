"""Localization model tests.

predict is checked against a joint-Gaussian conditioning oracle built from
the brute-force covariance; the streaming path is checked against full
refits (the keystone equivalence) and the conditioning residual directly.
"""

import copy
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import (ArrayPoolModel, conditional_gaussian_oracle, make_artf, make_set,
                      reference_predict, reference_update_recursive)
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgploc import acoustic_sim as sim
from mmgploc import baselines as bl
from mmgploc import cli
from mmgploc import hyperopt as ho
from mmgploc import kernels as kn
from mmgploc import mmgp_model as mm
from mmgploc import rtf_features as rf


def fitted(rng, n_l=5, n_u=6, num_nodes=2, dim=4, sigma2=0.05, jitter=1e-10, c=2):
    pool = make_set(rng, n_l + n_u, num_nodes, dim)
    positions = rng.uniform(0.5, 4.0, (n_l, c))
    hp = kn.Hyperparameters(eps=rng.uniform(1.0, 8.0, num_nodes),
                            sigma2=sigma2, jitter=jitter)
    return mm.fit(pool, positions, hp), pool, positions, hp


def test_fit_explicit_inverse_is_consistent():
    rng = np.random.default_rng(3)
    model, pool, positions, hp = fitted(rng)
    assert model.conditioning_residual() < 1e-10
    np.testing.assert_array_equal(model.gamma, model.gamma.T)
    n_l = model.n_labeled
    direct = np.linalg.inv(model.sigma_l + (hp.sigma2 + model.jitter_used) * np.eye(n_l))
    np.testing.assert_allclose(model.gamma, direct, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(model.weights, model.gamma @ model.centered, atol=0)


def test_single_label_predicts_its_position():
    rng = np.random.default_rng(7)
    pool = make_set(rng, 4, 2, 5)
    hp = kn.Hyperparameters(eps=[2.0, 3.0], sigma2=0.3)
    pos = np.array([[1.7, 2.9]])
    model = mm.fit(pool, pos, hp)
    for _ in range(3):
        pred = model.predict(make_artf(rng, 2, 5))
        np.testing.assert_array_equal(pred.position, pos[0])
        assert np.all(pred.variance <= pred.prior_variance)


def test_huge_noise_shrinks_to_label_mean():
    rng = np.random.default_rng(11)
    model, pool, positions, hp = fitted(rng, sigma2=1e12)
    pred = model.predict(make_artf(rng, 2, 4))
    np.testing.assert_allclose(pred.position, positions.mean(axis=0), atol=1e-9)


def test_predict_matches_conditional_gaussian_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        num_nodes = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 6))
        n_l = int(rng.integers(2, 8))
        n_u = int(rng.integers(0, 8))
        pool = make_set(rng, n_l + n_u, num_nodes, dim)
        positions = rng.uniform(0.0, 5.0, (n_l, 3))
        hp = kn.Hyperparameters(eps=rng.uniform(0.8, 6.0, num_nodes),
                                sigma2=float(rng.uniform(0.01, 0.3)), jitter=0.0)
        model = mm.fit(pool, positions, hp)
        test = make_artf(rng, num_nodes, dim)
        pred = model.predict(test)
        mu, var, prior = conditional_gaussian_oracle(
            pool[:n_l], test, pool, hp, positions, hp.sigma2 + model.jitter_used)
        np.testing.assert_allclose(pred.position, mu, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(pred.variance, np.full(3, var), rtol=1e-8, atol=1e-10)
        assert pred.prior_variance == pytest.approx(prior, rel=1e-10)


def test_zero_noise_interpolates_labels():
    rng = np.random.default_rng(17)
    for _ in range(5):
        pool = make_set(rng, 8, 2, 5)
        positions = rng.uniform(0.0, 4.0, (5, 2))
        hp = kn.Hyperparameters(eps=rng.uniform(2.0, 6.0, 2), sigma2=0.0, jitter=0.0)
        model = mm.fit(pool, positions, hp)
        for j in range(5):
            pred = model.predict(pool[j])
            np.testing.assert_allclose(pred.position, positions[j], atol=1e-8)


def test_predict_is_stateless():
    rng = np.random.default_rng(19)
    model, *_ = fitted(rng)
    test = make_artf(rng, 2, 4)
    before = copy.deepcopy(model)
    a = model.predict(test)
    b = model.predict(test)
    np.testing.assert_array_equal(a.position, b.position)
    assert model.update_count == 0
    np.testing.assert_array_equal(before.pool, model.pool)
    np.testing.assert_array_equal(before.gamma, model.gamma)


def test_variance_bounds():
    rng = np.random.default_rng(23)
    model, *_ = fitted(rng, sigma2=0.1)
    for _ in range(20):
        pred = model.predict(make_artf(rng, 2, 4))
        assert np.all(pred.variance >= 0.0)
        assert np.all(pred.variance <= pred.prior_variance + 1e-12)


def test_update_with_distant_sample_is_identity_on_inverse():
    rng = np.random.default_rng(29)
    model, *_ = fitted(rng)
    gamma_before = model.gamma.copy()
    sigma_before = model.sigma_l.copy()
    far = make_artf(rng, 2, 4)
    far += 1e6  # pushes every kernel to exact underflow
    model.update_recursive(far)
    np.testing.assert_array_equal(model.gamma, gamma_before)
    np.testing.assert_array_equal(model.sigma_l, sigma_before)
    assert model.update_count == 1
    assert model.pool.shape[0] == 12


def test_residual_after_updates_stays_at_fit_level():
    # every update re-conditions on S_LD, so no inverse drift builds up
    rng = np.random.default_rng(31)
    model, *_ = fitted(rng)
    for _ in range(40):
        model.update_recursive(make_artf(rng, 2, 4))
    assert model.update_count == 40
    assert model.conditioning_residual() < 1e-10


def test_recursive_equals_batch_refit():
    rng = np.random.default_rng(37)
    for trial in range(6):
        num_nodes = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 5))
        n_l = int(rng.integers(2, 12))
        n_u = int(rng.integers(0, 12))
        pool = make_set(rng, n_l + n_u, num_nodes, dim)
        positions = rng.uniform(0.0, 5.0, (n_l, 2))
        hp = kn.Hyperparameters(eps=rng.uniform(1.0, 6.0, num_nodes),
                                sigma2=float(rng.uniform(0.01, 0.2)), jitter=1e-9)
        stream = make_set(rng, int(rng.integers(2, 7)), num_nodes, dim)

        model = mm.fit(pool, positions, hp)
        recursive = [model.predict_recursive(t) for t in stream]

        for i, t in enumerate(stream):
            batch = mm.fit(np.concatenate([pool, stream[: i + 1]]), positions, hp)
            ref = batch.predict(t)
            scale = max(1.0, np.abs(ref.position).max())
            assert np.abs(recursive[i].position - ref.position).max() / scale < 1e-10
            np.testing.assert_allclose(recursive[i].variance, ref.variance,
                                       rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(recursive[i].prior_variance, ref.prior_variance,
                                       rtol=1e-10)

        # absorption order must not matter for the final state
        perm = rng.permutation(len(stream))
        shuffled = mm.fit(pool, positions, hp)
        for j in perm:
            shuffled.update_recursive(stream[j])
        probe = make_artf(rng, num_nodes, dim)
        a, b = model.predict(probe), shuffled.predict(probe)
        np.testing.assert_allclose(a.position, b.position, rtol=1e-9, atol=1e-11)


# The cached S_LD's streamed columns come from the update's one-row Gram
# (a matrix-vector product) where the reference builds them in one
# matrix-matrix product, so streamed predictions agree to rounding only:
# at most 1.6e-15 relative in position and 7.4e-15 in variance over 20
# configurations x 300 updates.
_STREAM_RTOL = 1e-12


def test_predict_bits_match_two_covariance_formula(monkeypatch):
    rng = np.random.default_rng(61)
    model, *_ = fitted(rng, n_l=6, n_u=4, num_nodes=3, dim=5, c=3)
    for _ in range(110):
        model.update_recursive(make_artf(rng, 3, 5))
    assert model.pool.shape[0] == 120
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return kn.gram_stack(*args, **kwargs)

    monkeypatch.setattr(mm, "gram_stack", counting)
    for _ in range(5):
        t = make_artf(rng, 3, 5)
        calls.clear()
        got = model.predict(t)
        assert len(calls) == 1  # the test row against the pool; S_LD is cached
        want = reference_predict(model, t)
        np.testing.assert_allclose(got.position, want.position, rtol=_STREAM_RTOL, atol=0)
        np.testing.assert_allclose(got.variance, want.variance, rtol=_STREAM_RTOL, atol=0)
        assert got.prior_variance == want.prior_variance
    # a sample already in the pool
    t = model.pool[-1]
    np.testing.assert_allclose(model.predict(t).position, reference_predict(model, t).position,
                               rtol=_STREAM_RTOL, atol=0)


# A reloaded model rebuilds S_LD with one Gram where the live model streamed
# its columns, so their posteriors agree to rounding only: over 20
# configurations x 150 steps after a reload, gamma, sigma_l and weights
# differed by at most 4.8e-15 of their largest entry.
def _agree(model, twin, got, want, same_bits=True):
    np.testing.assert_allclose(got.position, want.position, rtol=_STREAM_RTOL, atol=0)
    np.testing.assert_allclose(got.variance, want.variance, rtol=_STREAM_RTOL, atol=0)
    assert got.prior_variance == want.prior_variance
    assert model.pool.tobytes() == twin.pool.tobytes()
    for name in ("gamma", "sigma_l", "weights"):
        a, b = getattr(model, name), getattr(twin, name)
        if same_bits:
            assert a.tobytes() == b.tobytes(), name
        else:
            assert np.abs(a - b).max() <= _STREAM_RTOL * np.abs(b).max(), name


def test_stream_bits_match_concatenating_reference(tmp_path):
    rng = np.random.default_rng(83)
    model, *_ = fitted(rng, n_l=3, n_u=2, num_nodes=3, dim=7, c=3)
    twin = ArrayPoolModel(model)
    resumed = None
    for step in range(320):  # 320 absorptions, each growing the 5-sample pool by one copy
        t = make_artf(rng, 3, 7)
        got = model.predict_recursive(t)
        reference_update_recursive(twin, t)
        _agree(model, twin, got, reference_predict(twin, t))
        assert model.pool.flags.c_contiguous and model.pool.shape[0] == 6 + step
        if resumed is not None:
            _agree(resumed, model, resumed.predict_recursive(t), got, same_bits=False)
        if step == 150:
            mm.save_model(model, tmp_path / "mid.bin")
            resumed = mm.load_model(tmp_path / "mid.bin")
            # a deep copy owns its pool: growing it leaves the original as it was
            clone = copy.deepcopy(model)
            pool, gamma = model.pool.tobytes(), model.gamma.tobytes()
            for _ in range(3):
                clone.update_recursive(make_artf(rng, 3, 7))
            assert model.pool.tobytes() == pool and model.gamma.tobytes() == gamma
            assert clone.pool.shape[0] == model.pool.shape[0] + 3
    assert resumed.update_count == model.update_count == 320


def test_cached_labelled_gram_matches_a_fresh_gram(tmp_path):
    rng = np.random.default_rng(97)
    model, *_ = fitted(rng, n_l=4, n_u=3, num_nodes=3, dim=6, c=3)
    hp = model.hyperparameters

    def fresh(m):
        return kn.gram_stack(m.labeled_features, m.pool, hp).summed

    # fit builds S_LD with one Gram and derives sigma_l from it
    assert model.labelled_gram.tobytes() == fresh(model).tobytes()
    assert not model.labelled_gram.flags.writeable
    assert model.sigma_l.tobytes() == kn.mmgp_covariance(
        model.labeled_features, None, model.pool, hp).tobytes()
    for _ in range(300):
        model.update_recursive(make_artf(rng, 3, 6))
    assert model.labelled_gram.shape == (4, 307)
    np.testing.assert_allclose(model.labelled_gram, fresh(model), rtol=1e-12, atol=0)

    mm.save_model(model, tmp_path / "model.bin")
    loaded = mm.load_model(tmp_path / "model.bin")
    assert loaded.labelled_gram.tobytes() == fresh(loaded).tobytes()
    np.testing.assert_allclose(loaded.labelled_gram, model.labelled_gram, rtol=1e-12, atol=0)

    twin = copy.deepcopy(model)
    kept = model.labelled_gram.tobytes()
    for _ in range(3):
        twin.update_recursive(make_artf(rng, 3, 6))
    assert model.labelled_gram.tobytes() == kept
    assert twin.labelled_gram.shape == (4, 310)
    np.testing.assert_allclose(twin.labelled_gram, fresh(twin), rtol=1e-12, atol=0)


def test_predict_recursive_is_update_then_predict():
    rng = np.random.default_rng(41)
    model, *_ = fitted(rng)
    twin = copy.deepcopy(model)
    t = make_artf(rng, 2, 4)
    combined = model.predict_recursive(t)
    twin.update_recursive(t)
    stepwise = twin.predict(t)
    np.testing.assert_array_equal(combined.position, stepwise.position)
    np.testing.assert_array_equal(combined.variance, stepwise.variance)
    assert model.update_count == twin.update_count == 1


def test_repeated_absorption_counts(monkeypatch):
    rng = np.random.default_rng(43)
    model, *_ = fitted(rng)
    t = make_artf(rng, 2, 4)
    n = model.pool.shape[0]
    model.predict_recursive(t)
    assert model.update_count == 1 and model.pool.shape[0] == n + 1
    want = model.predict(t)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return kn.gram_stack(*args, **kwargs)

    monkeypatch.setattr(mm, "gram_stack", counting)
    gamma = model.gamma.tobytes()
    repeat = model.predict_recursive(t)
    assert len(calls) == 1  # the pool already holds it: one test row, no update
    assert model.update_count == 1 and model.pool.shape[0] == n + 1
    assert model.gamma.tobytes() == gamma
    np.testing.assert_array_equal(repeat.position, want.position)
    np.testing.assert_array_equal(repeat.variance, want.variance)
    assert repeat.prior_variance == want.prior_variance


def test_near_duplicate_blocks_are_absorbed_once():
    # the desk room and labelled grid; one long recording per spot on the
    # test loop is cut into 1 s blocks hopping 0.25 s, so the blocks of a
    # spot differ only by excitation and sensor noise
    scene = sim.SceneConfig(
        room_dims=[4.0, 5.0, 3.0],
        mic_positions=[[[0.5, 1.0, 1.5], [0.5, 1.2, 1.5]], [[3.5, 2.5, 1.5], [3.5, 2.7, 1.5]],
                       [[1.8, 4.5, 1.5], [2.0, 4.5, 1.5]]],
        t60=0.4, snr_db=20.0, sample_rate=16000.0)
    cfg = rf.SpectralConfig(sample_rate=scene.sample_rate)
    fs, num_blocks = int(scene.sample_rate), 20

    def record(pos, seconds, seed):
        signal = sim.white_noise_signal(seconds, fs, np.random.default_rng(seed))
        return sim.render_measurement(scene, pos, signal, seed + (1,))

    grid = np.array([[1.25 + 0.5 * i, 1.75 + 0.5 * j, 1.5] for i in range(4) for j in range(4)])
    pool = np.stack([rf.artf_from_record(record(p, 2.0, (5, k)), cfg).stack()
                     for k, p in enumerate(grid)])
    model = mm.fit(pool, grid, ho.optimize(pool, grid).hyperparameters)
    errors = {"static": [], "gated": [], "every block": []}
    for s, spot in enumerate(cli.loop_positions([2.0, 2.5, 1.5], 0.6, 4, 0.05, 3003)):
        signals = record(spot, 1.0 + 0.25 * (num_blocks - 1), (5, 99, s)).signals
        blocks = [rf.artf_from_record(sim.MeasurementRecord(
            signals=signals[:, k * fs // 4:k * fs // 4 + fs], sample_rate=fs, num_nodes=3),
            cfg).stack() for k in range(num_blocks)]
        gated, ungated = copy.deepcopy(model), copy.deepcopy(model)
        for block in blocks:
            errors["static"].append(model.predict(block).position - spot)
            errors["gated"].append(gated.predict_recursive(block).position - spot)
            errors["every block"].append(ungated.update_recursive(block).predict(block).position
                                         - spot)
        assert gated.update_count == 1
        assert gated.pool.shape[0] == model.pool.shape[0] + 1
    rmse = {k: float(np.sqrt(np.mean(np.sum(np.square(e), axis=1)))) for k, e in errors.items()}
    assert rmse["gated"] <= rmse["static"]
    # absorbing every near-duplicate lets them swamp the fused covariance
    assert rmse["every block"] > rmse["static"]


def test_coordinate_permutation_decouples():
    rng = np.random.default_rng(53)
    pool = make_set(rng, 9, 2, 4)
    positions = rng.uniform(0.0, 5.0, (5, 3))
    hp = kn.Hyperparameters(eps=[2.0, 4.0], sigma2=0.05)
    perm = [2, 0, 1]
    a = mm.fit(pool, positions, hp)
    b = mm.fit(pool, positions[:, perm], hp)
    t = make_artf(rng, 2, 4)
    np.testing.assert_array_equal(a.predict(t).position[perm], b.predict(t).position)


def test_label_offset_shifts_estimates():
    rng = np.random.default_rng(59)
    pool = make_set(rng, 8, 2, 4)
    positions = rng.uniform(0.0, 5.0, (5, 2))
    hp = kn.Hyperparameters(eps=[2.0, 4.0], sigma2=0.05)
    offset = np.array([10.0, -3.0])
    a = mm.fit(pool, positions, hp)
    b = mm.fit(pool, positions + offset, hp)
    t = make_artf(rng, 2, 4)
    np.testing.assert_allclose(b.predict(t).position, a.predict(t).position + offset,
                               atol=1e-10)


def test_fit_validation_errors():
    rng = np.random.default_rng(61)
    pool = make_set(rng, 4, 2, 4)
    hp = kn.Hyperparameters(eps=[1.0, 1.0], sigma2=0.1)
    with pytest.raises(ValueError, match="finite"):
        mm.fit(pool, np.array([[np.nan, 1.0]]), hp)
    with pytest.raises(ValueError, match="n_L"):
        mm.fit(pool, np.zeros((5, 2)), hp)
    with pytest.raises(ValueError, match="hyperparameters"):
        mm.fit(pool, np.zeros((2, 2)), kn.Hyperparameters(eps=[1.0], sigma2=0.1))
    with pytest.raises(ValueError, match="one sample at a time"):
        mm.fit(pool, np.zeros((2, 2)), hp).predict(np.zeros((2, 2, 4), dtype=complex))


def test_labels_without_coordinates_are_rejected():
    # an empty label array, as a dataset without labelled records gives
    rng = np.random.default_rng(71)
    pool = make_set(rng, 4, 2, 4)
    hp = kn.Hyperparameters(eps=[1.0, 1.0], sigma2=0.1)
    for labels in (np.asarray([], dtype=float), np.zeros((2, 0))):
        with pytest.raises(ValueError, match="at least one coordinate"):
            mm.fit(pool, labels, hp)
        with pytest.raises(ValueError, match="at least one coordinate"):
            ho.log_likelihood_and_grad(hp, pool, labels)
        with pytest.raises(ValueError, match="at least one coordinate"):
            bl.fit_kernel_product(pool, labels, hp)


def test_fit_copies_the_callers_features():
    rng = np.random.default_rng(73)
    feats = make_set(rng, 7, 2, 4)
    hp = kn.Hyperparameters(eps=[2.0, 3.0], sigma2=0.05)
    model = mm.fit(feats, rng.uniform(0.0, 4.0, (4, 2)), hp)
    assert feats.flags.writeable and not np.shares_memory(feats, model.pool)
    t = make_artf(rng, 2, 4)
    before = model.predict(t)
    feats[:] = 0.0
    after = model.predict(t)
    assert after.position.tobytes() == before.position.tobytes()
    assert after.variance.tobytes() == before.variance.tobytes()

    # an update replaces the arrays: references taken before it keep their contents
    pool, s_ld = model.pool, model.labelled_gram
    kept = pool.tobytes(), s_ld.tobytes()
    model.update_recursive(make_artf(rng, 2, 4))
    assert (pool.tobytes(), s_ld.tobytes()) == kept
    assert model.pool.shape == (8, 2, 4) and model.labelled_gram.shape == (4, 8)
    assert not model.pool.flags.writeable and not model.labelled_gram.flags.writeable


def test_singular_covariance_reports_conditioning():
    rng = np.random.default_rng(67)
    base = make_artf(rng, 1, 4)
    pool = [base, base, base]  # identical features: exactly singular
    hp = kn.Hyperparameters(eps=[1.0], sigma2=0.0, jitter=0.0)
    with pytest.raises(ValueError, match="conditioning failure.*eigenvalue"):
        mm.fit(pool, np.zeros((3, 2)), hp)


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(71)
    model, *_ = fitted(rng, n_l=4, n_u=5, num_nodes=3, dim=6, c=3)
    model.update_recursive(make_artf(rng, 3, 6))
    path = tmp_path / "model.bin"
    mm.save_model(model, path)
    loaded = mm.load_model(path)
    assert loaded.n_labeled == model.n_labeled
    assert loaded.update_count == 1
    np.testing.assert_array_equal(loaded.pool, model.pool)
    np.testing.assert_array_equal(loaded.gamma, model.gamma)
    np.testing.assert_array_equal(loaded.positions, model.positions)
    np.testing.assert_array_equal(loaded.hyperparameters.eps, model.hyperparameters.eps)
    assert loaded.jitter_used == model.jitter_used
    t = make_artf(rng, 3, 6)
    a, b = model.predict(t), loaded.predict(t)
    np.testing.assert_array_equal(a.position, b.position)
    np.testing.assert_array_equal(a.variance, b.variance)
    # streaming continues identically after a reload
    np.testing.assert_array_equal(model.predict_recursive(t).position,
                                  loaded.predict_recursive(t).position)


def test_serialization_rejects_corrupt_files(tmp_path):
    rng = np.random.default_rng(73)
    model, *_ = fitted(rng, n_l=3, n_u=2)
    path = tmp_path / "model.bin"
    mm.save_model(model, path)
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        mm.load_model(bad_magic)
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        mm.load_model(truncated)
    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        mm.load_model(trailing)
    bad_version = tmp_path / "bad_version.bin"
    bad_version.write_bytes(raw[:4] + b"\x63\x00\x00\x00" + raw[8:])
    with pytest.raises(ValueError, match="version"):
        mm.load_model(bad_version)
    # version 1 stored the derived sigma_l, gamma and centered labels
    bad_version.write_bytes(raw[:4] + b"\x01\x00\x00\x00" + raw[8:])
    with pytest.raises(ValueError, match="unsupported model format version 1$"):
        mm.load_model(bad_version)


def test_load_rejects_non_finite_values(tmp_path):
    rng = np.random.default_rng(83)
    n_l, n_u, m, d, c = 3, 2, 2, 4, 2
    model, *_ = fitted(rng, n_l=n_l, n_u=n_u, num_nodes=m, dim=d, c=c)
    path = tmp_path / "model.bin"
    mm.save_model(model, path)
    raw = path.read_bytes()
    sizes = {"eps": m, "sigma2": 1, "jitter": 1, "positions": n_l * c,
             "pool": 2 * (n_l + n_u) * m * d}
    assert 32 + 8 * sum(sizes.values()) == len(raw)
    start = 32
    for count in sizes.values():
        for at in (start, start + 8 * (count - 1)):
            for bad in (np.nan, np.inf, -np.inf):
                path.write_bytes(raw[:at] + struct.pack("<d", bad) + raw[at + 8:])
                with pytest.raises(ValueError, match="non-finite values in model file"):
                    mm.load_model(path)
        start += 8 * count
    path.write_bytes(raw)
    mm.load_model(path)


def test_load_rejects_features_that_overflow_the_gram(tmp_path):
    rng = np.random.default_rng(101)
    model, *_ = fitted(rng, n_l=3, n_u=2, num_nodes=2, dim=4)
    path = tmp_path / "model.bin"
    mm.save_model(model, path)
    raw = bytearray(path.read_bytes())
    # the first labelled feature: finite, but its squared norm is not
    at = len(raw) - model.pool.nbytes
    raw[at:at + 8] = struct.pack("<d", 1e200)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="overflow the kernel Gram"):
        mm.load_model(path)


def test_load_rejects_values_that_overflow_the_conditioning(tmp_path):
    rng = np.random.default_rng(103)
    model, *_ = fitted(rng, n_l=3, n_u=2, num_nodes=2, dim=4)
    path = tmp_path / "model.bin"
    mm.save_model(model, path)
    raw = path.read_bytes()
    at = 32 + 8 * (2 + 2)  # the positions, after eps, sigma2 and jitter
    # finite labels whose mean overflows, and sigma2 + jitter that overflows
    huge = struct.pack("<d", 1e308)
    labels = raw[:at] + huge + raw[at + 8:at + 16] + huge + raw[at + 24:]
    noise = raw[:at - 16] + huge + huge + raw[at:]
    for bad in (labels, noise):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="overflow the conditioning"):
            mm.load_model(path)


def test_loaded_streamed_model_equals_a_fit_on_its_pool(tmp_path):
    rng = np.random.default_rng(107)
    model, *_ = fitted(rng, n_l=4, n_u=3, num_nodes=3, dim=5, c=3)
    for _ in range(25):
        model.update_recursive(make_artf(rng, 3, 5))
    mm.save_model(model, tmp_path / "model.bin")
    loaded = mm.load_model(tmp_path / "model.bin")
    assert loaded.update_count == model.update_count == 25
    hp = model.hyperparameters
    refit = mm.fit(model.pool, model.positions,
                   kn.Hyperparameters(eps=hp.eps, sigma2=hp.sigma2, jitter=model.jitter_used))
    assert loaded.jitter_used == refit.jitter_used == model.jitter_used
    for name in ("pool", "labelled_gram", "sigma_l", "gamma", "weights", "label_mean"):
        assert getattr(loaded, name).tobytes() == getattr(refit, name).tobytes(), name
    t = make_artf(rng, 3, 5)
    a, b = loaded.predict_recursive(t), refit.predict_recursive(t)
    assert a.position.tobytes() == b.position.tobytes()
    assert a.variance.tobytes() == b.variance.tobytes()


def test_fit_rejects_features_that_overflow_the_gram():
    rng = np.random.default_rng(109)
    pool = make_set(rng, 5, 2, 4)
    pool[1, 1, 2] = 1e200  # a labelled feature: finite, but its squared norm is not
    hp = kn.Hyperparameters(eps=[2.0, 3.0], sigma2=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow the kernel Gram"):
            mm.fit(pool, rng.uniform(0.0, 4.0, (3, 2)), hp)


def test_load_rejects_every_truncated_prefix(tmp_path):
    rng = np.random.default_rng(79)
    model, *_ = fitted(rng, n_l=3, n_u=2)
    path = tmp_path / "model.bin"
    mm.save_model(model, path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(ValueError):
            mm.load_model(cut)
    # a header cut inside the counts is reported as truncation
    cut.write_bytes(raw[:7])
    with pytest.raises(ValueError, match="truncated"):
        mm.load_model(cut)


def test_prediction_type_validation():
    with pytest.raises(ValueError, match="equal length"):
        mm.Prediction(position=np.zeros(3), variance=np.zeros(2), prior_variance=1.0)


def _saved_model_bytes():
    rng = np.random.default_rng(97)
    model, *_ = fitted(rng, n_l=3, n_u=2, num_nodes=2, dim=3, c=2)
    model.update_recursive(make_artf(rng, 2, 3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        mm.save_model(model, path)
        return path.read_bytes()


_MODEL_BYTES = _saved_model_bytes()


def _loads_or_rejects(raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        path.write_bytes(raw)
        try:
            mm.load_model(path)
        except ValueError:
            pass


def test_load_rejects_oversized_header_counts(tmp_path):
    path = tmp_path / "model.bin"
    for at in range(8, 32, 4):  # n_L, C, M, update count, n_D, D
        for value in (2**32 - 1, 2**20):
            path.write_bytes(_MODEL_BYTES[:at] + struct.pack("<I", value) + _MODEL_BYTES[at + 4:])
            if at == 20:  # the update count sizes nothing
                mm.load_model(path)
            else:
                with pytest.raises(ValueError, match="truncated"):
                    mm.load_model(path)


@settings(max_examples=150, deadline=None, database=None)
@given(cut=st.integers(0, len(_MODEL_BYTES)),
       flips=st.lists(st.tuples(st.integers(0, len(_MODEL_BYTES) - 1), st.integers(1, 255)),
                      max_size=4))
def test_load_survives_truncation_and_byte_flips(cut, flips):
    raw = bytearray(_MODEL_BYTES)
    for at, mask in flips:
        raw[at] ^= mask
    _loads_or_rejects(bytes(raw[:cut]))
    _loads_or_rejects(bytes(raw))


@settings(max_examples=150, deadline=None, database=None)
@given(field=st.integers(0, 7), value=st.integers(0, 2**32 - 1))
def test_load_survives_header_field_overwrites(field, value):
    # the seven 32-bit counts after the magic, and the magic itself
    at = 4 * field
    _loads_or_rejects(_MODEL_BYTES[:at] + struct.pack("<I", value) + _MODEL_BYTES[at + 4:])
