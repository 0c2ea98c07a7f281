"""RTF feature tests.

welch_cross_spectrum is checked against a hand-rolled framed-periodogram
oracle, and estimate_rtf against analytically known channel ratios plus a
simulated pair of impulse responses whose true transfer ratio is computed
from the responses themselves.  The one-STFT-per-record extractor is pinned
bit for bit to the node-by-node Welch oracle in conftest and to a golden
digest of the desk features.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest
from conftest import reference_artf_from_record, reference_estimate_rtf

from mmgploc import acoustic_sim as ac
from mmgploc import cli
from mmgploc import dataio as dio
from mmgploc import rtf_features as rf


def manual_cross_spectrum(x, y, cfg):
    """Frame-by-frame periodogram average, written independently."""
    nper = cfg.window_samples
    hop = nper - int(round(cfg.overlap_fraction * nper))
    n = np.arange(nper)
    w = 0.5 - 0.5 * np.cos(2 * np.pi * n / nper)  # periodic Hann
    acc = np.zeros(cfg.fft_size // 2 + 1, dtype=complex)
    starts = range(0, x.size - nper + 1, hop)
    for s in starts:
        fx = x[s:s + nper] - x[s:s + nper].mean()
        fy = y[s:s + nper] - y[s:s + nper].mean()
        acc += np.conj(np.fft.rfft(w * fx, cfg.fft_size)) * np.fft.rfft(w * fy, cfg.fft_size)
    acc /= len(list(starts))
    acc /= cfg.sample_rate * np.sum(w**2)
    acc[1:] *= 2.0
    if cfg.fft_size % 2 == 0:
        acc[-1] /= 2.0
    return acc


def test_spectral_config_defaults_and_validation():
    cfg = rf.SpectralConfig()
    assert cfg.window_samples == 2048
    assert cfg.hop_samples == 512
    assert rf.band_bin_count(cfg) == rf.band_bins(cfg).size
    with pytest.raises(ValueError):
        rf.SpectralConfig(overlap_fraction=1.0)
    with pytest.raises(ValueError):
        rf.SpectralConfig(fft_size=1024)  # shorter than the window
    with pytest.raises(ValueError):
        rf.SpectralConfig(band_low_hz=3000.0, band_high_hz=2500.0)
    with pytest.raises(ValueError):
        rf.SpectralConfig(band_high_hz=9000.0)  # above Nyquist


def test_band_bins_match_loop_count():
    rng = np.random.default_rng(3)
    for _ in range(20):
        fs = float(rng.choice([8000, 16000, 44100]))
        nfft = int(rng.choice([512, 1024, 2048]))
        lo = float(rng.uniform(0, fs / 8))
        hi = float(rng.uniform(lo + 100, fs / 2))
        cfg = rf.SpectralConfig(sample_rate=fs, window_length_s=nfft / fs / 2,
                                fft_size=nfft, band_low_hz=lo, band_high_hz=hi)
        expected = [k for k in range(nfft // 2 + 1) if lo <= k * fs / nfft <= hi]
        assert rf.band_bins(cfg).tolist() == expected
        assert rf.band_bin_count(cfg) == len(expected)
        np.testing.assert_allclose(rf.bin_frequencies(cfg),
                                   np.array(expected) * fs / nfft)


def test_default_band_dimension_is_295():
    # 2048-point grid at 16 kHz: bins 26..320 lie inside [200, 2500] Hz
    cfg = rf.SpectralConfig()
    assert rf.band_bins(cfg)[0] == 26
    assert rf.band_bins(cfg)[-1] == 320
    assert rf.band_bin_count(cfg) == 295


def test_cross_spectrum_matches_manual_periodogram():
    rng = np.random.default_rng(17)
    cfg = rf.SpectralConfig(window_length_s=0.032)
    for _ in range(5):
        x = rng.standard_normal(12000)
        y = rng.standard_normal(12000) + 0.5 * x
        got = rf.welch_cross_spectrum(x, y, cfg)
        want = manual_cross_spectrum(x, y, cfg)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


def test_auto_spectrum_flat_for_white_noise():
    cfg = rf.SpectralConfig()
    x = np.random.default_rng(5).standard_normal(160000) * 1.7
    s = rf.welch_cross_spectrum(x, x, cfg)
    assert np.abs(s.imag).max() == 0.0
    assert s.real.min() >= 0.0
    # one-sided density of white noise with variance v is 2v/fs off the edges
    level = s.real[1:-1].mean()
    assert level == pytest.approx(2 * np.var(x) / cfg.sample_rate, rel=0.05)


def test_cross_spectrum_delay_phase_slope():
    cfg = rf.SpectralConfig()
    rng = np.random.default_rng(29)
    x = rng.standard_normal(64000)
    tau = 5
    y = np.concatenate([np.zeros(tau), x[:-tau]])
    s = rf.welch_cross_spectrum(x, y, cfg)
    k = rf.band_bins(cfg)
    phase_err = np.angle(s[k] * np.exp(1j * 2 * np.pi * k * tau / cfg.fft_size))
    assert np.abs(phase_err).max() < 0.02


def test_cross_spectrum_zeros_and_errors():
    cfg = rf.SpectralConfig()
    z = np.zeros(4096)
    assert np.all(rf.welch_cross_spectrum(z, z, cfg) == 0)
    with pytest.raises(ValueError, match="shorter"):
        rf.welch_cross_spectrum(np.zeros(100), np.zeros(100), cfg)
    with pytest.raises(ValueError, match="equal-length"):
        rf.welch_cross_spectrum(np.zeros(4096), np.zeros(4097), cfg)


def test_cross_spectrum_conjugate_symmetry():
    cfg = rf.SpectralConfig(window_length_s=0.064)
    rng = np.random.default_rng(41)
    for _ in range(5):
        x = rng.standard_normal(8000)
        y = rng.standard_normal(8000)
        a = rf.welch_cross_spectrum(x, y, cfg)
        b = rf.welch_cross_spectrum(y, x, cfg)
        np.testing.assert_allclose(a, np.conj(b), atol=1e-18)


def _record(y1, y2, fs=16000.0):
    return ac.MeasurementRecord(signals=np.stack([y1, y2]), sample_rate=fs,
                                num_nodes=1)


def test_rtf_identical_channels_is_unity():
    cfg = rf.SpectralConfig()
    x = np.random.default_rng(7).standard_normal(64000)
    v = rf.estimate_rtf(_record(x, x.copy()), 1, cfg)
    assert v.dim == rf.band_bin_count(cfg)
    assert np.abs(v.values - 1.0).max() <= 1e-3


def test_rtf_pure_delay_channel():
    cfg = rf.SpectralConfig()
    x = np.random.default_rng(19).standard_normal(64000)
    y = np.concatenate([np.zeros(8), x[:-8]])
    v = rf.estimate_rtf(_record(x, y), 1, cfg)
    k = rf.band_bins(cfg)
    expected = np.exp(-1j * 2 * np.pi * k * 8 / cfg.fft_size)
    assert np.abs(v.values - expected).max() < 0.02


def test_rtf_gain_invariance():
    cfg = rf.SpectralConfig()
    rng = np.random.default_rng(23)
    x = rng.standard_normal(32000)
    y = rng.standard_normal(32000)
    base = rf.estimate_rtf(_record(x, y), 1, cfg)
    # power-of-two gains rescale both spectra exactly, so the ratio is bit-equal
    for c in (2.0**18, 2.0**-25):
        scaled = rf.estimate_rtf(_record(c * x, c * y), 1, cfg)
        assert np.array_equal(base.values, scaled.values)
    odd = rf.estimate_rtf(_record(3.7 * x, 3.7 * y), 1, cfg)
    np.testing.assert_allclose(odd.values, base.values, rtol=1e-11)


def test_rtf_zero_reference_errors():
    cfg = rf.SpectralConfig()
    x = np.random.default_rng(31).standard_normal(16000)
    with pytest.raises(ValueError, match="reference channel"):
        rf.estimate_rtf(_record(np.zeros(16000), x), 1, cfg)


def test_rtf_sample_rate_mismatch_errors():
    cfg = rf.SpectralConfig()
    x = np.random.default_rng(3).standard_normal(16000)
    with pytest.raises(ValueError, match="rate"):
        rf.estimate_rtf(_record(x, x, fs=8000.0), 1, cfg)


def true_transfer_ratio(rir_ref, rir_sec, cfg):
    """Band samples of the true channel-transfer ratio from known responses."""
    n = cfg.fft_size
    reps = int(np.ceil(max(rir_ref.size, rir_sec.size) / n))
    pad = n * max(reps, 1)
    a_ref = np.fft.rfft(rir_ref, pad)
    a_sec = np.fft.rfft(rir_sec, pad)
    k = rf.band_bins(cfg) * (pad // n)
    return a_sec[k] / a_ref[k]


def test_rtf_matches_true_response_ratio():
    # Long analysis windows: the channel decorrelates over ~7 Hz at this
    # reverberation level, so the default 0.128 s window oversmooths the
    # ratio.  A nearby source keeps every band bin well above the noise
    # floor of the (intentionally biased) denominator.
    scene = ac.SceneConfig(room_dims=[4.0, 5.0, 3.0],
                           mic_positions=[[[1.2, 1.0, 1.4], [1.2, 1.1, 1.4]]],
                           t60=0.3, snr_db=np.inf, sample_rate=16000.0)
    src = [1.2, 1.5, 1.4]
    cfg = rf.SpectralConfig(window_length_s=1.024, fft_size=16384)
    sig = ac.white_noise_signal(10.0, scene.sample_rate, np.random.default_rng(11))
    rec = ac.render_measurement(scene, src, sig, seed=0)
    v = rf.estimate_rtf(rec, 1, cfg)

    mics = scene.flat_mics()
    truth = true_transfer_ratio(ac.simulate_rir(scene, src, mics[0]),
                                ac.simulate_rir(scene, src, mics[1]), cfg)
    rel = np.abs(v.values - truth) / np.abs(truth)
    assert np.mean(rel <= 0.10) >= 0.90


def test_rtf_short_and_constant_signal_errors():
    cfg = rf.SpectralConfig()
    x = np.random.default_rng(37).standard_normal(16000)
    with pytest.raises(ValueError, match="shorter than one window"):
        rf.estimate_rtf(_record(x[:2047], x[:2047]), 1, cfg)
    # a constant reference is nonzero, but every detrended frame is zero
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        rf.estimate_rtf(_record(np.ones(16000), x), 1, cfg)
    two = ac.MeasurementRecord(signals=np.stack([x, x, np.zeros(16000), x]),
                               sample_rate=16000.0, num_nodes=2)
    with pytest.raises(ValueError, match="reference channel"):
        rf.artf_from_record(two, cfg)
    with pytest.raises(ValueError, match="out of range"):
        rf.estimate_rtf(two, 3, cfg)


def test_one_stft_features_match_welch_reference_bits():
    rng = np.random.default_rng(43)
    cases = list(itertools.product((1, 2, 3, 4), (8000.0, 16000.0), (0.0, 0.75),
                                   ("even", "odd")))
    # two records per case, plus random overlaps
    cases = cases * 2 + [(int(rng.integers(1, 5)), 16000.0, float(rng.uniform(0.1, 0.9)),
                          "even") for _ in range(4)]
    assert len(cases) >= 50
    for num_nodes, fs, overlap, parity in cases:
        window_s = float(rng.choice([0.016, 0.032, 0.064]))
        nper = int(round(window_s * fs))
        fft_size = 2 * nper if parity == "even" else nper + int(rng.choice([1, 3, nper + 1]))
        assert fft_size % 2 == (parity == "odd")
        cfg = rf.SpectralConfig(sample_rate=fs, window_length_s=window_s,
                                overlap_fraction=overlap, fft_size=fft_size,
                                band_low_hz=150.0, band_high_hz=fs / 2)
        n = int(rng.integers(nper, int(1.2 * fs)))
        signals = rng.standard_normal((2 * num_nodes, n)) * rng.uniform(0.01, 10.0)
        # secondary channels carry a delayed copy of their reference
        signals[1::2] += 0.6 * np.roll(signals[0::2], int(rng.integers(0, 12)), axis=1)
        rec = ac.MeasurementRecord(signals=signals, sample_rate=fs, num_nodes=num_nodes,
                                   true_position=rng.uniform(1.0, 2.0, 3))
        got = rf.artf_from_record(rec, cfg)
        want = reference_artf_from_record(rec, cfg)
        assert got.stack().tobytes() == want.stack().tobytes()
        assert got.true_position.tobytes() == want.true_position.tobytes()
        for g, w in zip(got.per_node, want.per_node):
            assert g.bin_frequencies.tobytes() == w.bin_frequencies.tobytes()
        m = int(rng.integers(1, num_nodes + 1))
        assert (rf.estimate_rtf(rec, m, cfg).values.tobytes()
                == reference_estimate_rtf(rec, m, cfg).values.tobytes())


def test_one_stft_features_match_reference_on_long_fft():
    # the 1.024 s window and 16384-point FFT of the true-response test
    cfg = rf.SpectralConfig(window_length_s=1.024, fft_size=16384)
    x = np.random.default_rng(47).standard_normal((2, 40000))
    assert (rf.estimate_rtf(_record(*x), 1, cfg).values.tobytes()
            == reference_estimate_rtf(_record(*x), 1, cfg).values.tobytes())


def desk_features_config():
    """A small dataset in the desk room: 4 labelled, 2 unlabelled, 2 test records."""
    return {
        "seed": 3,
        "scene": {
            "room_dims": [4.0, 5.0, 3.0],
            "mic_positions": [[[0.5, 1.0, 1.5], [0.5, 1.2, 1.5]],
                              [[3.5, 2.5, 1.5], [3.5, 2.7, 1.5]],
                              [[1.8, 4.5, 1.5], [2.0, 4.5, 1.5]]],
            "t60": 0.4, "snr_db": 20.0, "sample_rate": 16000.0,
        },
        "labeled": {"grid": {"origin": [1.25, 1.75, 1.5], "spacing": 0.5,
                             "counts": [2, 2, 1]},
                    "signal": {"kind": "wgn", "duration_s": 1.0}},
        "unlabeled": {"random": {"low": [1.25, 1.75, 1.5], "high": [2.75, 3.25, 1.5],
                                 "count": 2},
                      "signal": {"kind": "wgn", "duration_s": 1.0}},
        "test": {"loop": {"center": [2.0, 2.5, 1.5], "radius": 0.6, "count": 2,
                          "jitter": 0.05},
                 "signal": {"kind": "speech", "duration_s": 1.3}},
    }


def test_golden_desk_features_digest(tmp_path):
    # sha256 over every record's feature blob in manifest order, recorded
    # with the node-by-node Welch extractor before the one-STFT path
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(desk_features_config()))
    cli.cmd_simulate(cli.resolve_config(cfg_path), tmp_path / "ds")
    assert cli.cmd_features(tmp_path / "ds") == 8
    manifest = dio.load_manifest(tmp_path / "ds")
    digest = hashlib.sha256()
    for entry in manifest["records"]:
        feats = dio.read_record_features(manifest, entry)
        assert feats.shape == (3, 295)
        digest.update(feats.tobytes())
    assert digest.hexdigest() == (
        "864a101964ccd2b6b26be77c9a99f365da832770aac4bb39f8b1cc884d721e3e")


def test_assemble_artf_orders_and_validates():
    cfg = rf.SpectralConfig()
    k = rf.bin_frequencies(cfg)
    d = k.size
    rng = np.random.default_rng(13)

    def vec(idx):
        return rf.RtfVector(values=rng.standard_normal(d) + 1j * rng.standard_normal(d),
                            node_index=idx, bin_frequencies=k)

    v1, v2, v3 = vec(1), vec(2), vec(3)
    agg = rf.assemble_artf([v3, v1, v2], true_position=[1.0, 2.0, 1.5], cfg=cfg)
    assert [v.node_index for v in agg.per_node] == [1, 2, 3]
    assert agg.num_nodes == 3 and agg.dim == d
    assert agg.stack().shape == (3, d)
    assert agg.concatenated().shape == (3 * d,)
    np.testing.assert_array_equal(agg.stack()[1], v2.values)
    np.testing.assert_array_equal(agg.concatenated()[d:2 * d], v2.values)
    np.testing.assert_allclose(agg.true_position, [1.0, 2.0, 1.5])

    single = rf.assemble_artf([v1])
    assert single.num_nodes == 1
    np.testing.assert_array_equal(single.stack()[0], v1.values)

    with pytest.raises(ValueError, match="1..M"):
        rf.assemble_artf([v1, v3])  # gap
    with pytest.raises(ValueError, match="1..M"):
        rf.assemble_artf([v1, vec(1)])  # duplicate
    short = rf.RtfVector(values=np.ones(5, complex), node_index=2,
                         bin_frequencies=np.arange(5.0))
    with pytest.raises(ValueError, match="bin grid"):
        rf.assemble_artf([v1, short])
    with pytest.raises(ValueError, match="config implies"):
        rf.assemble_artf([short], cfg=cfg)


def test_rtf_vector_validation():
    with pytest.raises(ValueError, match="finite"):
        rf.RtfVector(values=np.array([1.0, np.nan * 1j]), node_index=1,
                     bin_frequencies=np.arange(2.0))
    with pytest.raises(ValueError, match="length"):
        rf.RtfVector(values=np.ones(3, complex), node_index=1,
                     bin_frequencies=np.arange(2.0))
    with pytest.raises(ValueError, match="1-based"):
        rf.RtfVector(values=np.ones(3, complex), node_index=0,
                     bin_frequencies=np.arange(3.0))


def test_artf_from_record_two_nodes():
    scene = ac.SceneConfig(room_dims=[4.0, 5.0, 3.0],
                           mic_positions=[[[1.0, 1.0, 1.2], [1.0, 1.15, 1.2]],
                                          [[3.0, 4.0, 1.6], [3.0, 4.15, 1.6]]],
                           t60=0.2, snr_db=np.inf, sample_rate=16000.0)
    cfg = rf.SpectralConfig()
    sig = ac.white_noise_signal(2.0, scene.sample_rate, np.random.default_rng(2))
    rec = ac.render_measurement(scene, [2.0, 2.5, 1.5], sig, seed=0)
    agg = rf.artf_from_record(rec, cfg)
    assert agg.num_nodes == 2
    assert [v.node_index for v in agg.per_node] == [1, 2]
    np.testing.assert_allclose(agg.true_position, [2.0, 2.5, 1.5])
    # node 1's vector equals a direct single-node estimate
    np.testing.assert_array_equal(agg.per_node[0].values,
                                  rf.estimate_rtf(rec, 1, cfg).values)
