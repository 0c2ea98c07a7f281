"""RTF feature tests.

welch_cross_spectrum is checked against a hand-rolled framed-periodogram
oracle, and a node's row of artf_from_record against analytically known
channel ratios plus a simulated pair of impulse responses whose true
transfer ratio is computed from the responses themselves.  The framed-FFT-per-node extractor is
pinned bit for bit to the node-by-node Welch oracle in conftest and to a
golden digest of the desk features, and its peak memory is bounded.
"""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from conftest import (reference_artf_from_record, reference_estimate_rtf,
                      true_transfer_ratio)

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
    with pytest.raises(ValueError):
        rf.SpectralConfig(overlap_fraction=1.0)
    with pytest.raises(ValueError):
        rf.SpectralConfig(fft_size=1024)  # shorter than the window
    with pytest.raises(ValueError):
        rf.SpectralConfig(band_low_hz=3000.0, band_high_hz=2500.0)
    with pytest.raises(ValueError):
        rf.SpectralConfig(band_high_hz=9000.0)  # above Nyquist
    # 2048-point bins are 7.8 Hz apart at 16 kHz, none of them within 200-201 Hz
    with pytest.raises(ValueError, match="band 200.0-201.0 Hz holds no bin of the 2048-point FFT"):
        rf.SpectralConfig(band_low_hz=200.0, band_high_hz=201.0)


@pytest.mark.parametrize("kw, message", [
    (dict(window_length_s=0.0), "window and hop"),
    (dict(window_length_s=-1.0), "window and hop"),
    (dict(window_length_s=0.001, overlap_fraction=0.99), "window and hop"),  # hop rounds to 0
    (dict(window_length_s=np.nan), "finite"),
    (dict(window_length_s=np.inf), "finite"),
    (dict(sample_rate=np.nan), "finite"),
    (dict(sample_rate=np.inf), "finite"),
])
def test_spectral_config_rejects_unframeable_windows(kw, message):
    with pytest.raises(ValueError, match=message):
        rf.SpectralConfig(**kw)


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
        assert rf.band_bins(cfg).size == len(expected)
        np.testing.assert_allclose(rf.band_bins(cfg) * fs / nfft,
                                   np.array(expected) * fs / nfft)


def test_default_band_dimension_is_295():
    # 2048-point grid at 16 kHz: bins 26..320 lie inside [200, 2500] Hz
    cfg = rf.SpectralConfig()
    assert rf.band_bins(cfg)[0] == 26
    assert rf.band_bins(cfg)[-1] == 320
    assert rf.band_bins(cfg).size == 295


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
    v = rf.artf_from_record(_record(x, x.copy()), cfg).stack()[0]
    assert v.shape == (rf.band_bins(cfg).size,)
    assert np.abs(v - 1.0).max() <= 1e-3


def test_rtf_pure_delay_channel():
    cfg = rf.SpectralConfig()
    x = np.random.default_rng(19).standard_normal(64000)
    y = np.concatenate([np.zeros(8), x[:-8]])
    v = rf.artf_from_record(_record(x, y), cfg).stack()[0]
    k = rf.band_bins(cfg)
    expected = np.exp(-1j * 2 * np.pi * k * 8 / cfg.fft_size)
    assert np.abs(v - expected).max() < 0.02


def test_rtf_gain_invariance():
    cfg = rf.SpectralConfig()
    rng = np.random.default_rng(23)
    x = rng.standard_normal(32000)
    y = rng.standard_normal(32000)
    base = rf.artf_from_record(_record(x, y), cfg).stack()[0]
    # power-of-two gains rescale both spectra exactly, so the ratio is bit-equal
    for c in (2.0**18, 2.0**-25):
        scaled = rf.artf_from_record(_record(c * x, c * y), cfg).stack()[0]
        assert np.array_equal(base, scaled)
    odd = rf.artf_from_record(_record(3.7 * x, 3.7 * y), cfg).stack()[0]
    np.testing.assert_allclose(odd, base, rtol=1e-11)


def test_rtf_zero_reference_errors():
    cfg = rf.SpectralConfig()
    x = np.random.default_rng(31).standard_normal(16000)
    with pytest.raises(ValueError, match="reference channel"):
        rf.artf_from_record(_record(np.zeros(16000), x), cfg)


def test_rtf_sample_rate_mismatch_errors():
    cfg = rf.SpectralConfig()
    x = np.random.default_rng(3).standard_normal(16000)
    with pytest.raises(ValueError, match="rate"):
        rf.artf_from_record(_record(x, x, fs=8000.0), cfg)


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
    v = rf.artf_from_record(rec, cfg).stack()[0]

    mics = scene.flat_mics()
    truth = true_transfer_ratio(ac.simulate_rir(scene, src, mics[0]),
                                ac.simulate_rir(scene, src, mics[1]), cfg)
    rel = np.abs(v - truth) / np.abs(truth)
    assert np.mean(rel <= 0.10) >= 0.90


def test_rtf_short_and_constant_signal_errors():
    cfg = rf.SpectralConfig()
    x = np.random.default_rng(37).standard_normal(16000)
    with pytest.raises(ValueError, match="shorter than one window"):
        rf.artf_from_record(_record(x[:2047], x[:2047]), cfg)
    # a constant reference is nonzero, but every detrended frame is zero
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        rf.artf_from_record(_record(np.ones(16000), x), cfg)
    two = ac.MeasurementRecord(signals=np.stack([x, x, np.zeros(16000), x]),
                               sample_rate=16000.0, num_nodes=2)
    with pytest.raises(ValueError, match="reference channel"):
        rf.artf_from_record(two, cfg)


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
        rng.uniform(1.0, 2.0, 3)  # was a record position; drawn so later cases keep their inputs
        rec = ac.MeasurementRecord(signals=signals, sample_rate=fs, num_nodes=num_nodes)
        got = rf.artf_from_record(rec, cfg)
        want = reference_artf_from_record(rec, cfg)
        assert got.stack().tobytes() == want.tobytes()
        rng.integers(1, num_nodes + 1)  # was a node to re-check; drawn so later cases keep inputs


def test_one_stft_features_match_reference_on_long_fft():
    # the 1.024 s window and 16384-point FFT of the true-response test
    cfg = rf.SpectralConfig(window_length_s=1.024, fft_size=16384)
    x = np.random.default_rng(47).standard_normal((2, 40000))
    assert (rf.artf_from_record(_record(*x), cfg).stack()[0].tobytes()
            == reference_estimate_rtf(_record(*x), 1, cfg).tobytes())


def test_features_do_not_depend_on_signal_layout():
    # a transposed (n, channels) recording and a block cut from a longer
    # one are not C-contiguous; their frame means must still add as the
    # Welch oracle's do
    x = np.random.default_rng(61).standard_normal((6, 20000))
    cfg = rf.SpectralConfig()
    want = reference_artf_from_record(
        ac.MeasurementRecord(signals=x[:, 500:16500].copy(), sample_rate=16000.0,
                             num_nodes=3), cfg).tobytes()
    for signals in (np.asfortranarray(x[:, 500:16500]), x[:, 500:16500]):
        rec = ac.MeasurementRecord(signals=signals, sample_rate=16000.0, num_nodes=3)
        assert not rec.signals.flags.c_contiguous
        assert rf.artf_from_record(rec, cfg).stack().tobytes() == want


@pytest.mark.parametrize("num_frames", [15, 16, 17, "1 s block"])
def test_features_match_welch_reference_at_the_elision_size(num_frames):
    # at the defaults the Welch path's full (1025, F) cross product reaches
    # NumPy's 256 KiB temporary-elision size from 16 frames on, and from
    # there it runs with its operands swapped; the band-only product must
    # follow it on both sides of that size and on the 28 frames of a 1 s
    # block that the online stream cuts from a longer (6, n) recording
    cfg = rf.SpectralConfig()
    rng = np.random.default_rng(67)
    if num_frames == "1 s block":
        signals = rng.standard_normal((6, 64000))[:, 4000:20000]
    else:
        signals = rng.standard_normal((6, cfg.window_samples + cfg.hop_samples * (num_frames - 1)))
    signals[1::2] += 0.6 * np.roll(signals[0::2], 7, axis=1)
    rec = ac.MeasurementRecord(signals=signals, sample_rate=16000.0, num_nodes=3)
    want = reference_artf_from_record(rec, cfg)
    assert rf.artf_from_record(rec, cfg).stack().tobytes() == want.tobytes()


def test_feature_extraction_peak_memory():
    # a 30 s, 3-node record at 16 kHz: only one node's frame temporaries
    # are alive at a time
    x = np.random.default_rng(59).standard_normal((6, 30 * 16000))
    rec = ac.MeasurementRecord(signals=x, sample_rate=16000.0, num_nodes=3)
    tracemalloc.start()
    try:
        rf.artf_from_record(rec, rf.SpectralConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20


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


def test_aggregated_rtf_validation():
    rows = np.arange(6.0).reshape(2, 3) * (1 - 1j)
    agg = rf.AggregatedRtf(features=rows)
    assert agg.stack() is agg.features
    np.testing.assert_array_equal(agg.stack(), rows)
    for bad in (np.ones(3, complex), np.ones((2, 2, 2), complex), np.ones((0, 3), complex)):
        with pytest.raises(ValueError, match="nonempty"):
            rf.AggregatedRtf(features=bad)
    for entry in (np.nan, np.inf * 1j):
        bad = rows.copy()
        bad[1, 2] = entry
        with pytest.raises(ValueError, match="non-finite"):
            rf.AggregatedRtf(features=bad)
    # signals near the float limit overflow the spectra to inf and nan
    x = np.random.default_rng(67).standard_normal((2, 16000)) * 1e200
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        rf.artf_from_record(_record(*x), rf.SpectralConfig())


def test_artf_from_record_two_nodes():
    scene = ac.SceneConfig(room_dims=[4.0, 5.0, 3.0],
                           mic_positions=[[[1.0, 1.0, 1.2], [1.0, 1.15, 1.2]],
                                          [[3.0, 4.0, 1.6], [3.0, 4.15, 1.6]]],
                           t60=0.2, snr_db=np.inf, sample_rate=16000.0)
    cfg = rf.SpectralConfig()
    sig = ac.white_noise_signal(2.0, scene.sample_rate, np.random.default_rng(2))
    rec = ac.render_measurement(scene, [2.0, 2.5, 1.5], sig, seed=0)
    agg = rf.artf_from_record(rec, cfg)
    assert agg.features.shape == (2, rf.band_bins(cfg).size)
    # each node's row equals the estimate from a record of that node alone
    for m in range(2):
        alone = ac.MeasurementRecord(signals=rec.signals[2 * m:2 * m + 2],
                                     sample_rate=rec.sample_rate, num_nodes=1)
        np.testing.assert_array_equal(agg.features[m],
                                      rf.artf_from_record(alone, cfg).features[0])


def test_hann_window_bits_match_scipy():
    from scipy.signal import get_window

    for n in list(range(1, 4097)) + [2048, 1024]:
        assert rf.hann_window(n).tobytes() == get_window("hann", n).tobytes(), n
