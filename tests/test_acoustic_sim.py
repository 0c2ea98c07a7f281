"""Room simulator tests.

The image accumulation is checked against a deliberately naive
dict-accumulating enumeration oracle and, bit for bit, against the
unpruned ``np.add.at`` kernel kept in ``conftest``; the render is checked
bit for bit against the per-channel ``fftconvolve`` render kept there too.
The physical invariants (direct tap placement, Schroeder decay, SNR
calibration) are checked on their own terms.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from conftest import reference_image_rir, reference_render
from scipy.fft import next_fast_len

from mmgploc import acoustic_sim as ac


def _scene(room=(4.0, 5.0, 3.0), t60=0.3, snr=np.inf, fs=16000.0, **kw):
    mics = kw.pop("mics", [[[1.0, 1.0, 1.2], [1.0, 1.1, 1.2]]])
    return ac.SceneConfig(room_dims=list(room), mic_positions=mics, t60=t60,
                          snr_db=snr, sample_rate=fs, **kw)


def brute_force_rir(n, room, src, mic, beta, half, max_order, fs, c):
    """Independent tap-by-tap enumeration of the mirror-image sum."""
    taps = {}
    for nx in range(-half[0], half[0] + 1):
        for ny in range(-half[1], half[1] + 1):
            for nz in range(-half[2], half[2] + 1):
                for qx in (0, 1):
                    for qy in (0, 1):
                        for qz in (0, 1):
                            if max_order >= 0:
                                o = (abs(2 * nx - qx) + abs(2 * ny - qy)
                                     + abs(2 * nz - qz))
                                if o > max_order:
                                    continue
                            img = np.array([
                                (1 - 2 * qx) * src[0] + 2 * nx * room[0],
                                (1 - 2 * qy) * src[1] + 2 * ny * room[1],
                                (1 - 2 * qz) * src[2] + 2 * nz * room[2],
                            ])
                            d = float(np.linalg.norm(img - np.asarray(mic)))
                            tap = math.floor(d * fs / c + 0.5)
                            if tap >= n:
                                continue
                            e = (abs(nx - qx) + abs(nx) + abs(ny - qy)
                                 + abs(ny) + abs(nz - qz) + abs(nz))
                            taps[tap] = taps.get(tap, 0.0) + beta**e / (4 * math.pi * d)
    rir = np.zeros(n)
    for tap, amp in taps.items():
        rir[tap] = amp
    return rir


def test_anechoic_single_impulse():
    rng = np.random.default_rng(11)
    scene = _scene(t60=0.0)
    for _ in range(25):
        src = rng.uniform(0.2, 0.8, 3) * scene.room_dims
        mic = rng.uniform(0.2, 0.8, 3) * scene.room_dims
        d = np.linalg.norm(src - mic)
        if d < 0.05:
            continue
        rir = ac.simulate_rir(scene, src, mic)
        tap = round(d * scene.sample_rate / scene.sound_speed)
        nz = np.flatnonzero(rir)
        assert nz.tolist() == [tap]
        assert rir[tap] == pytest.approx(1.0 / (4 * math.pi * d), rel=1e-14)


def test_matches_brute_force_enumeration():
    rng = np.random.default_rng(23)
    fs, c = 8000.0, 343.0
    for _ in range(6):
        room = rng.uniform(2.5, 4.0, 3)
        src = rng.uniform(0.3, 0.7, 3) * room
        mic = rng.uniform(0.3, 0.7, 3) * room
        if np.linalg.norm(src - mic) < 0.2:
            continue
        beta = rng.uniform(0.3, 0.8)
        n = 400
        spm = fs / c
        half = ac._lattice_half_extent(n, room, spm)
        max_order = int(rng.integers(-1, 6))
        expected = brute_force_rir(n, room, src, mic, beta, half, max_order, fs, c)
        got = ac._accumulate_images(n, room, src, mic, beta, half, max_order, spm)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


def test_kernel_bits_match_reference_oracle():
    rng = np.random.default_rng(31)
    orders = ["auto", 0, 1, 2, 3, 4, 5]
    t60s = [0.0, 0.15, 0.25, 0.35]
    scenes = [_scene(room=rng.uniform(2.5, 4.5, 3), t60=t60s[k % 4], fs=(8000.0, 16000.0)[k % 2],
                     max_reflection_order=orders[k % 7]) for k in range(42)]
    # the one case whose pruned lattice spans several _CHUNK blocks
    scenes.append(_scene(t60=0.7, fs=8000.0))
    for k, scene in enumerate(scenes):
        fs = scene.sample_rate
        room = scene.room_dims
        src = rng.uniform(0.1, 0.9, 3) * room
        mic = rng.uniform(0.1, 0.9, 3) * room
        if k % 3 == 0:
            # a source within 5% of a wall
            axis = rng.integers(3)
            gap = rng.uniform(0.005, 0.05) * room[axis]
            src[axis] = gap if rng.random() < 0.5 else room[axis] - gap
        rir = ac.simulate_rir(scene, src, mic)
        beta, max_order = ac._reflection_and_order(scene)
        spm = fs / scene.sound_speed
        half = ac._lattice_half_extent(rir.size, room, spm)
        expected = reference_image_rir(np.zeros(rir.size), room, src, mic, beta, half,
                                       max_order, spm)
        assert rir.tobytes() == expected.tobytes()
    # no order cap: every lattice point of the box stays, so keep n small;
    # the last n is just large enough for several _CHUNK blocks
    for n in [int(v) for v in rng.integers(60, 400, 8)] + [2800]:
        room = rng.uniform(2.5, 4.0, 3)
        src = rng.uniform(0.1, 0.9, 3) * room
        mic = rng.uniform(0.1, 0.9, 3) * room
        beta = rng.uniform(0.3, 0.9)
        spm = float(rng.choice([8000.0, 16000.0])) / 343.0
        half = ac._lattice_half_extent(n, room, spm)
        if n == 2800:
            assert np.prod([2 * h + 1 for h in half]) > ac._CHUNK
        got = ac._accumulate_images(n, room, src, mic, beta, half, -1, spm)
        expected = reference_image_rir(np.zeros(n), room, src, mic, beta, half, -1, spm)
        assert got.tobytes() == expected.tobytes()


# sha256 of simulate_rir(...).tobytes(); the responses feed every dataset,
# so any change to the kernel's arithmetic or summation order must show here
GOLDEN_RIRS = [
    # the desk room at T60 0.4 s
    (dict(t60=0.4), [2.0, 2.5, 1.5], [0.5, 1.0, 1.5], 8107,
     "d22da0d7cae6424a75e546d37ebe27c5a8358c9020cc5d3f5572d3f9748939c7"),
    (dict(t60=0.0), [2.0, 2.5, 1.5], [0.5, 1.0, 1.5], 107,
     "50b4e03857befe5bc762e5a7a21813434ac3ba08d9ac59352489833740188fee"),
    (dict(room=(3.5, 4.2, 2.8), t60=0.3, fs=8000.0, max_reflection_order=3),
     [1.2, 3.1, 0.9], [2.4, 0.7, 1.9], 3075,
     "a759d345070ffbacfa0e43b9600efa0c01c39b3657ed8f3f6f1489794444fba7"),
]


@pytest.mark.parametrize("kw, src, mic, size, digest", GOLDEN_RIRS)
def test_golden_rir_bits(kw, src, mic, size, digest):
    rir = ac.simulate_rir(_scene(**kw), src, mic)
    assert rir.size == size
    assert hashlib.sha256(rir.tobytes()).hexdigest() == digest


# the desk scene of the benchmark: three nodes of two mics in the 4x5x3 m room
DESK_MICS = [[[0.5, 1.0, 1.5], [0.5, 1.2, 1.5]],
             [[3.5, 2.5, 1.5], [3.5, 2.7, 1.5]],
             [[1.8, 4.5, 1.5], [2.0, 4.5, 1.5]]]


def test_golden_render_bits():
    # sha256 of a whole noisy desk measurement: pins the responses, the
    # convolution, the sensor noise and the channel order that feed every
    # dataset
    scene = _scene(t60=0.4, snr=20.0, mics=DESK_MICS)
    sig = ac.white_noise_signal(0.5, scene.sample_rate, np.random.default_rng(5))
    rec = ac.render_measurement(scene, [2.0, 2.5, 1.5], sig, seed=(3, 0, 1))
    assert rec.signals.shape == (6, 16106)
    assert (hashlib.sha256(rec.signals.tobytes()).hexdigest()
            == "03a6169f932b1ff845aefac0784919161c98117a912f21f3639363a1aca938a7")


def test_lattice_cache_interleaved_scenes_match_reference():
    # scenes take turns, so every response reads a lattice another scene
    # built or used; the first two share (half, max_order) but differ in
    # room, wall coefficient and microphones, and the last caps the order
    scenes = [_scene(t60=0.3, fs=8000.0),
              _scene(room=(4.2, 5.1, 3.1), t60=0.31, fs=8000.0, max_reflection_order=33,
                     mics=[[[3.0, 4.0, 2.0], [2.9, 4.1, 2.0]]]),
              _scene(room=(3.2, 4.1, 2.7), t60=0.35, fs=16000.0),
              _scene(room=(5.0, 3.5, 2.9), t60=0.3, max_reflection_order=4)]
    keys = []
    for scene in scenes:
        src = np.array([2.0, 1.6, 1.3])
        mic = scene.flat_mics()[0]
        n = ac.simulate_rir(scene, src, mic).size
        spm = scene.sample_rate / scene.sound_speed
        keys.append((tuple(ac._lattice_half_extent(n, scene.room_dims, spm)),
                     ac._reflection_and_order(scene)[1]))
    assert keys[0] == keys[1]
    assert ac._reflection_and_order(scenes[0])[0] != ac._reflection_and_order(scenes[1])[0]
    assert keys[3][1] == 4

    ac._image_lattice.cache_clear()
    for scene in scenes[:2]:
        ac.simulate_rir(scene, [2.0, 1.6, 1.3], scene.flat_mics()[0])
    info = ac._image_lattice.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    rng = np.random.default_rng(41)
    for rep in range(3):
        for scene in scenes:
            src = (np.array([2.0, 1.6, 1.3]) if rep == 0
                   else rng.uniform(0.15, 0.85, 3) * scene.room_dims)
            for mic in scene.flat_mics():
                rir = ac.simulate_rir(scene, src, mic)
                beta, max_order = ac._reflection_and_order(scene)
                spm = scene.sample_rate / scene.sound_speed
                half = ac._lattice_half_extent(rir.size, scene.room_dims, spm)
                expected = reference_image_rir(np.zeros(rir.size), scene.room_dims, src, mic,
                                               beta, half, max_order, spm)
                assert rir.tobytes() == expected.tobytes()
    assert ac._image_lattice.cache_info().hits > 0


def test_record_responses_share_the_cached_lattice():
    # the 6 responses of one desk record differ in length, but only a few
    # lattice half-extents come out of those lengths
    scene = _scene(t60=0.4, mics=DESK_MICS)
    src = np.array([2.0, 2.5, 1.5])
    spm = scene.sample_rate / scene.sound_speed
    max_order = ac._reflection_and_order(scene)[1]
    keys = set()
    for mic in scene.flat_mics():
        n = math.ceil(ac.rir_duration(scene, src, mic) * scene.sample_rate)
        keys.add((tuple(ac._lattice_half_extent(n, scene.room_dims, spm)), max_order))
    ac._image_lattice.cache_clear()
    sig = ac.white_noise_signal(0.1, scene.sample_rate, np.random.default_rng(2))
    ac.render_measurement(scene, src, sig, seed=(1, 0, 1))
    info = ac._image_lattice.cache_info()
    assert (info.misses, info.hits) == (len(keys), 6 - len(keys))
    assert info.misses < 6
    # a second record at the same spot builds nothing
    ac.render_measurement(scene, src, sig, seed=(1, 1, 1))
    info = ac._image_lattice.cache_info()
    assert (info.misses, info.hits) == (len(keys), 12 - len(keys))


def test_cached_lattice_is_read_only():
    images = ac._image_lattice((5, 4, 6), 7)
    assert images.dtype == np.int32 and images.shape[0] == 3
    assert not images.flags.writeable
    with pytest.raises(ValueError):
        images[0, 0] = 1
    with pytest.raises(ValueError):
        images[2] += 1
    assert ac._image_lattice((5, 4, 6), 7) is images


def test_peak_memory_bounded_in_long_reverb():
    # auto order 114 here, about 1.9 million images.  From a cold lattice
    # cache the run holds the cached int32 lattice (12 B per image), the
    # per-image taps and amplitudes (16 B) and blocks of 8 * _CHUNK images:
    # about 67 MiB at peak.  Evaluating every image at once, or int64
    # lattice indices, would pass the bound
    scene = _scene(t60=0.9)
    assert ac._reflection_and_order(scene)[1] == 114
    ac._image_lattice.cache_clear()
    tracemalloc.start()
    try:
        ac.simulate_rir(scene, [2.0, 2.5, 1.5], [0.5, 1.0, 1.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20


def test_reflection_exponent_equals_order():
    # the kernel reads the wall-coefficient exponent |i - a| + |i| per axis
    # off the image order |2i - a|
    i = np.arange(-200, 201)
    for a in (0, 1):
        assert np.array_equal(np.abs(i - a) + np.abs(i), np.abs(2 * i - a))


def test_render_bits_match_fftconvolve_reference():
    rng = np.random.default_rng(61)
    two_lengths = 0
    for k in range(24):
        fs = (8000.0, 16000.0)[k % 2]
        snr = (np.inf, float(rng.uniform(5.0, 30.0)))[(k // 2) % 2]
        room = rng.uniform(2.5, 4.5, 3)
        mics = rng.uniform(0.1, 0.9, (int(rng.integers(1, 4)), 2, 3)) * room
        scene = ac.SceneConfig(room_dims=room, mic_positions=mics, snr_db=snr, sample_rate=fs,
                               t60=float(rng.uniform(0.15, 0.4)))
        src = rng.uniform(0.1, 0.9, 3) * room
        # the last excitation is one sample long, where fftconvolve multiplies
        duration = 1.0 / fs if k == 23 else float(rng.uniform(0.05, 0.5))
        sig = ac.white_noise_signal(duration, fs, rng)
        rec = ac.render_measurement(scene, src, sig, (k, 1))
        assert rec.signals.tobytes() == reference_render(scene, src, sig, (k, 1)).tobytes()
        sizes = {sig.size + ac.simulate_rir(scene, src, mic).size - 1 for mic in scene.flat_mics()}
        two_lengths += len({next_fast_len(size, True) for size in sizes}) > 1
    # channels that share one excitation spectrum and channels that need two
    assert two_lengths >= 3


def test_render_peak_memory_bounded():
    # a minute of desk audio: 6 channels of 960k samples take 44 MiB; one
    # fftconvolve per channel plus a separate noisy copy peaked at 119 MiB,
    # one shared excitation spectrum and noise added in place at 83 MiB
    scene = _scene(t60=0.4, snr=20.0, mics=DESK_MICS)
    sig = ac.white_noise_signal(60.0, scene.sample_rate, np.random.default_rng(5))
    tracemalloc.start()
    try:
        ac.render_measurement(scene, [2.0, 2.5, 1.5], sig, seed=(3, 0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 112 * 2**20


@pytest.mark.parametrize("signal, match", [
    (np.zeros(800), "all zeros"),
    (np.full(800, np.nan), "non-finite"),
    (np.r_[np.ones(799), np.inf], "non-finite"),
    (np.ones((800, 2)), "1-D"),
    (np.float64(1.0), "1-D"),
    (np.zeros(0), "empty"),
])
def test_render_rejects_bad_excitation(monkeypatch, signal, match):
    def no_rir(*args):
        raise AssertionError("simulated a response for a bad excitation")

    monkeypatch.setattr(ac, "simulate_rir", no_rir)
    with pytest.raises(ValueError, match=match):
        ac.render_measurement(_scene(), [2.5, 3.1, 1.5], signal, seed=0)


def test_first_tap_at_direct_delay():
    rng = np.random.default_rng(47)
    scene = _scene(t60=0.25)
    for _ in range(10):
        src = rng.uniform(0.15, 0.85, 3) * scene.room_dims
        mic = rng.uniform(0.15, 0.85, 3) * scene.room_dims
        d = np.linalg.norm(src - mic)
        if d < 0.1:
            continue
        rir = ac.simulate_rir(scene, src, mic)
        first = np.flatnonzero(rir)[0]
        assert first == round(d * scene.sample_rate / scene.sound_speed)


def test_schroeder_decay_reaches_minus_60db_near_t60():
    scene = _scene(t60=0.3)
    rng = np.random.default_rng(59)
    for _ in range(3):
        src = rng.uniform(0.2, 0.8, 3) * scene.room_dims
        mic = rng.uniform(0.2, 0.8, 3) * scene.room_dims
        if np.linalg.norm(src - mic) < 0.3:
            continue
        rir = ac.simulate_rir(scene, src, mic)
        edc = np.cumsum(rir[::-1] ** 2)[::-1]
        with np.errstate(divide="ignore"):
            edc_db = 10 * np.log10(edc / edc[0])
        i_direct = np.flatnonzero(rir)[0]
        below = np.flatnonzero(edc_db <= -60.0)
        assert below.size > 0
        t_cross = (below[0] - i_direct) / scene.sample_rate
        assert 0.8 * scene.t60 <= t_cross <= 1.2 * scene.t60


def test_reflection_order_zero_keeps_direct_path_only():
    scene = _scene(t60=0.3, max_reflection_order=0)
    src, mic = np.array([2.5, 3.1, 1.5]), np.array([1.0, 1.0, 1.2])
    rir = ac.simulate_rir(scene, src, mic)
    d = np.linalg.norm(src - mic)
    nz = np.flatnonzero(rir)
    assert nz.tolist() == [round(d * scene.sample_rate / scene.sound_speed)]
    assert rir[nz[0]] == pytest.approx(1.0 / (4 * math.pi * d), rel=1e-14)


def test_first_order_reflections_match_manual_mirror():
    scene = _scene(t60=0.3, max_reflection_order=1)
    room = scene.room_dims
    src, mic = np.array([2.5, 3.1, 1.5]), np.array([1.0, 1.0, 1.2])
    alpha = ac.sabine_absorption(room, scene.t60, scene.sound_speed)
    beta = math.sqrt(1 - alpha)
    # direct + one mirror across each of the six walls
    images = [(src, 1.0)]
    for axis in range(3):
        lo = src.copy()
        lo[axis] = -src[axis]
        hi = src.copy()
        hi[axis] = 2 * room[axis] - src[axis]
        images += [(lo, beta), (hi, beta)]
    expected = np.zeros(int(round(ac.rir_duration(scene, src, mic) * scene.sample_rate)) + 2)
    for img, amp in images:
        d = np.linalg.norm(img - mic)
        tap = math.floor(d * scene.sample_rate / scene.sound_speed + 0.5)
        expected[tap] += amp / (4 * math.pi * d)
    rir = ac.simulate_rir(scene, src, mic)
    nz = np.flatnonzero(rir)
    np.testing.assert_allclose(rir[nz], expected[nz], rtol=1e-12)
    assert np.flatnonzero(expected[: rir.size]).tolist() == nz.tolist()


def test_degenerate_and_out_of_room_errors():
    scene = _scene()
    with pytest.raises(ValueError, match="degenerate"):
        ac.simulate_rir(scene, [1.0, 1.0, 1.2], [1.0, 1.0, 1.2])
    with pytest.raises(ValueError, match="outside room"):
        ac.simulate_rir(scene, [4.5, 1.0, 1.0], [1.0, 1.0, 1.2])
    with pytest.raises(ValueError, match="outside room"):
        ac.simulate_rir(scene, [4.0, 1.0, 1.0], [1.0, 1.0, 1.2])  # on the wall
    with pytest.raises(ValueError, match="outside room"):
        _scene(mics=[[[0.0, 1.0, 1.0], [0.1, 1.0, 1.0]]])


def test_infeasible_t60_reports_sabine_range():
    with pytest.raises(ValueError, match="infeasible"):
        ac.simulate_rir(_scene(t60=0.02), [2.5, 3.1, 1.5], [1.0, 1.0, 1.2])


@pytest.mark.parametrize("room, t60", [((4.0, 5.0, 3.0), 0.02), ((40.0, 50.0, 30.0), 0.1)])
def test_scene_rejects_infeasible_t60_on_construction(room, t60):
    with pytest.raises(ValueError, match="infeasible t60/geometry pair"):
        _scene(room=room, t60=t60)


def test_scene_validation():
    with pytest.raises(ValueError):
        _scene(t60=-0.1)
    with pytest.raises(ValueError):
        _scene(fs=0.0)
    with pytest.raises(ValueError):
        _scene(mics=[[[1.0, 1.0, 1.0]]])  # one mic in the node
    with pytest.raises(ValueError):
        _scene(max_reflection_order="lots")
    with pytest.raises(ValueError):
        _scene(max_reflection_order=-2)
    s = _scene()
    assert s.num_nodes == 1
    assert s.flat_mics().shape == (2, 3)


@pytest.mark.parametrize("kw", [
    dict(room=(np.nan, 5.0, 3.0)),
    dict(room=(4.0, np.inf, 3.0)),
    dict(t60=np.nan),
    dict(t60=np.inf),
    dict(sound_speed=np.nan),
    dict(sound_speed=np.inf),
    dict(fs=np.inf),
    dict(fs=np.nan),
    dict(snr=np.nan),
    dict(snr=-np.inf),
    dict(mics=[[[1.0, np.nan, 1.2], [1.0, 1.1, 1.2]]]),
    dict(mics=[[[1.0, 1.0, 1.2], [np.inf, 1.1, 1.2]]]),
])
def test_scene_rejects_non_finite_fields(kw):
    with pytest.raises(ValueError):
        _scene(**kw)


def test_snr_calibration_and_determinism():
    scene_clean = _scene(t60=0.25, snr=np.inf)
    scene_noisy = _scene(t60=0.25, snr=20.0)
    src = [2.5, 3.1, 1.5]
    sig = ac.white_noise_signal(2.0, 16000.0, np.random.default_rng(5))
    clean = ac.render_measurement(scene_clean, src, sig, seed=0)
    noisy1 = ac.render_measurement(scene_noisy, src, sig, seed=77)
    noisy2 = ac.render_measurement(scene_noisy, src, sig, seed=77)
    noisy3 = ac.render_measurement(scene_noisy, src, sig, seed=78)
    assert np.array_equal(noisy1.signals, noisy2.signals)
    assert not np.array_equal(noisy1.signals, noisy3.signals)
    for ch in range(clean.signals.shape[0]):
        c = clean.signals[ch]
        noise = noisy1.signals[ch] - c
        active = np.flatnonzero(np.abs(c) > 1e-12 * np.abs(c).max())
        p_sig = np.mean(c[active[0]:active[-1] + 1] ** 2)
        snr_db = 10 * np.log10(p_sig / np.var(noise))
        assert snr_db == pytest.approx(20.0, abs=0.5)


def test_infinite_snr_is_noise_free():
    scene = _scene(t60=0.2, snr=np.inf)
    sig = ac.white_noise_signal(0.5, 16000.0, np.random.default_rng(9))
    a = ac.render_measurement(scene, [2.5, 3.1, 1.5], sig, seed=1)
    b = ac.render_measurement(scene, [2.5, 3.1, 1.5], sig, seed=2)
    assert np.array_equal(a.signals, b.signals)


def test_speech_surrogate_band_and_envelope():
    fs = 16000.0
    sig = ac.speech_surrogate_signal(4.0, fs, np.random.default_rng(13))
    assert np.sqrt(np.mean(sig**2)) == pytest.approx(1.0, rel=1e-9)
    spec = np.abs(np.fft.rfft(sig)) ** 2
    freqs = np.fft.rfftfreq(sig.size, 1 / fs)
    in_band = spec[freqs <= 2500.0].sum() / spec.sum()
    assert in_band > 0.8
    # band emphasis: mean spectral density in-band dwarfs the far stopband
    dens_band = spec[(freqs >= 200.0) & (freqs <= 2500.0)].mean()
    dens_high = spec[freqs >= 5000.0].mean()
    assert dens_band > 10 * dens_high
    # slow amplitude modulation: frame RMS varies by more than a flat signal's
    frames = sig[: sig.size // 1600 * 1600].reshape(-1, 1600)
    rms = np.sqrt(np.mean(frames**2, axis=1))
    assert rms.std() / rms.mean() > 0.1


def test_make_signal_deterministic_per_index():
    spec = ac.SourceSetSpec(positions=[[1, 1, 1], [2, 2, 2]], signal_kind="wgn",
                            duration_s=0.3, seed=3)
    a = ac.make_signal(spec, 0, 16000.0)
    b = ac.make_signal(spec, 0, 16000.0)
    c = ac.make_signal(spec, 1, 16000.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("duration_s", [np.nan, np.inf, -np.inf])
def test_source_set_spec_rejects_non_finite_duration(duration_s):
    with pytest.raises(ValueError, match="finite"):
        ac.SourceSetSpec(positions=[[1, 1, 1]], duration_s=duration_s)


def test_source_set_spec_validation():
    with pytest.raises(ValueError):
        ac.SourceSetSpec(positions=[[1, 1]], signal_kind="wgn")
    with pytest.raises(ValueError):
        ac.SourceSetSpec(positions=[[1, 1, 1]], duration_s=0.0)
    with pytest.raises(ValueError):
        ac.SourceSetSpec(positions=[[1, 1, 1]], signal_kind="hum")
    with pytest.raises(ValueError):
        ac.SourceSetSpec(positions=[[1, 1, 1]], signal_kind="file")
    spec = ac.SourceSetSpec(positions=[[1, 1, 1], [2, 2, 1]])
    assert spec.count == 2


def test_measurement_record_rejects_bad_shapes():
    good = np.zeros((2, 10))
    ac.MeasurementRecord(signals=good, sample_rate=16000.0, num_nodes=1)
    with pytest.raises(ValueError):
        ac.MeasurementRecord(signals=np.zeros((3, 10)), sample_rate=16000.0, num_nodes=1)
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ac.MeasurementRecord(signals=bad, sample_rate=16000.0, num_nodes=1)
