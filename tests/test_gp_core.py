"""Bit pins and input checks shared by the three GP models.

The fused-kernel model, both GP baselines and ML learning run through one
labelled-set core; refactoring it must not move a single output bit.  The
digests below were recorded from the implementation in which each model
still kept its own copy of the core, with two exceptions.  ``trace_csv``
was re-recorded when ML learning moved to L-BFGS-B, and is asserted on the
loop-form likelihood oracle since the likelihood became one trace.
``save_model`` was re-recorded for model file version 2, whose bytes equal
the version 1 file of the previous commit with the version field set to 2
and the derived sections (labelled covariance, inverse, centered labels,
label mean) removed; the version 3 file is pinned through its projection
on version 2, the version field set back to 2 and the 32 config hash bytes
removed.  The digests depend on the floating-point results of the
NumPy/SciPy build, so re-record them from the previous commit, not from
the code under test, when that build changes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (MODEL_HASH, log_likelihood_and_grad, make_set,
                      reference_log_likelihood_and_grad)

from mmgploc import baselines as bl
from mmgploc import hyperopt as ho
from mmgploc import kernels as kn
from mmgploc import mmgp_model as mm
from mmgploc import rtf_features as rf

PINS = {
    "save_model": "56dbc05558f2bcb312f1f32f18794d444aa0367641ff9db9abdb1bcc6883726e",
    "trace_csv": "cea6ba99ee1e8b5ee0a63d9f410e8f98706357d638ad36ad9f8ce0404ebf1a96",
    "mmgp": "6ebce2fee57156db5a566fc0d38ef77128b4fc6c78bcd97309ead7c94bb00ba8",
    "kernel-product": "622685905c200f9f0a21d33c2e63fbe2a3a5ffeb48cf40a8f85f3c043e1e88c9",
    "mean": "2fd90b8cfb8df3968786816d2e36c212b0a995fae00a43bbeaad31c09b19615c",
}

# Three pins depend on the host's numerics: ``trace_csv``, ``mmgp`` and
# ``mean`` change without NumPy's AVX-512 dispatch (``np.exp`` and ``np.log``
# round otherwise) and under OpenBLAS's Haswell kernels (matmul rounds
# otherwise).  The same-host oracle byte-compares below compare two code
# paths on one host, so they hold under both.
_ORACLE_COMPARES = [
    "test_rtf_features.py::test_one_stft_features_match_welch_reference_bits",
    "test_rtf_features.py::test_one_stft_features_match_reference_on_long_fft",
    "test_rtf_features.py::test_features_do_not_depend_on_signal_layout",
    "test_rtf_features.py::test_features_match_welch_reference_at_the_elision_size",
    "test_mmgp_model.py::test_predict_bits_match_two_covariance_formula",
    "test_mmgp_model.py::test_stream_bits_match_concatenating_reference",
]
_OTHER_HOSTS = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
                "OPENBLAS_CORETYPE": "Haswell"}

FITS = {"mmgp": mm.fit, "kernel-product": bl.fit_kernel_product, "mean": bl.fit_mean_of_nodes}


def problem():
    """3 nodes, 6 labelled and 4 unlabelled samples, 3 coordinates, 4 test samples."""
    rng = np.random.default_rng(2024)
    pool = make_set(rng, 10, 3, 4)
    positions = rng.uniform(0.0, 5.0, (6, 3))
    tests = make_set(rng, 4, 3, 4)
    hp = kn.Hyperparameters(eps=[2.0, 3.0, 5.0], sigma2=0.1)
    return pool, positions, tests, hp


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_save_model_bytes_pinned(tmp_path):
    pool, positions, tests, hp = problem()
    model = mm.fit(pool, positions, hp)
    model.update_recursive(tests[0])
    path = tmp_path / "model.bin"
    mm.save_model(model, path, MODEL_HASH)
    raw = path.read_bytes()
    assert raw[4:8] == b"\x03\x00\x00\x00" and raw[32:64] == bytes.fromhex(MODEL_HASH)
    assert sha256(raw[:4] + b"\x02\x00\x00\x00" + raw[8:32] + raw[64:]) == PINS["save_model"]


def test_trace_csv_pinned(tmp_path, monkeypatch):
    # pinned on the loop-form oracle, which proves it is the arithmetic the
    # pin was recorded from; the trace form is compared with it below
    monkeypatch.setattr(ho, "_MAX_ITERS", 30)
    monkeypatch.setattr(ho._Problem, "evaluate", reference_log_likelihood_and_grad)
    pool, positions, _, _ = problem()
    result = ho.optimize(pool, positions)
    path = tmp_path / "trace.csv"
    ho.write_trace_csv(result, path)
    assert sha256(path.read_bytes()) == PINS["trace_csv"]


def test_trace_matches_the_oracle_trace(monkeypatch):
    # the trace form rounds differently from the loop form; over the 24
    # rows the largest relative difference measured 4.8e-11, in eps_1
    monkeypatch.setattr(ho, "_MAX_ITERS", 30)
    pool, positions, _, _ = problem()
    real = ho.optimize(pool, positions)
    monkeypatch.setattr(ho._Problem, "evaluate", reference_log_likelihood_and_grad)
    oracle = ho.optimize(pool, positions)
    assert len(real.trace) == len(oracle.trace)
    for got, want in zip(real.trace, oracle.trace):
        assert got[0] == want[0]
        assert got[1:] == pytest.approx(want[1:], rel=5e-10, abs=0)


@pytest.mark.parametrize("method", sorted(FITS))
def test_predictions_pinned(method):
    pool, positions, tests, hp = problem()
    model = FITS[method](pool, positions, hp)
    blob = b""
    for t in tests:
        pred = model.predict(t)
        blob += (pred.position.tobytes() + pred.variance.tobytes()
                 + np.float64(pred.prior_variance).tobytes())
    assert sha256(blob) == PINS[method]


@pytest.mark.parametrize("method", sorted(FITS))
def test_predict_rejects_wrong_sample_shape(method):
    pool, positions, tests, hp = problem()
    model = FITS[method](pool, positions, hp)
    for many in (tests[:2], tests[:1]):
        with pytest.raises(ValueError, match="one sample at a time"):
            model.predict(many)
    for bad in (tests[0, :2], np.concatenate([tests[0], tests[0, :, :1]], axis=1)):
        with pytest.raises(ValueError, match="sample shape"):
            model.predict(bad)
    # one sample, but the object rather than its (M, D) array
    with pytest.raises(ValueError, match=r"one sample at a time.*got AggregatedRtf of shape \(\)"):
        model.predict(rf.AggregatedRtf(features=tests[0]))


@pytest.mark.parametrize("method", sorted(FITS))
def test_fit_and_predict_reject_non_finite_features(method):
    pool, positions, tests, hp = problem()
    model = FITS[method](pool, positions, hp)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        unlabelled = pool.copy()
        unlabelled[8, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite entries in feature array"):
            FITS[method](unlabelled, positions, hp)
        sample = tests[0].copy()
        sample[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite entries in feature array"):
            model.predict(sample)


def test_learning_and_streaming_reject_non_finite_features():
    pool, positions, tests, hp = problem()
    unlabelled = pool.copy()
    unlabelled[8, 1, 2] = np.nan
    for learn in (lambda: ho.optimize(unlabelled, positions),
                  lambda: log_likelihood_and_grad(hp, unlabelled, positions),
                  lambda: kn.median_heuristic(unlabelled)):
        with pytest.raises(ValueError, match="non-finite entries in feature array"):
            learn()
    model = mm.fit(pool, positions, hp)
    sample = tests[0].copy()
    sample[0, 3] = np.nan
    for step in (model.update_recursive, model.predict_recursive):
        with pytest.raises(ValueError, match="non-finite entries in feature array"):
            step(sample)
    assert model.update_count == 0 and model.pool.shape[0] == pool.shape[0]


def test_oracle_compares_hold_under_other_numerics():
    # an AVX2-only NumPy and OpenBLAS's Haswell kernels, each emulated in
    # one child process; the variable is set in the child's environment only
    tests = Path(__file__).parent
    src = str(Path(mm.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # both children start before either is waited on, so they overlap
    children = {(name, value): subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(tests / t) for t in _ORACLE_COMPARES)],
        cwd=tests.parent, env=dict(os.environ, PYTHONPATH=path, **{name: value}),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, value in _OTHER_HOSTS.items()}
    for (name, value), child in children.items():
        stdout, stderr = child.communicate()
        assert child.returncode == 0, f"{name}={value}:\n{stdout[-3000:]}{stderr[-3000:]}"
        assert "9 passed" in stdout, stdout[-500:]
