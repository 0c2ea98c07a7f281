"""Bit pins and input checks shared by the three GP models.

The fused-kernel model, both GP baselines and ML learning run through one
labelled-set core; refactoring it must not move a single output bit.  The
digests below were recorded from the implementation in which each model
still kept its own copy of the core, with two exceptions.  ``trace_csv``
was re-recorded when ML learning moved to L-BFGS-B.  ``save_model`` was
re-recorded for model file version 2, whose bytes equal the version 1 file
of the previous commit with the version field set to 2 and the derived
sections (labelled covariance, inverse, centered labels, label mean)
removed.  The digests depend on the floating-point results of the
NumPy/SciPy build, so re-record them from the previous commit, not from
the code under test, when that build changes.
"""

import hashlib

import numpy as np
import pytest
from conftest import make_set

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
    mm.save_model(model, path)
    assert sha256(path.read_bytes()) == PINS["save_model"]


def test_trace_csv_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(ho, "_MAX_ITERS", 30)
    pool, positions, _, _ = problem()
    result = ho.optimize(pool, positions)
    path = tmp_path / "trace.csv"
    ho.write_trace_csv(result, path)
    assert sha256(path.read_bytes()) == PINS["trace_csv"]


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
                  lambda: ho.log_likelihood_and_grad(hp, unlabelled, positions),
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
