"""Exact work counts of the simulator and the stream step, taken through monkeypatch wrappers.

A count does not move with the host or its load, so a change in the work
a step does shows here without timing it.
"""

import numpy as np
from conftest import make_artf, make_set

from mmgploc import acoustic_sim as ac
from mmgploc import cli
from mmgploc import kernels as kn
from mmgploc import mmgp_model as mm
from mmgploc import rtf_features as rf


def _count(monkeypatch, name, *owners):
    """Replace ``name`` in each owner by one wrapper; returns the list of each call's args."""
    original = getattr(owners[0], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_pool_rows_are_prepared_once_per_pool(monkeypatch):
    rng = np.random.default_rng(73)
    pool = make_set(rng, 12, 3, 5)
    positions = rng.uniform(0.5, 4.0, (6, 2))
    hp = kn.Hyperparameters(eps=[2.0, 3.0, 4.0], sigma2=0.05)
    prepared = _count(monkeypatch, "prepare_rows", kn, mm)
    grams = _count(monkeypatch, "gram_stack", mm)

    model = mm.fit(pool, positions, hp)
    assert [args[0].shape[0] for args in prepared] == [12]

    # samples the pool already holds are not absorbed: one Gram row each, no rows prepared
    prepared.clear()
    grams.clear()
    for t in pool[:10]:
        model.predict_recursive(t)
    assert model.update_count == 0
    assert prepared == [] and len(grams) == 10

    # an absorb prepares the grown pool once; the update's Gram of the
    # labelled set against the sample prepares that one sample itself
    for step in range(1, 4):
        prepared.clear()
        model.predict_recursive(make_artf(rng, 3, 5))
        assert model.update_count == step
        assert sorted(args[0].shape[0] for args in prepared) == [1, 12 + step]


def test_one_rfft_per_node_over_both_channels(monkeypatch):
    rfft = np.fft.rfft
    shapes = []

    def counting(x, *args, **kwargs):
        shapes.append((x.shape, kwargs.get("n")))
        return rfft(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    cfg = rf.SpectralConfig()
    # a 1 s block of a 3-node recording: 28 frames of 2048 samples
    x = np.random.default_rng(79).standard_normal((6, 16000))
    rf.artf_from_record(ac.MeasurementRecord(signals=x, sample_rate=16000.0, num_nodes=3), cfg)
    assert shapes == [((2, 28, 2048), 2048)] * 3


def test_simulate_rir_calls_and_images_of_the_tiny_config(monkeypatch, tmp_path):
    # the tiny config of the CLI tests: 9 records of one node, one response
    # per microphone, each the direct path alone (anechoic, order cap 0)
    from test_cli import _resolve, tiny_config
    lattice = ac._image_lattice
    rirs = _count(monkeypatch, "simulate_rir", ac)
    lattices = _count(monkeypatch, "_image_lattice", ac)
    cli.cmd_simulate(_resolve(tmp_path, tiny_config()), tmp_path / "ds")
    images = [lattice(*args).shape[1] for args in lattices]
    assert (len(rirs), images) == (18, [1] * 18)
