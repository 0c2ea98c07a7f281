"""Exact work counts of the simulator and the stream step, taken through monkeypatch wrappers.

A count does not move with the host or its load, so a change in the work
a step does shows here without timing it.
"""

from collections import Counter
from functools import partial
from pathlib import Path

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


# per stage of the tiny CLI pipeline: FFT calls and the transform length summed
# over every 1-D transform, gram_stack calls and entries, spd_factor calls,
# blob bytes read and written, and atomic_write calls.  No count rests on
# rounding: the config takes median widths, so no optimizer runs, and its
# test samples score above 0.999 at the stream's 0.9 novelty gate, so none
# is absorbed
_TINY_PIPELINE_WORK = {
    "simulate": {"atomic_writes": 11, "blob_bytes_written": 703584, "fft_calls": 45,
                 "fft_length": 225000},
    "features": {"atomic_writes": 10, "blob_bytes_read": 703584, "blob_bytes_written": 21456,
                 "fft_calls": 9, "fft_length": 294912},
    "fit": {"atomic_writes": 2, "blob_bytes_read": 14304, "gram_stack_calls": 1,
            "gram_stack_entries": 24, "spd_factor_calls": 1},
    "localize": {"atomic_writes": 1, "blob_bytes_read": 7152, "gram_stack_calls": 4,
                 "gram_stack_entries": 42, "spd_factor_calls": 1},
    "localize --streaming": {"atomic_writes": 1, "blob_bytes_read": 7152, "gram_stack_calls": 4,
                             "gram_stack_entries": 42, "spd_factor_calls": 1},
    "baseline mean": {"atomic_writes": 1, "blob_bytes_read": 21456, "gram_stack_calls": 5,
                      "gram_stack_entries": 66, "spd_factor_calls": 2},
    "baseline kernel-product": {"atomic_writes": 1, "blob_bytes_read": 21456,
                                "gram_stack_calls": 5, "gram_stack_entries": 52,
                                "spd_factor_calls": 2},
    "baseline srp-phat": {"atomic_writes": 1, "blob_bytes_read": 234448, "fft_calls": 6,
                          "fft_length": 36864},
    **{f"evaluate {tag}": {"atomic_writes": 1} for tag in ("mmgp", "stream", "mean", "kp", "srp")},
}


def test_work_of_each_stage_of_the_tiny_pipeline(monkeypatch, tmp_path):
    from test_cli import _resolve, tiny_config

    from mmgploc import baselines as bl
    from mmgploc import dataio as dio
    from mmgploc import hyperopt as ho

    work = Counter()

    def wrap(name, owners, count):
        original = getattr(owners[0], name)

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            count(args, kwargs, result)
            return result

        for owner in owners:
            monkeypatch.setattr(owner, name, counting)

    def fft(inverse):
        def count(args, kwargs, result):
            x, axis = np.asarray(args[0]), kwargs.get("axis", -1)
            n = args[1] if len(args) > 1 else kwargs.get("n")
            if n is None:
                n = 2 * (x.shape[axis] - 1) if inverse else x.shape[axis]
            work.update(fft_calls=1, fft_length=n * (x.size // x.shape[axis]))
        return count

    wrap("rfft", [np.fft], fft(inverse=False))
    wrap("irfft", [np.fft], fft(inverse=True))
    wrap("gram_stack", [kn, mm, bl],
         lambda a, k, r: work.update(gram_stack_calls=1, gram_stack_entries=r.per_node.size))
    wrap("spd_factor", [mm, ho], lambda a, k, r: work.update(spd_factor_calls=1))
    wrap("read_blob", [dio],
         lambda a, k, r: work.update(blob_bytes_read=Path(a[0]).stat().st_size))
    wrap("write_blob", [dio],
         lambda a, k, r: work.update(blob_bytes_written=Path(a[0]).stat().st_size))
    wrap("atomic_write", [dio, mm], lambda a, k, r: work.update(atomic_writes=1))

    cfg = _resolve(tmp_path, tiny_config())
    ds, model = tmp_path / "ds", tmp_path / "model.bin"
    est = {tag: tmp_path / f"est_{tag}.csv" for tag in ("mmgp", "stream", "mean", "kp", "srp")}
    stages = {"simulate": partial(cli.cmd_simulate, cfg, ds),
              "features": partial(cli.cmd_features, ds),
              "fit": partial(cli.cmd_fit, cfg, ds, model),
              "localize": partial(cli.cmd_localize, model, ds, est["mmgp"]),
              "localize --streaming": partial(cli.cmd_localize, model, ds, est["stream"],
                                              streaming=True)}
    for method, tag in (("mean", "mean"), ("kernel-product", "kp"), ("srp-phat", "srp")):
        stages[f"baseline {method}"] = partial(cli.cmd_baseline, cfg, method, ds, est[tag],
                                               model_path=model)
    for tag, path in est.items():
        stages[f"evaluate {tag}"] = partial(cli.cmd_evaluate, path, ds, tmp_path / f"m_{tag}.csv")
    table = {}
    for stage, run in stages.items():
        work.clear()
        run()
        table[stage] = dict(sorted(work.items()))
    assert table == _TINY_PIPELINE_WORK
