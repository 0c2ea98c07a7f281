"""The benchmark must keep running against the program.

``perfbench/tracing.py`` replaces program functions at named lookup
places, and ``perfbench/workloads.py`` calls the program directly; a
rename or a changed return type in the program would otherwise break the
benchmark without failing any test of the program itself.  The import
graph is guarded too, since every process pays for what it loads.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_instrument_wraps_every_target_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    places = [(owner, attr) for owners, _, _ in tracing._targets() for owner, attr in owners]
    originals = [owner.__dict__[attr] for owner, attr in places]
    restore = tracing.instrument(tracing.Tracer(run_id="t"))
    try:
        for (owner, attr), original in zip(places, originals):
            wrapper = owner.__dict__[attr]
            assert wrapper is not original, f"{owner.__name__}.{attr} not wrapped"
            assert wrapper.__wrapped__ is original
    finally:
        restore()
    for (owner, attr), original in zip(places, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


# config hash of every config the benchmark runs, and of the README's CLI
# example, as each resolved when recorded
_BENCH_CONFIG_HASHES = {
    "readme": "c5ffc8498197c8934f2bd89b1b630461067e8ee076713e6bf77a898c839608e6",
    "bench/desk/3": "eb539d4c04d41469d616eb2caf2dd0156f0640a339d474910bdafefc2a08001d",
    "bench/desk/17": "1809263c34b20357257fb55a0fec2bd440d4a990c65b2fba8cca130596e1bdf1",
    "bench/online/3": "30556a781937b0444c8019a3f6fb32b98a12fd4a0821c591665c97e0bc1219fe",
    "bench/online/17": "2972291f0697cd39dd162fecc7dc9a2b0431f7591e21ad70d1416eed41d86da1",
    "p6/desk/3": "ed974d964838b2149daddb4911ab23383d84280af5e0d4d0221fe109f024eb8f",
    "p6/desk/17": "2cfd6b5fd23e2f6b6fc6b52bc3c9ff7dfba144efdeaac400c5221ea2db49397d",
    "p6/online/3": "30556a781937b0444c8019a3f6fb32b98a12fd4a0821c591665c97e0bc1219fe",
    "p6/online/17": "2972291f0697cd39dd162fecc7dc9a2b0431f7591e21ad70d1416eed41d86da1",
    "toy/desk/3": "f735470f355467e0dbbad92470b8490083cab88380d3be24157be435e4cb7cee",
    "toy/desk/17": "33db6ad1f636e0596e7362580fbd9f6a092af37c1ffabdb5866a73e4952b6000",
    "toy/online/3": "13dc1a6444080a6c329bc10cb624f76bd36a992a79d914c102a7e3f03fd531c7",
    "toy/online/17": "784f8b6b830c0a71d918328ded219e3ccf2a2b125256357a56e1907dfb92c4c1",
}


def test_benchmark_configs_resolve_to_their_recorded_hashes(monkeypatch, tmp_path):
    # a config rule the benchmark's configs break (a closed key they carry, a
    # rate or duration they fall short of) would fail every benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from mmgploc import cli

    section = (ROOT / "README.md").read_text().split("\n## CLI pipeline\n", 1)[1]
    configs = {"readme": json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))}
    for size, shapes in workloads.SHAPES.items():
        for name, shape in shapes.items():
            for seed in (3, 17):
                configs[f"{size}/{name}/{seed}"] = workloads.pipeline_config(seed, shape)
    hashes = {}
    for name, cfg in configs.items():
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        hashes[name] = cli.config_fingerprint(cli.resolve_config(path))
    assert hashes == _BENCH_CONFIG_HASHES


def test_benchmark_toy_pass_runs_clean():
    # untraced: the traced pass adds timing checks that can fail on a busy host
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "all", "--size", "toy",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0


# the one check a traced pass may fail on correct code: a host stall that lands
# in a stage's unspanned time widens the gap between its wall and its spans
_HOST_STALL = re.compile(r"(desk|online): FAILED trace \S+: layer self times sum to the "
                         r"stage wall \(gap -?\d+\.\d+ ms\)")


def test_benchmark_traced_toy_pass_fails_no_output_check():
    # traced: the tracer wraps program functions, and its checks cover the
    # outputs of the wrapped runs; only the timing check above may fail
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "all", "--size", "toy",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    failed = [line for line in run.stderr.splitlines() if "FAILED" in line]
    assert all(_HOST_STALL.fullmatch(line) for line in failed), run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0 and result["failed"] == len(failed), run.stderr


def test_program_imports_leave_scipy_signal_out():
    # scipy.signal drags in scipy.stats, interpolate and spatial, about
    # 0.7 s per process; only reference paths import it, inside functions
    code = ("import sys\n"
            "import mmgploc.cli, mmgploc.acoustic_sim, mmgploc.rtf_features\n"
            "import mmgploc.mmgp_model, mmgploc.dataio, mmgploc.baselines\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
