"""The benchmark must keep running against the program.

``perfbench/tracing.py`` replaces program functions at named lookup
places, and ``perfbench/workloads.py`` calls the program directly; a
rename or a changed return type in the program would otherwise break the
benchmark without failing any test of the program itself.  The import
graph is guarded too, since every process pays for what it loads.
"""

import json
import os
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
