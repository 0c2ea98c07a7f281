"""Benchmark entry point.

    python3 perfbench/run.py --workload desk --seed 3 --seconds 3 --trace 0

Runs from the root of a source checkout and imports the program from its
``src/`` directory.  ``--workload all`` runs desk then online in one
process.  ``--trace 0`` prints every end-to-end metric, ``--trace 1`` the
per-layer metrics of a separate traced pass.  Human-readable lines come
first, then one JSON line with the run environment, and last one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("desk", "online", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time spent repeating the model stages after the first pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("bench", "p6", "toy"), default="bench",
                   help="bench: what BENCHMARK.json runs; p6: the P6 acceptance "
                        "config; toy: the self-check")
    return p.parse_args(argv)


def _pin_threads() -> None:
    """One BLAS/OpenMP thread, set the way MMGP_THREADS sets it, before NumPy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy loaded before the thread cap was set")
    os.environ["MMGP_THREADS"] = "1"
    from mmgploc import cli
    cli._cap_threads()


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _environment() -> dict:
    import numpy
    import scipy
    from mmgploc import acoustic_sim

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_caps": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_THREADS")},
        "image_source_backend": acoustic_sim.image_source_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    started = perf_counter()
    if not (SRC / "mmgploc" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'mmgploc'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _pin_threads()
    import tracing
    import workloads
    import_s = perf_counter() - started

    names = ["desk", "online"] if args.workload == "all" else [args.workload]
    attempted = failed = 0
    results = {}
    for name in names:
        work = WORK / f"{name}-{os.getpid()}"
        tracer = tracing.Tracer(run_id=f"{name}-{args.seed}-{os.getpid()}") \
            if args.trace else None
        restore = tracing.instrument(tracer) if tracer else None
        try:
            metrics, ledger = workloads.run(name, args.size, args.seed, args.seconds,
                                            work, tracer, import_s)
        finally:
            if restore:
                restore()
            shutil.rmtree(work, ignore_errors=True)
        import_s = 0.0   # a second workload in this process loads nothing
        attempted += ledger.attempted
        failed += ledger.failed
        for problem in ledger.problems:
            print(f"{name}: FAILED {problem}", file=sys.stderr)
        for metric, (value, unit, samples) in metrics.items():
            print(f"{name:7s} {metric:38s} {value:14.6g} {unit:6s} n={samples}")
        prefix = f"{name}." if len(names) > 1 else ""
        results.update({prefix + m: {"value": v, "unit": u}
                        for m, (v, u, _) in metrics.items()})
    with contextlib.suppress(OSError):
        WORK.rmdir()   # only when no other run is using it

    print(json.dumps({"environment": _environment()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
