"""Toy-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs both workloads at toy size in one process, untraced and traced, and
asserts that the result line has the contract's keys, that no check
failed, and that every metric BENCHMARK.json names is printed, as a
table line and in the result, with its unit.  Then copies only
BENCHMARK.json and perfbench/ into a scratch directory inside the
checkout and asserts the benchmark exits non-zero there without printing
a result.  Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk", "online")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck: FAILED {what}")


def check_metrics(spec: dict, trace: int) -> None:
    listed = spec["per_layer" if trace else "end_to_end"]
    proc = _run(ROOT, "--workload", "all", "--size", "toy", "--seed", "1",
                "--seconds", "1", "--trace", str(trace))
    _require(proc.returncode == 0, f"trace {trace} run exited {proc.returncode}:\n"
             f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    _require(set(result) == {"correct", "attempted", "failed", "metrics"},
             f"result keys {sorted(result)}")
    _require(result["correct"] is True and result["failed"] == 0
             and result["attempted"] >= 1, f"checks: {proc.stderr[-3000:]}")
    want = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in listed}
    _require(set(result["metrics"]) == set(want),
             f"metric names differ: {sorted(set(result['metrics']) ^ set(want))}")
    table = {tuple(line.split()[:2]): line.split() for line in lines[:-2]}
    for key, unit in want.items():
        got = result["metrics"][key]
        _require(got["unit"] == unit, f"{key} unit {got['unit']!r} != {unit!r}")
        _require(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                 f"{key} value {got['value']!r}")
        row = table.get(tuple(key.split(".", 1)))
        _require(row is not None and row[3] == unit and row[4].startswith("n="),
                 f"{key} not printed with its unit and sample count")


def check_refuses_without_program() -> None:
    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "desk", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        _require(proc.returncode != 0 and '"metrics"' not in proc.stdout,
                 "a checkout without src/ did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace in (0, 1):
        check_metrics(spec, trace)
    check_refuses_without_program()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
