"""Benchmark of the qrp simulator: one workload per call, timed and checked.

    python3 perfbench/run.py --workload drive-scan --seed 1 --seconds 30 --trace 0

Run from the repository root; ``src/qrp`` is imported from the source tree.
The workload runs in a fresh Python process (``worker.py``) with the BLAS
thread count pinned before numpy is imported.  Set-up is sampled in a few
more processes that stop at the first ``run_experiment`` call, and
``setup_s`` is their median.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 5  # set-up processes per call, the measured workload included
TIME_LIMIT_S = 170.0  # one call must end within 180 s


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MiB"
    return "s"


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(worker_args: list[str], timeout: float) -> dict:
    """Run one worker process; its report gains ``setup_s`` from spawn time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *worker_args],
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
    report["setup_s"] = report["setup_end"] - start
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qrp" / "__init__.py").is_file():
        print(f"error: no qrp source tree under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2

    begun = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = BENCH_DIR / "runs" / tag
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [
            spawn(common + ["--run-dir", str(run_dir / f"setup{i}"), "--setup-only"], 60)
            for i in range(SETUP_SAMPLES - 1)
        ]
        trace_file = BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        main_report = spawn(
            common + ["--run-dir", str(run_dir / "work"), "--trace-file", str(trace_file)],
            TIME_LIMIT_S - (time.perf_counter() - begun),
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}; outputs kept in {run_dir}", file=sys.stderr)
        return 1
    setups.append(main_report)

    rounds = main_report["rounds"]
    plain = [r["solve_s"] for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {
            name: statistics.median(s["setup"][name] for s in setups)
            for name in main_report["setup"]
        }
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(r["solve_s"] for r in traced) - statistics.median(plain)
        )
    else:
        metrics = {
            "solve_s": statistics.median(plain),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": main_report["peak_rss_mb"],
        }

    failures = main_report["failures"]
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if failures:
        print(f"outputs kept in {run_dir}", file=sys.stderr)
    else:
        shutil.rmtree(run_dir)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"attempted {main_report['attempted']}  failed {main_report['failed']}  "
          f"BLAS threads {child_env()['OPENBLAS_NUM_THREADS']}")
    print("  round solve_s: " + " ".join(
        f"{r['solve_s']:.3f}{'*' if r['traced'] else ''}" for r in rounds))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit_of(name)}")
    result = {
        "correct": not failures,
        "attempted": main_report["attempted"],
        "failed": main_report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
