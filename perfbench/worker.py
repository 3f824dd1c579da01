"""One benchmark workload in a fresh process.

The process imports ``qrp``, warms BLAS/LAPACK up, resolves the workload's
YAML config files through ``parse_config`` and ``plan_runs`` (the path of
``qrp run --config``), and then calls ``run_experiment`` for every plan, in
whole rounds, until its time is up.  After the timed rounds it checks the
outputs, runs the small-N oracle and prints one JSON report as the last line
of standard output.  ``run.py`` starts this script with the BLAS thread
count already pinned in the environment; run it through ``run.py``.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import qrp  # noqa: E402
from qrp import experiment  # noqa: E402

IMPORT_S = time.perf_counter() - PROCESS_T0

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402


def _drive_scan_docs(n: int, drive: dict) -> list[tuple[str, dict]]:
    readouts = [f"z{i}" for i in range(1, n + 1)]
    readouts += [f"x{i}" for i in range(1, n + 1)]
    readouts += [f"x{i}*x{i + 1}" for i in range(1, n)]
    return [
        (
            regime,
            {
                "preset": f"fig3-{regime}",
                "model": {"n": n},
                "drive": drive,
                "readouts": readouts,
                "tasks": {"stm_delays": [0, 1, 2], "record": True},
            },
        )
        for regime in ("free", "chaotic")
    ]


def _probe_docs(n: int, drive: dict) -> list[tuple[str, dict]]:
    # record: true keeps the read-out lattice, which the parity check reads.
    return [("", {"preset": "fig6", "model": {"n": n}, "drive": drive,
                  "tasks": {"record": True}})]


def _large_chain_docs(n: int, drive: dict) -> list[tuple[str, dict]]:
    return [("", {"preset": "fig4", "model": {"n": n}, "drive": drive})]


# name -> (config docs, chain length, drive block, oracle chain length).
# The drive lengths and tmi_cap size each round to fit a 30-s run (about
# 4, 15 and 28 s); the make-up of every workload is fixed by its docs function.  The oracle
# shrinks the same docs; probe-diagnostics needs N = 4 because its second
# TMI partition names qubit 4.
WORKLOADS = {
    "drive-scan": (
        _drive_scan_docs, 7, {"washout": 100, "train": 150, "test": 150}, 3,
    ),
    "probe-diagnostics": (
        _probe_docs, 7, {"washout": 50, "train": 100, "test": 100, "tmi_cap": 8}, 4,
    ),
    "large-chain": (
        _large_chain_docs, 8, {"washout": 50, "train": 100, "test": 100}, 3,
    ),
}
ORACLE_DRIVE = {"washout": 6, "train": 12, "test": 12, "tmi_cap": 5}

# Names that qrp.experiment calls into the layers, and run_experiment itself.
WRAPPED = (
    "spectral_model",
    "generate_inputs",
    "run_drive",
    "stm_curve",
    "data_deviation",
    "correlation_curve",
    "otoc_curve",
    "tmi_curve",
    "write_csv",
    "run_experiment",
)
# Spans whose RSS rise counts towards a layer's rss_growth_mb.
RSS_LAYERS = {
    "run_drive": "driver",
    "correlation_curve": "diagnostics",
    "otoc_curve": "diagnostics",
    "tmi_curve": "diagnostics",
}
# Work done by one call, for the rates: intervals driven, TMI points evaluated.
WORK = {
    "run_drive": lambda args: args[0].n_total,
    "tmi_curve": lambda args: args[0].n_samples * len(args[3]),
}
PAGE_MB = resource.getpagesize() / 2**20


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


class Tracer:
    """Spans around the calls that ``qrp.experiment`` makes into each layer.

    Spans stay in memory; ``dump`` writes them out when the run ends.
    """

    def __init__(self):
        self.originals = {name: getattr(experiment, name) for name in WRAPPED}
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def install(self) -> None:
        for name, fn in self.originals.items():
            setattr(experiment, name, self._wrap(name, fn))

    def remove(self) -> None:
        for name, fn in self.originals.items():
            setattr(experiment, name, fn)

    def _wrap(self, name, fn):
        work = WORK.get(name)

        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "rss_before": rss_mb(),
                "work": work(args) if work else 1,
            }
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_after"] = rss_mb()
                self.stack.pop()

        return traced

    def layer_metrics(self, first: int) -> dict:
        """Per-layer figures of the spans recorded since index ``first``."""
        spans = self.spans[first:]
        busy: dict[str, float] = {name: 0.0 for name in WRAPPED}
        work: dict[str, float] = {name: 0.0 for name in WRAPPED}
        child: dict[int, float] = {}
        rise = {"driver": 0.0, "diagnostics": 0.0}
        for index, span in enumerate(spans, start=first):
            length = span["end"] - span["start"]
            busy[span["name"]] += length
            work[span["name"]] += span["work"]
            if span["parent"] is not None:
                child[span["parent"]] = child.get(span["parent"], 0.0) + length
            layer = RSS_LAYERS.get(span["name"])
            if layer:
                rise[layer] = max(rise[layer], span["rss_after"] - span["rss_before"])
        self_s = sum(
            span["end"] - span["start"] - child.get(index, 0.0)
            for index, span in enumerate(spans, start=first)
            if span["name"] == "run_experiment"
        )

        def rate(name):
            return work[name] / busy[name] if busy[name] > 0 else 0.0

        return {
            "hamiltonian.spectral_model_s": busy["spectral_model"],
            "driver.run_drive_s": busy["run_drive"],
            "driver.intervals_per_s": rate("run_drive"),
            "driver.rss_growth_mb": rise["driver"],
            "regression.stm_curve_s": busy["stm_curve"],
            "regression.data_deviation_s": busy["data_deviation"],
            "diagnostics.correlation_curve_s": busy["correlation_curve"],
            "diagnostics.otoc_curve_s": busy["otoc_curve"],
            "diagnostics.tmi_curve_s": busy["tmi_curve"],
            "diagnostics.tmi_points_per_s": rate("tmi_curve"),
            "diagnostics.rss_growth_mb": rise["diagnostics"],
            "experiment.write_csv_s": busy["write_csv"],
            "experiment.self_s": self_s,
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"t0": PROCESS_T0, "spans": self.spans}) + "\n")


def blas_warmup(n: int) -> None:
    """Exercise complex eigh and complex matmul at the workload's sizes.

    The first LAPACK call of a process sometimes stalls for about a second;
    this moves that one-off cost into set-up, where it is measured.
    """
    rng = np.random.default_rng(0)
    dim = 2 ** (n + 1)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = a + a.conj().T
    np.linalg.eigh(a[: dim // 2, : dim // 2])
    (a @ a).sum()


def plan_workload(docs: list[tuple[str, dict]], where: Path) -> list[tuple[Path, str, object]]:
    """Write each config file and resolve it as ``qrp run --config`` does.

    Returns (output subdirectory, preset name, plan) for every planned run.
    """
    where.mkdir(parents=True, exist_ok=True)
    planned = []
    for index, (subdir, doc) in enumerate(docs):
        path = where / f"config{index}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        parsed = qrp.parse_config(path)
        for plan in experiment.plan_runs(None, parsed, {}):
            rel = Path(subdir) / plan.rel_dir
            planned.append((rel, parsed.preset, plan))
    return planned


def run_round(planned, out_root: Path) -> int:
    """Every planned run once; returns the number that raised."""
    failed = 0
    for rel, preset, plan in planned:
        try:
            experiment.run_experiment(
                plan.config, out_root / rel, preset=preset, system=plan.rel_dir
            )
        except Exception:  # a failing run is counted, and the round goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
    return failed


def run_oracle(docs: list[tuple[str, dict]], where: Path) -> tuple[int, int, list[str]]:
    """The workload shrunk to a small chain, run twice, then checked.

    Returns (runs attempted, runs failed, failure messages).  The two runs
    must agree byte for byte, and each output must match the ``expm``
    replay of its manifest.
    """
    docs = [(sub, {**doc, "tasks": {**doc.get("tasks", {}), "record": True}})
            for sub, doc in docs]
    planned = plan_workload(docs, where / "config")
    rels = [rel for rel, _, _ in planned]
    failed = run_round(planned, where / "round0") + run_round(planned, where / "round1")
    failures = checks.compare_rounds(where / "round0", where / "round1")
    failures += checks.check_workload(where / "round0", rels, contrasts=False)
    for rel in rels:
        failures += [
            f"{rel}: {msg}" for msg in checks.guarded(checks.compare_with_replay, where / "round0" / rel)
        ]
    return 2 * len(planned), failed, [f"oracle: {msg}" for msg in failures]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    docs_of, n, drive, oracle_n = WORKLOADS[args.workload]
    drive = {**drive, "seed": args.seed}

    t0 = time.perf_counter()
    blas_warmup(n)
    t1 = time.perf_counter()
    planned = plan_workload(docs_of(n, drive), args.run_dir / "config")
    setup_end = time.perf_counter()
    report = {
        "setup_end": setup_end,
        "setup": {
            "setup.import_s": IMPORT_S,
            "setup.blas_warmup_s": t1 - t0,
            "config.plan_runs_s": setup_end - t1,
        },
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = Tracer() if args.trace else None
    min_rounds = 2 if args.trace else 1
    rounds: list[dict] = []
    failures: list[str] = []
    attempted = failed = 0
    first_dir = args.run_dir / "round0"
    while True:
        # With tracing on, rounds alternate untraced and traced, so that one
        # process gives both sides of the tracing overhead.
        traced = tracer is not None and len(rounds) % 2 == 1
        out_root = args.run_dir / f"round{len(rounds)}"
        if traced:
            tracer.install()
        first_span = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        failed += run_round(planned, out_root)
        solve_s = time.perf_counter() - start
        if traced:
            tracer.remove()
        attempted += len(planned)
        entry = {"solve_s": solve_s, "traced": traced}
        if traced:
            entry["layers"] = tracer.layer_metrics(first_span)
        rounds.append(entry)
        if out_root != first_dir:
            failures += [
                f"{out_root.name}: {msg}" for msg in checks.compare_rounds(first_dir, out_root)
            ]
            shutil.rmtree(out_root)
        # Start another round only if it would end at most half a round
        # past the deadline.
        elapsed = time.perf_counter() - setup_end
        typical = statistics.median(r["solve_s"] for r in rounds)
        if len(rounds) >= min_rounds and elapsed + typical / 2 > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures += checks.check_workload(first_dir, [rel for rel, _, _ in planned])
    oracle = run_oracle(docs_of(oracle_n, {**ORACLE_DRIVE, "seed": args.seed}),
                        args.run_dir / "oracle")
    attempted += oracle[0]
    failed += oracle[1]
    failures += oracle[2]

    if tracer is not None and args.trace_file is not None:
        tracer.dump(args.trace_file)
    report.update(
        rounds=rounds,
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        failed=failed,
        failures=failures,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
