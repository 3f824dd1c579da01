"""Named experiment presets, the run executor, CSV emission, and manifests.

Each preset expands to one or more single-drive runs (one per parameter
point / system size); every run writes its curve CSVs plus a ``manifest.json``
that captures the resolved configuration and the realized input sequence, so
a run can be replayed bit-identically.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .config import (
    ConfigError,
    ConfigFile,
    ExperimentConfig,
    build_config,
)
from .diagnostics import correlation_curve, otoc_curve, tmi_curve
from .driver import generate_inputs, run_drive
from .hamiltonian import CHAOTIC, FREE_FERMION, PERTURBED, spectral_model
from .regression import PerformanceCurve, data_deviation, stm_curve
from .version import __version__

SYSTEM_FIELDS = {
    "free": FREE_FERMION,
    "chaotic": CHAOTIC,
    "perturbed": PERTURBED,
}


class Preset(NamedTuple):
    """Runs of one paper figure: a drive per regime and chain length."""

    regimes: tuple[str, ...]
    tasks: dict
    readouts: tuple[str, ...] | None = None  # None: z1..zN, as in build_config
    sizes: tuple[int, ...] = (7,)


_STM3 = {"stm_delays": [0, 1, 2]}
_FIG5_READOUTS = ("z2", "z3", "x2*x3", "z2*z3")
_FIG5_TASKS = {
    "otoc": [{"w": "z2", "v": "z1"}, {"w": "z3", "v": "z1"}],
    "tmi": [{"a": [0], "b": [2], "c": [3]}],
}

# Preset name -> runs, in run order; file blocks and the CLI refine them.
PRESETS = {
    "fig3-free": Preset(("free",), _STM3),
    "fig3-chaotic": Preset(("chaotic",), _STM3),
    # A deviation run gets correlations 1..N, as the deviation total needs.
    "fig4": Preset(("free", "chaotic"), {"deviation": True}),
    "fig5-free": Preset(("free",), _FIG5_TASKS, _FIG5_READOUTS),
    "fig5-chaotic": Preset(("chaotic",), _FIG5_TASKS, _FIG5_READOUTS),
    "fig6": Preset(
        ("free", "perturbed"),
        {
            "otoc": [{"w": "z2", "v": "z1"}, {"w": "z3", "v": "z1"},
                     {"w": "z2", "v": "x1"}, {"w": "z3", "v": "x1"}],
            "tmi": [{"a": [0], "b": [2], "c": [3]},
                    {"a": [0], "b": [2], "c": [3, 4]}],
        },
        ("x2*x3", "z2*z3", "z2*x3", "x2*z3"),
    ),
    "appA": Preset(("free", "chaotic"), _STM3, sizes=(6, 7, 8, 9, 10)),
    "appB": Preset(
        ("free", "perturbed", "chaotic"),
        {},
        tuple(
            "x2 x3 x4 z2 z3 z4 x2*x3 x2*z3 z2*x3 z2*z3 x2*x4 x2*z4 z2*x4 z2*z4"
            " x3*x4 x3*z4 z3*x4 z3*z4".split()
        ),
    ),
    "appC": Preset(
        ("free", "perturbed", "chaotic"),
        {
            "stm_delays": [],
            "otoc": [{"w": "x2*x3", "v": "z1"}, {"w": "z2*z3", "v": "z1"},
                     {"w": "x2", "v": "x3"}, {"w": "z2", "v": "z3"}],
        },
        (),
    ),
}
PRESET_NAMES = tuple(PRESETS)

# CLI override -> (block, file key) it sets, over the preset and the file.
OVERRIDES = {
    "n": ("model", "n"),
    "seed": ("drive", "seed"),
    "grid": ("drive", "n_grid"),
    "tmi_cap": ("drive", "tmi_cap"),
}


@dataclass
class RunPlan:
    """One concrete drive: output subdirectory plus resolved configuration."""

    rel_dir: str
    config: ExperimentConfig


def _expand_preset(name: str, n: int | None) -> list[tuple[str, dict]]:
    """Preset name -> list of (relative dir, config blocks); ``n`` replaces
    the preset's chain lengths."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        )
    preset = PRESETS[name]
    runs = []
    for regime in preset.regimes:
        h_x, h_z = SYSTEM_FIELDS[regime]
        for size in (n,) if n else preset.sizes:
            tasks = dict(preset.tasks)
            if tasks.get("deviation"):
                tasks["correlations"] = list(range(1, size + 1))
            if len(preset.sizes) > 1:
                rel_dir = f"{regime}/n{size}"
            else:
                rel_dir = regime if len(preset.regimes) > 1 else ""
            model = {"n": size, "h_x": h_x, "h_z": h_z}
            blocks = {"model": model, "readouts": preset.readouts, "tasks": tasks}
            runs.append((rel_dir, blocks))
    return runs


def plan_runs(
    preset: str | None = None,
    doc: ConfigFile | None = None,
    overrides: dict | None = None,
) -> list[RunPlan]:
    """Resolve preset defaults, config-file blocks, and CLI overrides.

    Precedence per key: preset < config file < overrides; ``overrides`` holds
    the keys of ``OVERRIDES``, where None leaves a key unset.
    """
    doc = doc or ConfigFile()
    blocks = {"model": dict(doc.model), "drive": dict(doc.drive)}
    for key, value in (overrides or {}).items():
        if key not in OVERRIDES:
            raise ConfigError(f"unknown override {key!r}")
        if value is not None:
            block, file_key = OVERRIDES[key]
            blocks[block][file_key] = value
    name = preset or doc.preset
    runs = _expand_preset(name, blocks["model"].get("n")) if name else [("", {})]
    return [
        RunPlan(
            rel_dir,
            build_config(
                {**base.get("model", {}), **blocks["model"]},
                blocks["drive"],
                base.get("readouts") if doc.readouts is None else doc.readouts,
                {**base.get("tasks", {}), **doc.tasks},
            ),
        )
        for rel_dir, base in runs
    ]


# Rows formatted per write.  A block's cells are Python objects: 256 rows of
# a 23-column record peaked at 0.4 MiB traced and raised a run's peak RSS by
# about 0.3 MiB; 64 rows peak at 0.1 MiB and write as fast.
ROWS_PER_WRITE = 64


def write_csv(path: Path, header: str, columns: Iterable) -> None:
    """Write equal-length 1-D columns under a comma-separated header line.

    Each column's cells are formatted by its dtype: ``%d`` for integers,
    ``%.17g`` for floats, ``%s`` otherwise.  Rows are formatted and written
    ``ROWS_PER_WRITE`` at a time, so no output is ever held whole as text.
    """
    columns = [np.asarray(column) for column in columns]
    kinds = {"i": "%d", "u": "%d", "f": "%.17g"}
    line = ",".join(kinds.get(c.dtype.kind, "%s") for c in columns) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), ROWS_PER_WRITE):
            block = [c[start : start + ROWS_PER_WRITE].tolist() for c in columns]
            fh.writelines(line % row for row in zip(*block))


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path,
    preset: str | None = None,
    system: str = "",
) -> Path:
    """Run one drive, emit every requested CSV, and write the manifest.

    Returns the manifest path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    model = spectral_model(config.model)
    inputs = generate_inputs(config.drive.seed, config.drive.n_total)
    # Snapshots feed TMI only, so a run without TMI tasks keeps none.
    drive = config.drive if config.tasks.tmi else replace(config.drive, tmi_cap=0)
    record, ensemble = run_drive(drive, model, list(config.readouts), inputs)

    outputs: list[str] = []
    results: dict = {}
    warnings: dict = {
        "degenerate_ground": model.degenerate_ground,
        "max_trace_drift": ensemble.max_trace_drift,
        "max_hermiticity_residue": ensemble.max_hermiticity_residue,
    }
    grid = config.drive.grid
    n_grid = len(grid)

    def emit(name: str, header: str, *columns) -> None:
        write_csv(out_dir / name, header, columns)
        outputs.append(name)

    curves: dict[tuple[str, int], PerformanceCurve] = {}
    for label in config.readouts:
        for delay in config.tasks.stm_delays:
            curve = curves[(label, delay)] = stm_curve(record, label, delay)
            emit(
                f"stm_{label.replace('*', '')}_d{delay}.csv",
                "operator,d,tau,r2,w_o,w_c",
                np.full(n_grid, label), np.full(n_grid, delay),
                curve.taus, curve.r2, curve.w_o, curve.w_c,
            )

    corr_values: dict[int, np.ndarray] = {}
    for qubit in config.tasks.correlations:
        values = corr_values[qubit] = correlation_curve(ensemble, qubit, model, grid)
        emit(
            f"corr_z1_z{qubit}.csv", "tau,real,imag,modulus",
            grid, values.real, values.imag, np.abs(values),
        )

    if config.tasks.deviation:
        qubits = sorted(config.tasks.correlations)
        corr_abs = np.abs(np.concatenate([corr_values[q] for q in qubits]))
        r2 = np.concatenate([curves[(f"z{q}", 0)].r2 for q in qubits])
        windows = config.tasks.deviation_windows
        delta, bins = data_deviation(np.clip(corr_abs, 0.0, 1.0), r2, windows)
        emit(
            "deviation_pairs.csv", "qubit,tau,corr_abs,r2",
            np.repeat(qubits, n_grid), np.tile(grid, len(qubits)), corr_abs, r2,
        )
        m = np.flatnonzero(bins.counts)
        emit(
            "deviation_bins.csv", "m,count,mean_r2,sum_sq_dev",
            m, bins.counts[m], bins.means[m], bins.sq_dev[m],
        )
        results["deviation_total"] = delta
        results["deviation_windows"] = windows

    max_otoc_imag = 0.0
    for spec in config.tasks.otoc:
        values = otoc_curve(ensemble, spec, model, grid)
        max_otoc_imag = max(max_otoc_imag, float(np.max(np.abs(values.imag))))
        emit(
            f"otoc_{spec.name()}.csv", "tau,value,imag", grid, values.real, values.imag
        )
    if config.tasks.otoc:
        results["max_otoc_imag"] = max_otoc_imag

    if config.tasks.tmi:
        curves = tmi_curve(ensemble, config.tasks.tmi, model, grid)
        for spec, values in zip(config.tasks.tmi, curves):
            emit(f"tmi_{spec.name()}.csv", "tau,value", grid, values)
        results["tmi_samples"] = ensemble.n_samples

    if config.tasks.record:
        rows = record.n_train + record.n_test
        steps = np.arange(rows)
        emit(
            "readouts.csv",
            ",".join(["k", "phase", "tau", *record.operators]),
            np.repeat(record.first_step + steps, n_grid),
            np.repeat(np.where(steps < record.n_train, "train", "test"), n_grid),
            np.tile(grid, rows),
            # rows * n_grid, not -1: a drive without read-outs has size 0
            *record.values.reshape(len(record.operators), rows * n_grid),
        )

    manifest = {
        "version": __version__,
        "preset": preset,
        "system": system,
        "config": config.blocks(),
        "inputs": {
            "algorithm": "numpy-pcg64",
            "seed": inputs.seed,
            "digest_sha256": inputs.digest(),
            "values": [float(v) for v in inputs.values],
        },
        "warnings": warnings,
        "results": results,
        "outputs": outputs,
        "duration_seconds": time.perf_counter() - started,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest_path


def replay_manifest(manifest_path: str | Path, out_dir: str | Path) -> Path:
    """Re-run the configuration recorded in a manifest."""
    manifest = json.loads(Path(manifest_path).read_text())
    blocks = manifest["config"]
    config = build_config(
        blocks["model"], blocks["drive"], blocks.get("readouts"), blocks["tasks"]
    )
    return run_experiment(
        config,
        out_dir,
        preset=manifest.get("preset"),
        system=manifest.get("system", ""),
    )
