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
from itertools import combinations
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import (
    ConfigError,
    ConfigFile,
    ExperimentConfig,
    build_config,
    default_readouts,
)
from .diagnostics import correlation_curve, otoc_curve, tmi_curve
from .driver import ReadoutRecord, StateEnsemble, generate_inputs, run_drive
from .hamiltonian import CHAOTIC, FREE_FERMION, PERTURBED, spectral_model
from .regression import data_deviation, stm_curve
from .version import __version__

SYSTEM_FIELDS = {
    "free": FREE_FERMION,
    "chaotic": CHAOTIC,
    "perturbed": PERTURBED,
}

PRESET_NAMES = (
    "fig3-free",
    "fig3-chaotic",
    "fig4",
    "fig5-free",
    "fig5-chaotic",
    "fig6",
    "appA",
    "appB",
    "appC",
)


@dataclass
class RunPlan:
    """One concrete drive: output subdirectory plus resolved configuration."""

    rel_dir: str
    config: ExperimentConfig


def _model_block(system: str, n: int) -> dict:
    h_x, h_z = SYSTEM_FIELDS[system]
    return {"n": n, "j": 1.0, "h_x": h_x, "h_z": h_z}


def _pair_labels(qubits: tuple[int, ...]) -> list[str]:
    labels = []
    for i, j in combinations(qubits, 2):
        for a in ("x", "z"):
            for b in ("x", "z"):
                labels.append(f"{a}{i}*{b}{j}")
    return labels


def _expand_preset(name: str, n: int | None) -> list[tuple[str, dict]]:
    """Preset name -> list of (relative dir, config blocks)."""
    if name in ("fig3-free", "fig3-chaotic"):
        system = name.split("-")[1]
        size = n or 7
        return [
            (
                "",
                {
                    "model": _model_block(system, size),
                    "readouts": default_readouts(size),
                    "tasks": {"stm_delays": [0, 1, 2]},
                },
            )
        ]
    if name == "fig4":
        size = n or 7
        return [
            (
                system,
                {
                    "model": _model_block(system, size),
                    "readouts": default_readouts(size),
                    "tasks": {
                        "stm_delays": [0],
                        "deviation": True,
                        "correlations": list(range(1, size + 1)),
                    },
                },
            )
            for system in ("free", "chaotic")
        ]
    if name in ("fig5-free", "fig5-chaotic"):
        system = name.split("-")[1]
        size = n or 7
        return [
            (
                "",
                {
                    "model": _model_block(system, size),
                    "readouts": ["z2", "z3", "x2*x3", "z2*z3"],
                    "tasks": {
                        "stm_delays": [0],
                        "otoc": [{"w": "z2", "v": "z1"}, {"w": "z3", "v": "z1"}],
                        "tmi": [{"a": [0], "b": [2], "c": [3]}],
                    },
                },
            )
        ]
    if name == "fig6":
        size = n or 7
        return [
            (
                system,
                {
                    "model": _model_block(system, size),
                    "readouts": ["x2*x3", "z2*z3", "z2*x3", "x2*z3"],
                    "tasks": {
                        "stm_delays": [0],
                        "otoc": [
                            {"w": "z2", "v": "z1"},
                            {"w": "z3", "v": "z1"},
                            {"w": "z2", "v": "x1"},
                            {"w": "z3", "v": "x1"},
                        ],
                        "tmi": [
                            {"a": [0], "b": [2], "c": [3]},
                            {"a": [0], "b": [2], "c": [3, 4]},
                        ],
                    },
                },
            )
            for system in ("free", "perturbed")
        ]
    if name == "appA":
        sizes = [n] if n else list(range(6, 11))
        return [
            (
                f"{system}/n{size}",
                {
                    "model": _model_block(system, size),
                    "readouts": default_readouts(size),
                    "tasks": {"stm_delays": [0, 1, 2]},
                },
            )
            for system in ("free", "chaotic")
            for size in sizes
        ]
    if name == "appB":
        size = n or 7
        readouts = [f"{a}{i}" for a in ("x", "z") for i in (2, 3, 4)]
        readouts += _pair_labels((2, 3, 4))
        return [
            (
                system,
                {
                    "model": _model_block(system, size),
                    "readouts": readouts,
                    "tasks": {"stm_delays": [0]},
                },
            )
            for system in ("free", "perturbed", "chaotic")
        ]
    if name == "appC":
        size = n or 7
        return [
            (
                system,
                {
                    "model": _model_block(system, size),
                    "readouts": [],
                    "tasks": {
                        "stm_delays": [],
                        "otoc": [
                            {"w": "x2*x3", "v": "z1"},
                            {"w": "z2*z3", "v": "z1"},
                            {"w": "x2", "v": "x3"},
                            {"w": "z2", "v": "z3"},
                        ],
                    },
                },
            )
            for system in ("free", "perturbed", "chaotic")
        ]
    raise ConfigError(
        f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
    )


def plan_runs(
    preset: str | None = None,
    doc: ConfigFile | None = None,
    overrides: dict | None = None,
) -> list[RunPlan]:
    """Resolve preset defaults, config-file blocks, and direct overrides.

    Precedence per key: preset < config file < overrides.
    """
    overrides = dict(overrides or {})
    name = preset or (doc.preset if doc else None)
    n_override = overrides.get("n") or (doc.model.get("n") if doc else None)
    base = _expand_preset(name, n_override) if name else [("", {})]

    plans = []
    for rel_dir, blocks in base:
        model_block = dict(blocks.get("model", {}))
        drive_block = dict(blocks.get("drive", {}))
        readouts = blocks.get("readouts")
        tasks_block = dict(blocks.get("tasks", {}))
        if doc is not None:
            model_block.update(doc.model)
            drive_block.update(doc.drive)
            if doc.readouts is not None:
                readouts = list(doc.readouts)
            tasks_block.update(doc.tasks)
        if overrides.get("n") is not None:
            model_block["n"] = overrides["n"]
        if overrides.get("seed") is not None:
            drive_block["seed"] = overrides["seed"]
        if overrides.get("grid") is not None:
            drive_block["n_grid"] = overrides["grid"]
        if overrides.get("tmi_cap") is not None:
            drive_block["tmi_cap"] = overrides["tmi_cap"]
        model_block.update(overrides.get("model", {}))
        drive_block.update(overrides.get("drive", {}))
        if overrides.get("readouts") is not None:
            readouts = list(overrides["readouts"])
        tasks_block.update(overrides.get("tasks", {}))
        plans.append(
            RunPlan(rel_dir, build_config(model_block, drive_block, readouts, tasks_block))
        )
    return plans


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _file_label(label: str) -> str:
    return label.replace("*", "")


def config_to_blocks(config: ExperimentConfig) -> dict:
    """Config as plain file-schema blocks (used in the manifest for replay)."""
    return {
        "model": {
            "n": config.model.n,
            "j": config.model.j,
            "h_x": config.model.h_x,
            "h_z": config.model.h_z,
        },
        "drive": {
            "t_in": config.drive.t_in,
            "n_grid": config.drive.n_grid,
            "washout": config.drive.n_washout,
            "train": config.drive.n_train,
            "test": config.drive.n_test,
            "seed": config.drive.seed,
            "tmi_cap": config.drive.tmi_cap,
        },
        "readouts": list(config.readouts),
        "tasks": {
            "stm_delays": list(config.tasks.stm_delays),
            "deviation": config.tasks.deviation,
            "deviation_windows": config.tasks.deviation_windows,
            "correlations": list(config.tasks.correlations),
            "otoc": [
                {"w": spec.w.label(), "v": spec.v.label()} for spec in config.tasks.otoc
            ],
            "tmi": [
                {"a": list(spec.a), "b": list(spec.b), "c": list(spec.c)}
                for spec in config.tasks.tmi
            ],
            "record": config.tasks.record,
        },
    }


def _write_record_csv(path: Path, record: ReadoutRecord) -> None:
    """One line per (k, tau), formatted like ``write_csv`` cells (``%.17g``)."""
    header = ["k", "phase", "tau"] + list(record.operators)
    line = "%d,%s," + ",".join(["%.17g"] * (1 + len(record.operators))) + "\n"
    taus = record.grid.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in range(record.n_train + record.n_test):
            k = record.first_step + row
            phase = "train" if row < record.n_train else "test"
            cells = record.values[:, row, :].T.tolist()
            fh.writelines(
                line % (k, phase, tau, *values) for tau, values in zip(taus, cells)
            )


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

    stm_r2: dict[tuple[str, int], np.ndarray] = {}
    for label in config.readouts:
        for delay in config.tasks.stm_delays:
            curve = stm_curve(record, label, delay)
            stm_r2[(label, delay)] = curve.r2
            fname = f"stm_{_file_label(label)}_d{delay}.csv"
            write_csv(
                out_dir / fname,
                ["operator", "d", "tau", "r2", "w_o", "w_c"],
                (
                    (label, delay, float(t), float(r), float(wo), float(wc))
                    for t, r, wo, wc in zip(curve.taus, curve.r2, curve.w_o, curve.w_c)
                ),
            )
            outputs.append(fname)

    corr_values: dict[int, np.ndarray] = {}
    for qubit in config.tasks.correlations:
        values = correlation_curve(ensemble, qubit, model, grid)
        corr_values[qubit] = values
        fname = f"corr_z1_z{qubit}.csv"
        write_csv(
            out_dir / fname,
            ["tau", "real", "imag", "modulus"],
            (
                (float(t), v.real, v.imag, float(abs(v)))
                for t, v in zip(grid, values)
            ),
        )
        outputs.append(fname)

    if config.tasks.deviation:
        qubits = sorted(config.tasks.correlations)
        pairs_corr = []
        pairs_r2 = []
        pair_rows = []
        for qubit in qubits:
            corr_abs = np.abs(corr_values[qubit])
            r2 = stm_r2[(f"z{qubit}", 0)]
            pairs_corr.append(corr_abs)
            pairs_r2.append(r2)
            pair_rows += [
                (qubit, float(t), float(c), float(r))
                for t, c, r in zip(grid, corr_abs, r2)
            ]
        corr_flat = np.clip(np.concatenate(pairs_corr), 0.0, 1.0)
        delta, bins = data_deviation(
            corr_flat, np.concatenate(pairs_r2), config.tasks.deviation_windows
        )
        write_csv(
            out_dir / "deviation_pairs.csv",
            ["qubit", "tau", "corr_abs", "r2"],
            pair_rows,
        )
        nonempty = np.nonzero(bins.counts)[0]
        write_csv(
            out_dir / "deviation_bins.csv",
            ["m", "count", "mean_r2", "sum_sq_dev"],
            (
                (int(m), int(bins.counts[m]), float(bins.means[m]), float(bins.sq_dev[m]))
                for m in nonempty
            ),
        )
        outputs += ["deviation_pairs.csv", "deviation_bins.csv"]
        results["deviation_total"] = delta
        results["deviation_windows"] = config.tasks.deviation_windows

    max_otoc_imag = 0.0
    for spec in config.tasks.otoc:
        values = otoc_curve(ensemble, spec, model, grid)
        max_otoc_imag = max(max_otoc_imag, float(np.max(np.abs(values.imag))))
        fname = f"otoc_{spec.name()}.csv"
        write_csv(
            out_dir / fname,
            ["tau", "value", "imag"],
            ((float(t), v.real, v.imag) for t, v in zip(grid, values)),
        )
        outputs.append(fname)
    if config.tasks.otoc:
        results["max_otoc_imag"] = max_otoc_imag

    for spec in config.tasks.tmi:
        values = tmi_curve(ensemble, spec, model, grid)
        fname = f"tmi_{spec.name()}.csv"
        write_csv(
            out_dir / fname,
            ["tau", "value"],
            ((float(t), float(v)) for t, v in zip(grid, values)),
        )
        outputs.append(fname)
    if config.tasks.tmi:
        results["tmi_samples"] = ensemble.n_samples

    if config.tasks.record:
        _write_record_csv(out_dir / "readouts.csv", record)
        outputs.append("readouts.csv")

    manifest = {
        "version": __version__,
        "preset": preset,
        "system": system,
        "config": config_to_blocks(config),
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


def run_preset(
    name: str,
    overrides: dict | None = None,
    out_dir: str | Path | None = None,
    doc: ConfigFile | None = None,
) -> list[Path]:
    """Expand a preset and execute every run under ``out_dir``."""
    out_dir = Path(out_dir) if out_dir is not None else Path(name)
    plans = plan_runs(name, doc, overrides)
    manifests = []
    for plan in plans:
        run_dir = out_dir / plan.rel_dir if plan.rel_dir else out_dir
        manifests.append(
            run_experiment(plan.config, run_dir, preset=name, system=plan.rel_dir)
        )
    return manifests


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
