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
from .driver import ReadoutRecord, generate_inputs, run_drive
from .hamiltonian import CHAOTIC, FREE_FERMION, PERTURBED, spectral_model
from .regression import data_deviation, stm_curve
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
