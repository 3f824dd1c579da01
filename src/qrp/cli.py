"""Command-line entry points: run experiments, validate config files."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .config import ConfigError, parse_config
from .experiment import PRESET_NAMES, plan_runs, run_experiment
from .version import __version__


def _fail(kind: str, message: str, code: int) -> None:
    click.echo(json.dumps({"error": {"type": kind, "message": message}}), err=True)
    sys.exit(code)


@click.group()
@click.version_option(version=__version__, prog_name="qrp")
def main() -> None:
    """Drive a spin chain with sequential quench inputs and map where the
    injected information lives, operator by operator."""


@main.command()
@click.option("--preset", type=str, default=None, help="named experiment preset")
@click.option(
    "--config", "config_path", type=click.Path(), default=None, help="config file"
)
@click.option("--out", "out_dir", type=click.Path(), default=None, help="output dir")
@click.option("--seed", type=int, default=None, help="input-sequence seed override")
@click.option("--n", type=int, default=None, help="chain length override")
@click.option(
    "--grid", type=int, default=None, help="virtual-time samples per interval"
)
@click.option(
    "--tmi-cap", type=int, default=None, help="max per-step entropy snapshots"
)
def run(preset, config_path, out_dir, seed, n, grid, tmi_cap) -> None:
    """Run a preset or a custom configuration and write CSVs + manifests."""
    try:
        doc = parse_config(config_path) if config_path is not None else None
        if preset is None and doc is None:
            raise ConfigError(
                f"nothing to run: give --preset (one of {', '.join(PRESET_NAMES)}) "
                "or --config"
            )
        overrides = {"seed": seed, "n": n, "grid": grid, "tmi_cap": tmi_cap}
        plans = plan_runs(preset, doc, overrides)
    except (ConfigError, ValueError) as exc:
        _fail("ConfigError", str(exc), 2)
        return

    name = preset or (doc.preset if doc else None)
    if out_dir is None:
        out_dir = (doc.out if doc else None) or name or "run"
    out_dir = Path(out_dir)
    try:
        for plan in plans:
            run_dir = out_dir / plan.rel_dir
            target = f" [{plan.rel_dir}]" if plan.rel_dir else ""
            click.echo(f"running{target} -> {run_dir}")
            manifest = run_experiment(
                plan.config, run_dir, preset=name, system=plan.rel_dir
            )
            click.echo(f"wrote {manifest}")
    except Exception as exc:  # pragma: no cover - defensive surface
        _fail(type(exc).__name__, str(exc), 1)


@main.command()
@click.option(
    "--config", "config_path", type=click.Path(), required=True, help="config file"
)
def validate(config_path) -> None:
    """Check a config file; exit 0 when it resolves to runnable plans."""
    try:
        doc = parse_config(config_path)
        plans = plan_runs(None, doc, {})
    except (ConfigError, ValueError) as exc:
        _fail("ConfigError", str(exc), 2)
        return
    click.echo(f"ok: {len(plans)} run(s) planned")


if __name__ == "__main__":
    main()
