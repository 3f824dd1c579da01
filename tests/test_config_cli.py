import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from qrp.cli import main
from qrp.config import (
    ConfigError,
    build_config,
    parse_config,
)
from qrp.driver import run_drive
from qrp.experiment import (
    PRESET_NAMES,
    plan_runs,
    replay_manifest,
    run_experiment,
    write_csv,
)

SRC = Path(__file__).resolve().parents[1] / "src"

TINY_DRIVE = {"t_in": 1.1, "n_grid": 3, "washout": 4, "train": 6, "test": 6, "tmi_cap": 2}


def write_yaml(tmp_path: Path, text: str, name: str = "conf.yaml") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def default_config():
    return build_config({}, {}, None, {})


def cli_error(args: list[str]) -> str:
    """Run the CLI, expect exit 2, and return its JSON error message."""
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr.strip().split("\n")[-1])
    assert error["error"]["type"] == "ConfigError"
    return error["error"]["message"]


def run_preset_cli(tmp_path: Path, name: str, n: int, drive: dict) -> list[Path]:
    """``qrp run --config`` on a file naming the preset and the drive;
    returns the manifests written."""
    conf = write_yaml(tmp_path, yaml.safe_dump({"preset": name, "drive": drive}))
    out = tmp_path / name
    result = CliRunner().invoke(
        main, ["run", "--config", str(conf), "--n", str(n), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    return sorted(out.rglob("manifest.json"))


class TestParseConfig:
    def test_preset_only_file_gets_full_defaults(self, tmp_path):
        path = write_yaml(tmp_path, "preset: fig3-free\n")
        doc = parse_config(path)
        plans = plan_runs(None, doc, {})
        assert len(plans) == 1
        cfg = plans[0].config
        assert cfg.model.n == 7
        assert cfg.model.h_x == 0.0 and cfg.model.h_z == 1.0
        assert cfg.drive.t_in == 5.0 and cfg.drive.n_grid == 50
        assert (cfg.drive.n_washout, cfg.drive.n_train, cfg.drive.n_test) == (
            1000,
            2000,
            2000,
        )
        assert cfg.drive.seed == 42
        assert cfg.readouts == tuple(f"z{i}" for i in range(1, 8))
        assert cfg.tasks.stm_delays == (0, 1, 2)

    def test_seed_only_override_changes_exactly_that_field(self, tmp_path):
        path = write_yaml(tmp_path, "drive:\n  seed: 7\n")
        cfg = plan_runs(None, parse_config(path), {})[0].config
        base = default_config()
        assert cfg.drive.seed == 7
        assert cfg.model == base.model
        assert cfg.readouts == base.readouts
        assert cfg.tasks == base.tasks
        assert cfg.drive == type(cfg.drive)(
            **{**base.drive.__dict__, "seed": 7}
        )

    def test_misplaced_model_key_named(self, tmp_path):
        path = write_yaml(tmp_path, "drive:\n  h_x: 0.5\n")
        with pytest.raises(ConfigError, match="h_x.*drive"):
            parse_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_yaml(tmp_path, "modle:\n  n: 3\n")
        with pytest.raises(ConfigError, match="modle"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.yaml")

    def test_syntax_error_reported(self, tmp_path):
        path = write_yaml(tmp_path, "drive: [unclosed\n")
        with pytest.raises(ConfigError, match="syntax"):
            parse_config(path)

    def test_non_integer_chain_length_named(self, tmp_path):
        path = write_yaml(tmp_path, "preset: fig3-free\nmodel:\n  n: seven\n")
        with pytest.raises(ConfigError, match="model.n"):
            parse_config(path)

    def test_bad_otoc_entry(self, tmp_path):
        path = write_yaml(tmp_path, "tasks:\n  otoc:\n    - {w: z2}\n")
        with pytest.raises(ConfigError, match="otoc"):
            plan_runs(None, parse_config(path), {})

    def test_readout_outside_register(self):
        with pytest.raises(ConfigError, match="z9"):
            build_config({"n": 3}, {}, ["z9"], {})

    def test_deviation_requires_z_scan(self):
        with pytest.raises(ConfigError, match="deviation"):
            build_config(
                {"n": 3},
                {},
                ["z1"],
                {"deviation": True, "correlations": [1, 2, 3]},
            )

    def test_stm_delay_beyond_washout(self):
        with pytest.raises(ConfigError, match="delay"):
            build_config({}, {"washout": 2}, None, {"stm_delays": [3]})

    @pytest.mark.parametrize(
        "blocks, key",
        [
            (({"n": 3, "hx": 0.5}, {}, None, {}), "hx"),
            (({}, {"washot": 3}, None, {}), "washot"),
            (({}, {}, None, {"corelations": [1]}), "corelations"),
        ],
        ids=["model", "drive", "tasks"],
    )
    def test_library_path_rejects_unknown_key(self, blocks, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            build_config(*blocks)

    @pytest.mark.parametrize(
        "blocks, message",
        [
            (({"n": 0}, {}, None, {}), "model.n must be >= 1, got 0"),
            (({}, {"washout": -1}, None, {}), "drive.washout must be >= 0, got -1"),
            (({}, {"train": 1}, None, {}), "drive.train must be >= 2, got 1"),
            (({}, {"test": 1}, None, {}), "drive.test must be >= 2, got 1"),
            (({}, {"tmi_cap": -1}, None, {}), "drive.tmi_cap must be >= 0, got -1"),
            (({}, {"n_grid": 0}, None, {}), "drive.n_grid must be >= 1, got 0"),
            (({}, {"t_in": 0.0}, None, {}), "drive.t_in must be positive, got 0.0"),
            (({"j": -1.0}, {}, None, {}), "model.j must be positive, got -1.0"),
            (
                ({}, {"washout": 2}, None, {"stm_delays": [3]}),
                r"tasks.stm_delays: delay 3 outside \[0, washout=2\]",
            ),
        ],
        ids=[
            "n", "washout", "train", "test", "tmi_cap", "n_grid", "t_in", "j",
            "stm_delays",
        ],
    )
    def test_library_path_names_out_of_range_field(self, blocks, message):
        with pytest.raises(ConfigError, match=message):
            build_config(*blocks)

    @pytest.mark.parametrize(
        "tasks, key",
        [
            ({"stm_delays": [0, 0]}, "stm_delays"),
            ({"correlations": [2, 2]}, "correlations"),
            ({"otoc": [{"w": "z2", "v": "z1"}, {"w": "z2", "v": "z1"}]}, "otoc"),
            ({"tmi": [{"a": [0], "b": [2], "c": [3]}] * 2}, "tmi"),
        ],
        ids=["stm_delays", "correlations", "otoc", "tmi"],
    )
    def test_duplicate_task_entry_rejected(self, tasks, key):
        with pytest.raises(ConfigError, match=f"duplicate entry .* in tasks.{key}"):
            build_config({"n": 3}, {}, None, tasks)


class TestPlanRuns:
    def test_unknown_preset_lists_names(self):
        with pytest.raises(ConfigError) as err:
            plan_runs("fig9", None, {})
        for name in PRESET_NAMES:
            assert name in str(err.value)

    def test_preset_expansions(self):
        assert [p.rel_dir for p in plan_runs("fig4", None, {})] == ["free", "chaotic"]
        assert [p.rel_dir for p in plan_runs("fig6", None, {})] == [
            "free",
            "perturbed",
        ]
        appa = plan_runs("appA", None, {})
        assert len(appa) == 10
        assert appa[0].rel_dir == "free/n6"
        assert appa[0].config.model.n == 6
        appb = plan_runs("appB", None, {})
        assert len(appb[0].config.readouts) == 18

    def test_cli_overrides_beat_file(self, tmp_path):
        doc = parse_config(
            write_yaml(tmp_path, "preset: fig3-chaotic\ndrive:\n  seed: 5\n")
        )
        plan = plan_runs(None, doc, {"seed": 9, "n": 6})[0]
        assert plan.config.drive.seed == 9
        assert plan.config.model.n == 6
        assert plan.config.readouts == tuple(f"z{i}" for i in range(1, 7))
        assert plan.config.model.h_x == -0.5

    def test_appa_size_override_collapses_sweep(self):
        plans = plan_runs("appA", None, {"n": 8})
        assert [p.rel_dir for p in plans] == ["free/n8", "chaotic/n8"]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_manifest_blocks_round_trip(self, name):
        """The manifest's config blocks are plain JSON, and ``build_config``
        of them gives back the planned configuration."""
        for plan in plan_runs(name, None, {}):
            blocks = json.loads(json.dumps(plan.config.blocks()))
            assert list(blocks) == ["model", "drive", "readouts", "tasks"]
            rebuilt = build_config(
                blocks["model"], blocks["drive"], blocks["readouts"], blocks["tasks"]
            )
            assert rebuilt == plan.config, plan.rel_dir


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = build_config(
        {"n": 3},
        TINY_DRIVE,
        ["z1", "z2", "x2*x3"],
        {
            "stm_delays": [0, 1],
            "correlations": [1, 2],
            "otoc": [{"w": "z2", "v": "z1"}],
            "tmi": [{"a": [0], "b": [2], "c": [3]}],
            "record": True,
        },
    )
    manifest = run_experiment(config, out)
    return out, manifest


class TestRunExperiment:
    def test_outputs_exist(self, tiny_run):
        out, manifest = tiny_run
        for name in (
            "stm_z1_d0.csv",
            "stm_z1_d1.csv",
            "stm_x2x3_d0.csv",
            "corr_z1_z2.csv",
            "otoc_z2_z1.csv",
            "tmi_0_2_3.csv",
            "readouts.csv",
            "manifest.json",
        ):
            assert (out / name).exists(), name

    @pytest.mark.parametrize("tmi, kept", [([], 0), ([{"a": [0], "b": [2], "c": [3]}], 2)])
    def test_snapshots_kept_only_for_tmi(self, tmp_path, monkeypatch, tmi, kept):
        import qrp.experiment

        ensembles = []

        def spy(*args):
            record, ensemble = run_drive(*args)
            ensembles.append(ensemble)
            return record, ensemble

        monkeypatch.setattr(qrp.experiment, "run_drive", spy)
        config = build_config({"n": 3}, TINY_DRIVE, ["z1"], {"stm_delays": [0], "tmi": tmi})
        manifest = json.loads(run_experiment(config, tmp_path).read_text())
        assert ensembles[0].n_samples == kept
        assert manifest["config"]["drive"]["tmi_cap"] == TINY_DRIVE["tmi_cap"]

    def test_curve_row_count_matches_grid(self, tiny_run):
        out, _ = tiny_run
        lines = (out / "stm_z1_d0.csv").read_text().strip().split("\n")
        assert lines[0] == "operator,d,tau,r2,w_o,w_c"
        assert len(lines) == 1 + TINY_DRIVE["n_grid"]

    def test_record_row_count(self, tiny_run):
        out, _ = tiny_run
        lines = (out / "readouts.csv").read_text().strip().split("\n")
        rows = (TINY_DRIVE["train"] + TINY_DRIVE["test"]) * TINY_DRIVE["n_grid"]
        assert len(lines) == 1 + rows
        assert lines[0] == "k,phase,tau,z1,z2,x2*x3"

    def test_seventeen_significant_digits(self, tiny_run):
        out, _ = tiny_run
        line = (out / "stm_z1_d0.csv").read_text().strip().split("\n")[2]
        r2_field = line.split(",")[3]
        mantissa = r2_field.replace("-", "").replace(".", "").split("e")[0]
        assert len(mantissa.lstrip("0")) >= 15

    def test_manifest_contents(self, tiny_run):
        out, manifest_path = tiny_run
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["model"]["n"] == 3
        assert manifest["inputs"]["algorithm"] == "numpy-pcg64"
        assert len(manifest["inputs"]["values"]) == 16
        assert "digest_sha256" in manifest["inputs"]
        assert manifest["warnings"]["degenerate_ground"] is False
        assert set(manifest["outputs"]) >= {"stm_z1_d0.csv", "otoc_z2_z1.csv"}

    def test_otoc_imaginary_part_and_drive_health(self, tiny_run):
        out, manifest_path = tiny_run
        manifest = json.loads(manifest_path.read_text())
        lines = (out / "otoc_z2_z1.csv").read_text().strip().split("\n")
        assert lines[0] == "tau,value,imag"
        imag = [abs(float(line.split(",")[2])) for line in lines[1:]]
        assert manifest["results"]["max_otoc_imag"] == max(imag)
        health = manifest["warnings"]
        assert set(health) == {
            "degenerate_ground", "max_trace_drift", "max_hermiticity_residue"
        }
        assert 0.0 <= health["max_trace_drift"] < 1e-12
        assert 0.0 <= health["max_hermiticity_residue"] < 1e-12

    def test_repeat_run_bit_identical(self, tiny_run, tmp_path):
        out, _ = tiny_run
        config = build_config(
            {"n": 3},
            TINY_DRIVE,
            ["z1", "z2", "x2*x3"],
            {
                "stm_delays": [0, 1],
                "correlations": [1, 2],
                "otoc": [{"w": "z2", "v": "z1"}],
                "tmi": [{"a": [0], "b": [2], "c": [3]}],
                "record": True,
            },
        )
        again = tmp_path / "again"
        run_experiment(config, again)
        for csv in sorted(out.glob("*.csv")):
            assert (again / csv.name).read_bytes() == csv.read_bytes(), csv.name

    def test_record_writer_matches_cellwise_format(self, tmp_path):
        """The column writer gives the bytes of formatting every cell on its
        own: ``str`` for integers and strings, ``f"{value:.17g}"`` for
        floats, on values where a formatter could differ."""
        specials = [
            -0.0,
            5e-324,
            2.2250738585072014e-308 / 3,
            np.nextafter(1.0, 2.0),
            2.0,
            -3.0,
            1e16,
            0.1,
        ]
        floats = np.array(specials * 3).reshape(3, 8)
        ints = np.arange(8) - 3
        labels = np.array(["train"] * 5 + ["test", "x2*x3", ""])
        expected = ["k,phase,a,b,c"]
        for row in range(8):
            cells = [str(ints[row]), str(labels[row])]
            cells += [f"{float(v):.17g}" for v in floats[:, row]]
            expected.append(",".join(cells))
        path = tmp_path / "out.csv"
        write_csv(path, "k,phase,a,b,c", [ints, labels, *floats])
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    def test_writer_streams_a_large_record(self, tmp_path):
        """A (20, 300, 50) record, as ``readouts.csv`` columns, is written
        with a traced peak under 2 MiB: rows are formatted a block at a
        time (whole columns as Python lists peaked at about 11 MiB)."""
        n_ops, rows, n_grid = 20, 300, 50
        values = np.random.default_rng(5).random((n_ops, rows, n_grid))
        steps = np.arange(rows)
        columns = [
            np.repeat(100 + steps, n_grid),
            np.repeat(np.where(steps < 150, "train", "test"), n_grid),
            np.tile(np.arange(n_grid) * 0.1, rows),
            *values.reshape(n_ops, rows * n_grid),
        ]
        header = ",".join(["k", "phase", "tau"] + [f"z{i}" for i in range(n_ops)])
        path = tmp_path / "readouts.csv"
        tracemalloc.start()
        try:
            write_csv(path, header, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
        lines = path.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 2 + rows * n_grid and lines[-1] == ""
        assert lines[1].startswith("100,train,0,")

    def test_record_without_readouts(self, tmp_path):
        """An appC-shaped run (no read-outs, an OTOC task) with ``record``
        still writes ``readouts.csv``: the key columns, one row per (k, tau)."""
        drive = dict(TINY_DRIVE, train=12, test=12)
        config = build_config(
            {"n": 3},
            drive,
            [],
            {"stm_delays": [], "otoc": [{"w": "z2", "v": "z3"}], "record": True},
        )
        manifest = json.loads(run_experiment(config, tmp_path).read_text())
        assert manifest["outputs"] == ["otoc_z2_z3.csv", "readouts.csv"]
        lines = (tmp_path / "readouts.csv").read_text().strip().split("\n")
        assert lines[0] == "k,phase,tau"
        assert len(lines) == 1 + 24 * drive["n_grid"]
        assert lines[1] == "4,train,0"
        assert lines[-1].startswith("27,test,")

    def test_replay_rejects_unknown_key(self, tiny_run, tmp_path):
        _, manifest_path = tiny_run
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["drive"]["washot"] = 3
        edited = tmp_path / "manifest.json"
        edited.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="washot"):
            replay_manifest(edited, tmp_path / "replay")

    def test_manifest_replay_bit_identical(self, tiny_run, tmp_path):
        out, manifest_path = tiny_run
        replay_dir = tmp_path / "replay"
        replay_manifest(manifest_path, replay_dir)
        for csv in sorted(out.glob("*.csv")):
            assert (replay_dir / csv.name).read_bytes() == csv.read_bytes(), csv.name


class TestRunPreset:
    def test_fig5_smoke(self, tmp_path):
        manifests = run_preset_cli(tmp_path, "fig5-free", 4, TINY_DRIVE)
        assert len(manifests) == 1
        out = manifests[0].parent
        for name in (
            "stm_z2_d0.csv",
            "stm_x2x3_d0.csv",
            "otoc_z2_z1.csv",
            "otoc_z3_z1.csv",
            "tmi_0_2_3.csv",
        ):
            assert (out / name).exists(), name

    def test_appc_smoke(self, tmp_path):
        # appC records no read-outs; 24 recorded intervals on 3 grid times
        # are enough for the operation counts to favour the Heisenberg order.
        drive = dict(TINY_DRIVE, train=12, test=12)
        manifests = run_preset_cli(tmp_path, "appC", 3, drive)
        assert len(manifests) == 3
        for manifest_path in manifests:
            out = manifest_path.parent
            for name in ("otoc_x2x3_z1.csv", "otoc_z2z3_z1.csv", "otoc_x2_x3.csv"):
                assert (out / name).exists(), name

    def test_fig4_deviation_outputs(self, tmp_path):
        manifests = run_preset_cli(tmp_path, "fig4", 3, TINY_DRIVE)
        assert len(manifests) == 2
        for manifest_path in manifests:
            manifest = json.loads(manifest_path.read_text())
            assert "deviation_total" in manifest["results"]
            out = manifest_path.parent
            assert (out / "deviation_bins.csv").exists()
            assert (out / "deviation_pairs.csv").exists()
            pairs = (out / "deviation_pairs.csv").read_text().strip().split("\n")
            assert len(pairs) == 1 + 3 * TINY_DRIVE["n_grid"]


class TestCli:
    def test_run_with_config(self, tmp_path):
        conf = tmp_path / "tiny.yaml"
        conf.write_text(
            "model:\n  n: 2\n"
            "drive:\n  t_in: 1.0\n  n_grid: 2\n  washout: 3\n  train: 5\n  test: 5\n"
            "readouts: [z1]\n"
            "tasks:\n  stm_delays: [0]\n"
        )
        runner = CliRunner()
        result = runner.invoke(
            main, ["run", "--config", str(conf), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "stm_z1_d0.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_run_without_preset_or_config_fails(self):
        result = CliRunner().invoke(main, ["run"])
        assert result.exit_code == 2
        error = json.loads(result.stderr.strip().split("\n")[-1])
        assert error["error"]["type"] == "ConfigError"

    def test_unknown_preset_fails_with_names(self):
        result = CliRunner().invoke(
            main, ["run", "--preset", "nope"]
        )
        assert result.exit_code == 2
        error = json.loads(result.stderr.strip().split("\n")[-1])
        assert "fig3-free" in error["error"]["message"]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_validate_ok(self, tmp_path, name):
        conf = tmp_path / "ok.yaml"
        conf.write_text(f"preset: {name}\n")
        result = CliRunner().invoke(main, ["validate", "--config", str(conf)])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_module_entry_point(self, tmp_path):
        conf = tmp_path / "ok.yaml"
        conf.write_text("model:\n  n: 3\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "qrp", "validate", "--config", str(conf)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("ok:")

    def test_validate_rejects_misplaced_key(self, tmp_path):
        conf = tmp_path / "bad.yaml"
        conf.write_text("drive:\n  h_x: 0.1\n")
        result = CliRunner().invoke(
            main, ["validate", "--config", str(conf)]
        )
        assert result.exit_code == 2
        error = json.loads(result.stderr.strip().split("\n")[-1])
        assert "h_x" in error["error"]["message"]

    @pytest.mark.parametrize(
        "text, key",
        [
            ("tasks:\n  deviation_windows: 0\n", "tasks.deviation_windows"),
            ("drive:\n  seed: -1\n", "drive.seed"),
            ("drive:\n  washout: -3\n", "drive.washout"),
            ("drive:\n  tmi_cap: -1\n", "drive.tmi_cap"),
            ("drive:\n  train: 1\n", "drive.train"),
            ("drive:\n  test: 1\n", "drive.test"),
            ("drive:\n  n_grid: 0\n", "drive.n_grid"),
            ("drive:\n  t_in: -5.0\n", "drive.t_in"),
            ("  j: 0\n", "model.j"),  # continues the model block
            ("tasks:\n  stm_delays: [-1]\n", "tasks.stm_delays"),
        ],
        ids=[
            "deviation_windows", "seed", "washout", "tmi_cap", "train", "test",
            "n_grid", "t_in", "j", "stm_delays",
        ],
    )
    def test_out_of_range_value_rejected_before_running(self, tmp_path, text, key):
        conf = write_yaml(tmp_path, "preset: fig4\nmodel:\n  n: 3\n" + text)
        assert key in cli_error(["validate", "--config", str(conf)])
        out = tmp_path / "out"
        assert key in cli_error(["run", "--config", str(conf), "--out", str(out)])
        assert not out.exists()

    def test_zero_chain_length_rejected_before_running(self, tmp_path):
        conf = write_yaml(tmp_path, "model:\n  n: 0\n")
        message = "model.n must be >= 1, got 0"
        assert message in cli_error(["validate", "--config", str(conf)])
        out = tmp_path / "out"
        args = ["run", "--preset", "fig3-free", "--n", "0", "--out", str(out)]
        assert message in cli_error(args)
        assert not out.exists()

    def test_duplicate_readout_after_normalizing_rejected(self, tmp_path):
        # " z1" names the operator z1: rejected before anything runs, not
        # by the drive after the model is built.
        conf = write_yaml(tmp_path, 'model:\n  n: 3\nreadouts: [z1, " z1"]\n')
        message = "duplicate entry 'z1' in readouts"
        assert cli_error(["validate", "--config", str(conf)]) == message
        out = tmp_path / "out"
        assert cli_error(["run", "--config", str(conf), "--out", str(out)]) == message
        assert not out.exists()

    def test_readout_label_with_sites_out_of_order_runs(self, tmp_path):
        # x3*x2 is kept as x2*x3, the label the drive's record carries.
        blocks = {"model": {"n": 3}, "drive": TINY_DRIVE, "readouts": ["x3*x2"],
                  "tasks": {"stm_delays": [0]}}
        conf = write_yaml(tmp_path, yaml.safe_dump(blocks))
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", str(conf), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert (out / "stm_x2x3_d0.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["readouts"] == ["x2*x3"]

    def test_non_string_operator_label_rejected(self, tmp_path):
        conf = write_yaml(tmp_path, "tasks:\n  otoc: [{w: 3, v: z1}]\n")
        message = cli_error(["validate", "--config", str(conf)])
        assert message.startswith("tasks.otoc: operator label must be a string")

    def test_negative_seed_override_rejected(self, tmp_path):
        conf = write_yaml(tmp_path, "model:\n  n: 3\n")
        out = str(tmp_path / "out")
        args = ["run", "--config", str(conf), "--seed", "-1", "--out", out]
        assert "drive.seed" in cli_error(args)

    def test_negative_tmi_cap_override_rejected(self, tmp_path):
        conf = write_yaml(tmp_path, "model:\n  n: 3\n")
        out = str(tmp_path / "out")
        args = ["run", "--config", str(conf), "--tmi-cap", "-2", "--out", out]
        assert "drive.tmi_cap must be >= 0, got -2" in cli_error(args)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "tasks:\n  correlations: [5]\n",
                "tasks.correlations: qubit 5 outside chain 1..3",
            ),
            ("readouts: [z7]\n", "readouts: operator 'z7' outside register 0..3"),
            (
                "tasks:\n  otoc: [{w: z7, v: z1}]\n",
                "tasks.otoc: operator 'z7' outside register 0..3",
            ),
            (
                "tasks:\n  tmi: [{a: [0], b: [2], c: [9]}]\n",
                "tasks.tmi: subset qubit 9 outside register 0..3",
            ),
        ],
        ids=["correlations", "readouts", "otoc", "tmi"],
    )
    def test_cross_field_range_error_names_key(self, tmp_path, text, message):
        conf = write_yaml(tmp_path, "model:\n  n: 3\n" + text)
        assert cli_error(["validate", "--config", str(conf)]) == message
