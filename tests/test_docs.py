"""The README's library sketch runs as written, the source keeps its
line-length limit, its one Pauli-operator representation and its one sector
layout, the drive and the diagnostics read the symmetry off the Hamiltonian
and not a regime name, and ``qrp.experiment`` keeps every name the
benchmark's tracer wraps (checked with the standard library; no linter
needed)."""

import ast
import re
from pathlib import Path

import numpy as np

import qrp.experiment

ROOT = Path(__file__).resolve().parents[1]
MAX_LINE = 88


def readme_sketch() -> str:
    """The Python block under the README's "Library sketch" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_sketch_runs():
    # As written, except for a tiny drive at N = 4 in place of the
    # production-scale defaults.
    code = readme_sketch()
    code = code.replace("qrp.IsingParams(n=7,", "qrp.IsingParams(n=4,")
    code = code.replace(
        "qrp.DriveConfig()",
        "qrp.DriveConfig(n_grid=3, n_washout=4, n_train=6, n_test=6, tmi_cap=2)",
    )
    assert "n=4" in code and "n_grid=3" in code
    names: dict = {}
    exec(compile(code, "README.md", "exec"), names)
    cfg = names["cfg"]
    assert names["curve"].r2.shape == (cfg.n_grid,)
    shapes = {"corr": (cfg.n_grid,), "otocs": (cfg.n_grid,), "tmis": (2, cfg.n_grid)}
    for key, shape in shapes.items():
        assert names[key].shape == shape, key
        assert np.all(np.isfinite(names[key])), key


def test_source_lines_fit():
    long = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted((ROOT / "src" / "qrp").glob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if len(line) > MAX_LINE
    ]
    assert not long, "\n".join(long)


def test_one_pauli_representation():
    # Chain operators are row gathers over -1 eigenspaces
    # (``driver._eigenbasis_blocks``); the Kronecker builder is a test
    # oracle in ``tests/helpers.py``, and no second realization comes back.
    banned = ("np.kron", "build_dense", "_z_diagonal")
    found = [
        f"{path.name}:{number}: {word}"
        for path in sorted((ROOT / "src" / "qrp").glob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        for word in banned
        if word in line
    ]
    assert not found, "\n".join(found)


def uses(node: ast.AST, banned: set) -> bool:
    """Whether an AST node loads, reads as an attribute, imports or defines
    one of the ``banned`` names."""
    return (
        (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
         and node.id in banned)
        or (isinstance(node, ast.Attribute) and node.attr in banned)
        or (isinstance(node, ast.alias) and node.name in banned)
        or (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in banned)
    )


def test_symmetry_is_not_keyed_on_a_regime():
    # The parity sectors are read off the built Hamiltonian.  The drive, the
    # Hamiltonian module and the diagnostics use no parameter point, regime
    # or preset name (their definitions aside), so no code path depends on
    # one.
    names = {"FREE_FERMION", "CHAOTIC", "PERTURBED", "SYSTEM_FIELDS", "PRESETS"}
    words = set(qrp.experiment.SYSTEM_FIELDS) | set(qrp.experiment.PRESET_NAMES)
    found = []
    for name in ("driver.py", "hamiltonian.py", "diagnostics.py"):
        tree = ast.parse((ROOT / "src" / "qrp" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if uses(node, names) or (
                isinstance(node, ast.Constant) and node.value in words
            ):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, "\n".join(found)


def test_one_sector_layout():
    # ``SpectralModel`` is its sector blocks and the one place that knows
    # their layout.  No module defines or reads a second layout value, dense
    # eigenpairs (``eigenvectors``, ``eigenvalues``), or the dense oracles
    # that scatter sector blocks (``unpack_sectors``, ``dense_spectrum``) or
    # build the propagator from them (``chain_propagator``); those live in
    # ``tests/helpers.py``.  Sector indices are added modulo the count only
    # in ``hamiltonian.py`` (``SpectralModel.step``).
    banned = {
        "unpack_sectors", "chain_propagator", "rest_sectors", "sector_bases",
        "sector_propagators", "_parity_shift", "_sector_blocks",
        "dense_spectrum", "eigenvectors", "eigenvalues", "SectorLayout", "layout",
    }
    found = []
    for path in sorted((ROOT / "src" / "qrp").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            modular_sum = (
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, (ast.Add, ast.Sub))
            )
            if uses(node, banned) or (modular_sum and path.name != "hamiltonian.py"):
                line = ast.unparse(node).splitlines()[0]
                found.append(f"{path.name}:{node.lineno}: {line}")
    assert not found, "\n".join(found)


def test_benchmark_tracer_names_exist():
    # ``perfbench/worker.py --trace`` wraps these names on ``qrp.experiment``
    # by attribute; a refactor that drops or moves one breaks traced runs.
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    wrapped = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)
    )
    assert wrapped
    missing = [name for name in wrapped if not hasattr(qrp.experiment, name)]
    assert not missing, missing
