"""Output checks for the benchmark's runs.

Every check reads what a run wrote (CSVs and ``manifest.json``) and tests it
against a property the method must have, or against values computed here
apart from the program: the README's Hamiltonian built from 2x2 Pauli
matrices and a full-register ``scipy.linalg.expm`` replay of the manifest's
inputs.  No check compares with a stored copy of earlier output.  Each
function returns a list of failure messages; an empty list means the check
passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# (h_x, h_z) of the README's regime table.
REGIMES = {(0.0, 1.0): "free", (-0.5, 1.05): "chaotic", (-0.02, 1.002): "perturbed"}

REPLAY_TOL = 1e-10
EXACT_TOL = 1e-10  # OTOC and TMI identities at tau = 0, correlation bounds
Z1_TOL = 1e-12  # z1 at tau = 0 against 2 s_k - 1
ENERGY_TOL = 1e-10  # spread of <H> over tau within one interval
PARITY_TOL = 1e-8  # parity-odd read-outs in the free regime
GRID_TOL = 1e-12
# r2 is a squared correlation, so it lies in [0, 1]; a read-out that is an
# exact affine function of its target (z1 at tau = 0, d = 0) comes out at
# 1 + 1 ulp, so the upper end allows a few ulp of rounding.
R2_ROUNDING = 2.0**-50
OTOC_CONTRAST = 0.05  # criterion 08: max |F_free - F_perturbed|
DEVIATION_RATIO = 4.0  # criterion 05: delta_free / delta_chaotic


def _manifest(run_dir: Path) -> dict:
    return json.loads((run_dir / "manifest.json").read_text())


def _columns(path: Path, skip: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    keep = [i for i, name in enumerate(header) if name not in skip]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=keep, ndmin=2)
    return {header[i]: data[:, j] for j, i in enumerate(keep)}


def _terms(label: str) -> list[tuple[str, int]]:
    return [(tok[0], int(tok[1:])) for tok in label.split("*")]


def _otoc_file(spec: dict) -> str:
    return f"otoc_{spec['w'].replace('*', '')}_{spec['v'].replace('*', '')}.csv"


def _tmi_file(spec: dict) -> str:
    return "tmi_" + "_".join("".join(map(str, spec[key])) for key in "abc") + ".csv"


def expected_outputs(cfg: dict) -> set[str]:
    """File names the README promises for a resolved configuration."""
    tasks = cfg["tasks"]
    names = {
        f"stm_{label.replace('*', '')}_d{d}.csv"
        for label in cfg["readouts"]
        for d in tasks["stm_delays"]
    }
    names |= {f"corr_z1_z{q}.csv" for q in tasks["correlations"]}
    names |= {_otoc_file(o) for o in tasks["otoc"]}
    names |= {_tmi_file(t) for t in tasks["tmi"]}
    if tasks["deviation"]:
        names |= {"deviation_pairs.csv", "deviation_bins.csv"}
    if tasks["record"]:
        names.add("readouts.csv")
    return names | {"manifest.json"}


def check_run(run_dir: Path) -> list[str]:
    """Every property check that applies to the files of one run."""
    manifest = _manifest(run_dir)
    cfg = manifest["config"]
    drive = cfg["drive"]
    grid = np.arange(drive["n_grid"]) * (drive["t_in"] / drive["n_grid"])
    fails: list[str] = []

    present = {p.name for p in run_dir.iterdir() if p.is_file()}
    want = expected_outputs(cfg)
    if present != want:
        fails.append(
            f"outputs differ: missing {sorted(want - present)}, "
            f"unexpected {sorted(present - want)}"
        )
        return fails

    inputs = manifest["inputs"]
    n_total = drive["washout"] + drive["train"] + drive["test"]
    values = np.asarray(inputs["values"], dtype=float)
    if not np.array_equal(values, np.random.default_rng(inputs["seed"]).random(n_total)):
        fails.append("manifest inputs differ from default_rng(seed).random(n)")
    if hashlib.sha256(values.tobytes()).hexdigest() != inputs["digest_sha256"]:
        fails.append("manifest input digest does not match its values")

    for name in sorted(present):
        if not name.endswith(".csv") or name in ("readouts.csv", "deviation_bins.csv"):
            continue
        cols = _columns(run_dir / name, skip=("operator",))
        if "tau" in cols and not name.startswith("deviation"):
            if np.max(np.abs(cols["tau"] - grid)) > GRID_TOL:
                fails.append(f"{name}: tau column is not m * t_in / n_grid")
        if name.startswith("stm_"):
            r2 = cols["r2"]
            if r2.min() < 0.0 or r2.max() > 1.0 + R2_ROUNDING:
                fails.append(f"{name}: r2 outside [0, 1] ({r2.min()}, {r2.max()})")
        elif name.startswith("otoc_"):
            f = cols["value"]
            if abs(f[0] - 1.0) > EXACT_TOL:
                fails.append(f"{name}: F(0) = {f[0]!r}, not 1")
            if np.max(np.abs(f)) > 1.0 + EXACT_TOL:
                fails.append(f"{name}: |F| = {np.max(np.abs(f))!r} exceeds 1")
        elif name.startswith("tmi_"):
            # With a = {0} and qubit 1 outside b and c, qubit 0 is in a
            # product state with b and c at tau = 0, so I3 vanishes there.
            a, b, c = name[4:-4].split("_")
            if a == "0" and "1" not in b + c and abs(cols["value"][0]) > EXACT_TOL:
                fails.append(f"{name}: I3(0) = {cols['value'][0]!r}, not 0")
        elif name.startswith("corr_"):
            if np.max(cols["modulus"]) > 1.0 + EXACT_TOL:
                fails.append(f"{name}: |C| = {np.max(cols['modulus'])!r} exceeds 1")
            if name == "corr_z1_z1.csv" and (
                abs(cols["real"][0] - 1.0) > EXACT_TOL or abs(cols["imag"][0]) > EXACT_TOL
            ):
                fails.append(f"{name}: C(0) = {cols['real'][0]!r}{cols['imag'][0]:+}j, not 1")

    if "deviation_bins.csv" in present:
        bins = _columns(run_dir / "deviation_bins.csv")
        n_samples = cfg["model"]["n"] * drive["n_grid"]
        if int(bins["count"].sum()) != n_samples:
            fails.append(f"deviation bins count {bins['count'].sum()}, not N*n_grid = {n_samples}")
        total = manifest["results"]["deviation_total"]
        if abs(total - bins["sum_sq_dev"].sum()) > 1e-12 * max(1.0, abs(total)):
            fails.append(f"deviation_total {total!r} is not the sum of the bins")

    if "readouts.csv" in present:
        fails += _check_record(run_dir / "readouts.csv", cfg, values, len(grid))
    return fails


def _check_record(path: Path, cfg: dict, s: np.ndarray, n_grid: int) -> list[str]:
    fails = []
    cols = _columns(path, skip=("phase",))
    drive, model = cfg["drive"], cfg["model"]
    rows = drive["train"] + drive["test"]
    labels = cfg["readouts"]
    if len(cols["k"]) != rows * n_grid:
        return [f"readouts.csv has {len(cols['k'])} rows, not {rows * n_grid}"]
    k = cols["k"].astype(int)
    at0 = cols["tau"] == 0.0
    lattice = {label: cols[label].reshape(rows, n_grid) for label in labels}

    worst = max(np.max(np.abs(v)) for v in lattice.values())
    if worst > 1.0:
        fails.append(f"read-out magnitude {worst!r} exceeds 1")
    if "z1" in lattice:
        err = np.max(np.abs(cols["z1"][at0] - (2.0 * s[k[at0]] - 1.0)))
        if err > Z1_TOL:
            fails.append(f"z1 at tau = 0 differs from 2 s_k - 1 by {err:.3e}")

    n = model["n"]
    zz = [f"z{i}" for i in range(1, n + 1)]
    xs = [f"x{i}" for i in range(1, n + 1)]
    xx = [f"x{i}*x{i + 1}" for i in range(1, n)]
    if all(label in lattice for label in zz + xs + xx):
        energy = (
            -model["j"] * sum(lattice[label] for label in xx)
            + model["h_x"] * sum(lattice[label] for label in xs)
            + model["h_z"] * sum(lattice[label] for label in zz)
        )
        spread = np.max(energy.max(axis=1) - energy.min(axis=1))
        if spread > ENERGY_TOL:
            fails.append(f"<H> varies over tau within an interval by {spread:.3e}")

    if model["h_x"] == 0.0:
        # Spin-flip symmetry: an odd number of x/y factors has zero mean.
        for label, vals in lattice.items():
            odd = sum(axis in "xy" for axis, _ in _terms(label)) % 2 == 1
            if odd and np.max(np.abs(vals)) > PARITY_TOL:
                fails.append(f"parity-odd {label} reads {np.max(np.abs(vals)):.3e}, not 0")
    return fails


def guarded(check, *args) -> list[str]:
    """Run one check; output it cannot read counts as a failure."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output ({exc!r})"]


def check_workload(root: Path, rels: list[Path], contrasts: bool = True) -> list[str]:
    """Per-run checks, then (at the workload's own size) the paper's
    contrasts between regimes."""
    fails = []
    by_regime: dict[str, Path] = {}
    for rel in rels:
        run_dir = root / rel
        fails += [f"{rel}: {msg}" for msg in guarded(check_run, run_dir)]
        if (run_dir / "manifest.json").exists():
            model = _manifest(run_dir)["config"]["model"]
            by_regime[REGIMES[(model["h_x"], model["h_z"])]] = run_dir
    if contrasts:
        fails += guarded(check_contrasts, by_regime)
    return fails


def check_contrasts(by_regime: dict[str, Path]) -> list[str]:
    """Criterion 08 (free vs perturbed OTOCs) and 05 (deviation ratio)."""
    fails = []
    free = by_regime.get("free")
    pert = by_regime.get("perturbed")
    if free and pert and (free / "otoc_z2_z1.csv").exists():
        worst = max(
            np.max(np.abs(_columns(free / f)["value"] - _columns(pert / f)["value"]))
            for f in ("otoc_z2_z1.csv", "otoc_z3_z1.csv")
        )
        if worst >= OTOC_CONTRAST:
            fails.append(f"criterion 08: max |F_free - F_perturbed| = {worst:.4f}")
    chaotic = by_regime.get("chaotic")
    if free and chaotic and (free / "deviation_bins.csv").exists():
        d_free = _manifest(free)["results"]["deviation_total"]
        d_chaotic = _manifest(chaotic)["results"]["deviation_total"]
        if not d_free >= DEVIATION_RATIO * d_chaotic:
            fails.append(f"criterion 05: delta ratio {d_free:.4f} / {d_chaotic:.4f} below 4")
    return fails


def compare_rounds(first: Path, other: Path) -> list[str]:
    """A repeat must write byte-identical CSVs and the same manifest."""
    names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    others = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
    if names != others:
        return [f"file set differs from the first round: {sorted(set(names) ^ set(others))}"]
    fails = []
    for rel in names:
        if rel.name == "manifest.json":
            a, b = _manifest(first / rel.parent), _manifest(other / rel.parent)
            a.pop("duration_seconds")
            b.pop("duration_seconds")
            if a != b:
                fails.append(f"{rel} differs from the first round")
        elif (first / rel).read_bytes() != (other / rel).read_bytes():
            fails.append(f"{rel} is not byte-identical to the first round")
    return fails


def _dense(label: str, n_qubits: int) -> np.ndarray:
    factors = ["i"] * n_qubits
    for axis, site in _terms(label):
        factors[site] = axis
    out = np.eye(1, dtype=complex)
    for axis in factors:
        out = np.kron(out, PAULI[axis])
    return out


def _reduced(rho: np.ndarray, keep: list[int], n_qubits: int) -> np.ndarray:
    rest = [q for q in range(n_qubits) if q not in keep]
    order = keep + rest + [n_qubits + q for q in keep] + [n_qubits + q for q in rest]
    t = rho.reshape((2,) * (2 * n_qubits)).transpose(order)
    dk, dr = 2 ** len(keep), 2 ** len(rest)
    return np.trace(t.reshape(dk, dr, dk, dr), axis1=1, axis2=3)


def _entropy(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-12]
    return float(-np.sum(lam * np.log2(lam)))


def _tmi(rho: np.ndarray, a: list[int], b: list[int], c: list[int], n_qubits: int) -> float:
    def s(*parts):
        return _entropy(_reduced(rho, sorted(sum(parts, [])), n_qubits))

    return s(a) + s(b) + s(c) - s(a, b) - s(a, c) - s(b, c) + s(a, b, c)


def replay(manifest: dict) -> dict:
    """Full-register ``expm`` replay of a manifest's drive and diagnostics."""
    from scipy.linalg import eigh, expm

    cfg = manifest["config"]
    model, drive, tasks = cfg["model"], cfg["drive"], cfg["tasks"]
    n = model["n"]
    nq = n + 1
    # README's H on the chain alone (chain site i at position i - 1), then
    # the identity on the reference qubit 0.
    h_chain = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n - 1):
        h_chain -= model["j"] * _dense(f"x{i}*x{i + 1}", n)
    for i in range(n):
        h_chain += model["h_x"] * _dense(f"x{i}", n) + model["h_z"] * _dense(f"z{i}", n)
    h_full = np.kron(PAULI["i"], h_chain)

    t_in, n_grid = drive["t_in"], drive["n_grid"]
    grid = np.arange(n_grid) * (t_in / n_grid)
    u_grid = [expm(-1j * h_full * tau) for tau in grid]
    u_in = expm(-1j * h_full * t_in)

    ground = eigh(h_chain)[1][:, 0]
    up = np.zeros((2, 2), dtype=complex)
    up[0, 0] = 1.0
    rho = np.kron(up, np.outer(ground, ground.conj()))

    labels = cfg["readouts"]
    ops_tau = {
        label: np.array([u.conj().T @ _dense(label, nq) @ u for u in u_grid])
        for label in labels
    }
    s_values = manifest["inputs"]["values"]
    washout, n_train, n_test = drive["washout"], drive["train"], drive["test"]
    n_cap = min(drive["tmi_cap"], n_test)
    readouts = {label: np.zeros((n_train + n_test, n_grid)) for label in labels}
    mean = np.zeros_like(rho)
    snapshots = []
    for k, s in enumerate(s_values):
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = np.sqrt(s), np.sqrt(1.0 - s)
        rest = _reduced(rho, list(range(2, nq)), nq)
        rho = np.kron(np.outer(psi, psi.conj()), rest)
        row = k - washout
        if row >= 0:
            for label in labels:
                readouts[label][row] = np.einsum("ij,mji->m", rho, ops_tau[label]).real
            if row >= n_train:
                mean += rho / n_test
                if len(snapshots) < n_cap:
                    snapshots.append(rho)
        rho = u_in @ rho @ u_in.conj().T

    out = {"readouts": readouts}
    for o in tasks["otoc"]:
        w, v = _dense(o["w"], nq), _dense(o["v"], nq)
        w_tau = [u.conj().T @ w @ u for u in u_grid]
        out[_otoc_file(o)] = np.array([np.trace(mean @ wt @ v @ wt @ v).real for wt in w_tau])
    z1 = _dense("z1", nq)
    for q in tasks["correlations"]:
        zq = _dense(f"z{q}", nq)
        out[f"corr_z1_z{q}.csv"] = np.array(
            [np.trace(mean @ z1 @ u.conj().T @ zq @ u) for u in u_grid]
        )
    for t in tasks["tmi"]:
        out[_tmi_file(t)] = np.array(
            [
                np.mean([_tmi(u @ r @ u.conj().T, t["a"], t["b"], t["c"], nq) for r in snapshots])
                for u in u_grid
            ]
        )
    return out


def compare_with_replay(run_dir: Path) -> list[str]:
    """Read-outs, OTOCs, correlations and TMI against the ``expm`` replay."""
    manifest = _manifest(run_dir)
    want = replay(manifest)
    fails = []
    n_grid = manifest["config"]["drive"]["n_grid"]
    cols = _columns(run_dir / "readouts.csv", skip=("phase",))
    for label, vals in want["readouts"].items():
        err = np.max(np.abs(cols[label].reshape(-1, n_grid) - vals))
        if err > REPLAY_TOL:
            fails.append(f"read-out {label} differs from the replay by {err:.3e}")
    for name, vals in want.items():
        if name == "readouts":
            continue
        got = _columns(run_dir / name)
        if name.startswith("corr_"):
            err = np.max(np.abs(got["real"] + 1j * got["imag"] - vals))
        else:
            err = np.max(np.abs(got["value"] - vals))
        if err > REPLAY_TOL:
            fails.append(f"{name} differs from the replay by {err:.3e}")
    return fails
