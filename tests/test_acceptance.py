"""Acceptance suite: every gate criterion at its stated tolerance.

Criteria 1-9 run the three chain regimes at full production scale
(N = 7, t_in = 5, washout/train/test = 1000/2000/2000, 50-point grid,
seed 42) and check the quantitative anchors; criteria 10-13 are
preset-independent oracle and invariant suites.  Each test prints one
pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    evolve,
    expectation,
    propagator,
    random_density,
    random_pure,
    register_ensemble,
    sample_state,
)
from qrp.config import build_config
from qrp.diagnostics import (
    OtocSpec,
    TmiSpec,
    correlation_curve,
    dynamical_correlation,
    otoc,
    otoc_curve,
    tmi_curve,
)
from qrp.driver import DriveConfig, generate_inputs, run_drive
from qrp.experiment import replay_manifest, run_experiment
from qrp.hamiltonian import (
    CHAOTIC,
    FREE_FERMION,
    PERTURBED,
    IsingParams,
    spectral_model,
)
from qrp.pauli import PauliString, build_dense
from qrp.regression import data_deviation, r2_score, stm_curve, train_weights

N_CHAIN = 7
Z_SCAN = [f"z{i}" for i in range(1, N_CHAIN + 1)]
X_SCAN = [f"x{i}" for i in range(1, N_CHAIN + 1)]


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} {name}: {status}  [{detail}]", flush=True)
    assert passed, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def runs():
    """Three full-scale drives shared by the quantitative criteria."""
    cfg = DriveConfig()
    systems = {
        "free": (FREE_FERMION, Z_SCAN + X_SCAN + ["z2*z3", "z2*x3", "x2*z3"]),
        "chaotic": (CHAOTIC, Z_SCAN),
        "perturbed": (PERTURBED, ["z1", "z2*x3", "x2*z3"]),
    }
    out = {}
    for tag, (fields, readouts) in systems.items():
        model = spectral_model(IsingParams(n=N_CHAIN, h_x=fields[0], h_z=fields[1]))
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        record, ensemble = run_drive(cfg, model, readouts, inputs)
        out[tag] = SimpleNamespace(model=model, record=record, ensemble=ensemble)
    return cfg, out


def test_01_input_linearity(runs):
    cfg, systems = runs
    values = {
        tag: stm_curve(sys.record, "z1", 0).r2[0] for tag, sys in systems.items()
    }
    ok = all(abs(v - 1.0) <= 1e-6 for v in values.values())
    detail = ", ".join(f"{tag}: r2(0)={v:.9f}" for tag, v in values.items())
    _report(1, "input-linearity", ok, detail)


def test_02_free_fermion_channel_suppression(runs):
    _, systems = runs
    free = systems["free"]
    zz = stm_curve(free.record, "z2*z3", 0).r2.max()
    xx = max(stm_curve(free.record, lab, 0).r2.max() for lab in X_SCAN)
    ok = zz < 0.05 and xx < 0.05
    _report(
        2,
        "free-channel-suppression",
        ok,
        f"max r2: z2*z3={zz:.4f}, x-readouts={xx:.4f} (both < 0.05)",
    )


def test_03_ballistic_ordering(runs):
    _, systems = runs
    free = systems["free"]
    peaks = [
        int(np.argmax(stm_curve(free.record, f"z{i}", 0).r2)) for i in range(1, 6)
    ]
    ok = all(b > a for a, b in zip(peaks, peaks[1:]))
    _report(3, "ballistic-ordering", ok, f"argmax grid indices {peaks}")


def test_04_otoc_asymptotics(runs):
    """F_zz_i = <z_i(tau) z_1 z_i(tau) z_1> settles near 1 (free), near 0 (chaotic).

    The two asymptotes are read in different windows, because the chains
    reach them at different times:

    - free, at ``tau = grid[-1] = 4.9``: the quasiparticle front has passed
      qubits 2 and 3 but has not yet come back off the open boundary.  On
      (0.5, 5] both free z-OTOCs lie in the band only for tau in
      [4.28, 4.98]; afterwards reflections pull them down (mean about 0.53
      on [10, 40]).
    - chaotic, at every point of ``grid + 2 t_in`` = [10, 14.9]: the
      operator front has crossed the N = 7 chain and come back.  At
      tau = 4.9 chaotic F_zz_2 is still in its transient (0.1668, and
      0.167-0.214 across [4.28, 4.98]), so no single time satisfies both
      halves.  It leaves the band for the last time at tau = 5.64 and its
      largest |F| on [10, 40] is 0.133.  The late window still rejects a
      chain that does not scramble: the free chain's largest |F| there is
      0.78 (z2) and 0.89 (z3).

    The first-interval chaotic values are printed so the transient stays
    visible.  ``TestOtoc.test_chaotic_n7_matches_expm_oracle`` in
    ``test_diagnostics.py`` pins ``otoc`` at these times against an
    independent ``expm`` evolution.
    """
    cfg, systems = runs
    tau_last = float(cfg.grid[-1])
    late = cfg.grid + 2 * cfg.t_in
    taus = np.append(tau_last, late)
    bands = {"free": (0.85, 1.05), "chaotic": (-0.15, 0.15)}
    details = []
    ok = True
    for tag, band in bands.items():
        sys = systems[tag]
        for i in (2, 3):
            values, _ = otoc_curve(
                sys.ensemble, OtocSpec.of(f"z{i}", "z1"), sys.model, taus
            )
            checked = values[:1] if tag == "free" else values[1:]
            inside = bool(np.all((band[0] <= checked) & (checked <= band[1])))
            ok = ok and inside
            late_max = np.abs(values[1:]).max()
            details.append(
                f"{tag} F_zz_{i}({tau_last:g})={values[0]:.4f}, "
                f"max|F| on [{late[0]:g}, {late[-1]:g}]={late_max:.4f}"
                + ("" if inside else f" OUTSIDE {band}")
            )
    _report(4, "otoc-asymptotics", ok, "; ".join(details))


def test_05_deviation_criterion(runs):
    cfg, systems = runs
    taus = cfg.grid

    def delta_of(sys):
        corr, r2 = [], []
        for i in range(1, N_CHAIN + 1):
            curve = correlation_curve(sys.ensemble, i, sys.model, taus)
            corr.append(np.clip(np.abs(curve), 0.0, 1.0))
            r2.append(stm_curve(sys.record, f"z{i}", 0).r2)
        delta, _ = data_deviation(np.concatenate(corr), np.concatenate(r2), 4000)
        return delta

    d_free = delta_of(systems["free"])
    d_chaotic = delta_of(systems["chaotic"])
    ratio = d_free / d_chaotic if d_chaotic > 0 else np.inf
    ok = ratio >= 4.0
    _report(
        5,
        "deviation-criterion",
        ok,
        f"delta_free={d_free:.4f}, delta_chaotic={d_chaotic:.4f}, "
        f"ratio={ratio:.2f} (gate >= 4; reference values 0.2866 / 0.0299)",
    )


def test_06_tmi_turns_negative(runs):
    cfg, systems = runs
    spec = TmiSpec(a=(0,), b=(2,), c=(3,))
    details = []
    ok = True
    for tag in ("free", "chaotic"):
        sys = systems[tag]
        curve = tmi_curve(sys.ensemble, spec, sys.model, cfg.grid)
        low = float(curve.min())
        ok = ok and low < -0.01
        details.append(f"{tag} min I3(0:2:3)={low:.4f}")
    _report(6, "tmi-sign", ok, "; ".join(details) + " (gate < -0.01)")


def test_07_perturbation_sensitivity(runs):
    _, systems = runs
    labels = ("z2*x3", "x2*z3")
    pert = [stm_curve(systems["perturbed"].record, lab, 0).r2.max() for lab in labels]
    free = [stm_curve(systems["free"].record, lab, 0).r2.max() for lab in labels]
    ok = all(v > 0.1 for v in pert) and all(v < 0.05 for v in free)
    _report(
        7,
        "perturbation-sensitivity",
        ok,
        f"perturbed max r2={pert[0]:.3f}/{pert[1]:.3f} (> 0.1), "
        f"free={free[0]:.2e}/{free[1]:.2e} (< 0.05)",
    )


def test_08_otoc_perturbation_insensitivity(runs):
    cfg, systems = runs
    worst = 0.0
    for i in (2, 3):
        spec = OtocSpec.of(f"z{i}", "z1")
        for tau in cfg.grid:
            f_free = otoc(
                systems["free"].ensemble, spec, systems["free"].model, float(tau)
            )
            f_pert = otoc(
                systems["perturbed"].ensemble,
                spec,
                systems["perturbed"].model,
                float(tau),
            )
            worst = max(worst, abs(f_free - f_pert))
    ok = worst < 0.05
    _report(
        8,
        "otoc-perturbation-insensitivity",
        ok,
        f"max |F_free - F_perturbed| over grid = {worst:.4f} (< 0.05)",
    )


def test_09_chaotic_homogenization(runs):
    _, systems = runs
    last = [
        stm_curve(systems["chaotic"].record, f"z{i}", 2).r2[-1]
        for i in range(1, N_CHAIN + 1)
    ]
    spread = max(last) - min(last)
    _report(
        9,
        "chaotic-homogenization",
        spread < 0.1,
        f"d=2 last-grid r2 spread over qubits = {spread:.4f} (< 0.1)",
    )


def test_generalization_gap(runs):
    """Two-parameter read-outs must not overfit: r2_train >= r2_test - 0.05."""
    cfg, systems = runs
    worst = -1.0
    for sys in systems.values():
        s = sys.record.inputs.values
        k_train = sys.record.first_step + np.arange(sys.record.n_train)
        y_train = s[k_train]
        for lab in sys.record.operators:
            x_train = sys.record.train_values(lab)
            r2_test = stm_curve(sys.record, lab, 0).r2
            for m in range(len(cfg.grid)):
                w_o, w_c = train_weights(x_train[:, m], y_train)
                r2_train = r2_score(w_o * x_train[:, m] + w_c, y_train)
                worst = max(worst, r2_test[m] - r2_train)
    assert worst <= 0.05, f"generalization gap {worst:.4f}"


def test_delay_continuity_at_interval_boundary(runs):
    """r2_d at tau = t_in equals r2_{d+1} at tau = 0 for distant qubits.

    Operators on qubits 2..N evolve through an injection untouched, so the
    value at the end of interval k is the value at the start of interval
    k+1; pairing those boundary values with the d-step-delayed targets must
    reproduce the (d+1)-delay curve at tau = 0.
    """
    _, systems = runs
    record = systems["free"].record
    s = record.inputs.values
    n_rows = record.n_train + record.n_test
    for lab in (f"z{i}" for i in range(2, N_CHAIN + 1)):
        boundary = record.values[record.index_of(lab)][1:, 0]  # v(k, t_in)
        for d in (0, 1):
            k_rows = record.first_step + np.arange(n_rows - 1)
            y = s[k_rows - d]
            w_o, w_c = train_weights(
                boundary[: record.n_train], y[: record.n_train]
            )
            pred = w_o * boundary[record.n_train :] + w_c
            r2_at_tin = r2_score(pred, y[record.n_train :])
            r2_next = stm_curve(record, lab, d + 1).r2[0]
            assert abs(r2_at_tin - r2_next) <= 0.05, (lab, d)


def test_10_numerical_kernel_suite():
    from qrp.states import partial_trace, von_neumann_entropy

    rng = np.random.default_rng(101)
    model = spectral_model(IsingParams(n=4, h_x=-0.5, h_z=1.05))
    checks = []

    for tau in (0.3, 1.7, 4.9):
        u = propagator(model, tau)
        checks.append(np.max(np.abs(u.conj().T @ u - np.eye(32))) <= 1e-10)

    v, e = model.eigenvectors, model.eigenvalues
    rebuilt = (v * e) @ v.conj().T
    checks.append(
        np.max(np.abs(rebuilt - model.hamiltonian))
        <= 1e-10 * np.max(np.abs(model.hamiltonian))
    )

    for _ in range(5):
        rho = random_density(rng, 32)
        out = evolve(rho, propagator(model, 1.1))
        checks.append(abs(np.trace(out).real - 1.0) <= 1e-9)
        checks.append(np.linalg.eigvalsh(out)[0] >= -1e-8)

    rho = random_density(rng, 32)
    two_step = partial_trace(partial_trace(rho, (0, 2, 3)), (0, 1))
    checks.append(np.max(np.abs(two_step - partial_trace(rho, (0, 2)))) <= 1e-12)

    checks.append(von_neumann_entropy(random_pure(rng, 16)) <= 1e-9)
    checks.append(abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) <= 1e-12)
    for _ in range(5):
        rho = random_density(rng, 16)
        s_a = von_neumann_entropy(partial_trace(rho, (0, 1)))
        s_b = von_neumann_entropy(partial_trace(rho, (2, 3)))
        s_ab = von_neumann_entropy(rho)
        checks.append(s_ab <= s_a + s_b + 1e-8)
        checks.append(abs(s_a - s_b) <= s_ab + 1e-8)

    _report(10, "numerical-kernel-suite", all(checks), f"{len(checks)} checks")


def test_11_regression_oracle():
    rng = np.random.default_rng(102)

    def pinv_oracle(x, y):
        design = np.column_stack([x, np.ones_like(x)])
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        s_inv = np.where(s > 1e-12 * s.max(), 1.0 / np.where(s == 0, 1.0, s), 0.0)
        return vt.T @ (s_inv * (u.T @ y))

    worst = 0.0
    for trial in range(30):
        n = int(rng.integers(2, 80))
        if trial % 3 == 0:
            x = np.full(n, rng.normal())  # rank-deficient design
        else:
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
        y = rng.normal(size=n)
        got = np.array(train_weights(x, y))
        worst = max(worst, float(np.max(np.abs(got - pinv_oracle(x, y)))))

    affine_drift = 0.0
    for _ in range(10):
        y = rng.random(60)
        a = rng.normal() or 1.0
        b = rng.normal()
        affine_drift = max(affine_drift, abs(r2_score(a * y + b, y) - 1.0))

    ok = worst <= 1e-9 and affine_drift <= 1e-9
    _report(
        11,
        "regression-oracle",
        ok,
        f"pinv max |dw|={worst:.2e}, affine r2 drift={affine_drift:.2e}",
    )


def test_12_brute_force_equivalence():
    from qrp.states import input_state

    rng = np.random.default_rng(103)
    model = spectral_model(IsingParams(n=3, h_x=-0.5, h_z=1.05))
    dim = 16

    worst = 0.0
    for _ in range(5):
        rho = random_density(rng, 8)
        op = PauliString.from_terms(
            {int(q): "xyz"[rng.integers(3)] for q in rng.choice(3, 2, replace=False)}
        )
        dense = build_dense(op, 3)
        oracle = sum(rho[i, j] * dense[j, i] for i in range(8) for j in range(8))
        worst = max(worst, abs(expectation(rho, op) - oracle.real))

    n_samp = 3
    s_vals = rng.random(n_samp)
    rests = np.array([random_density(rng, 4) for _ in range(n_samp)])
    mean = np.zeros((dim, dim), dtype=complex)
    for s, rest in zip(s_vals, rests):
        psi = input_state(float(s))
        mean += np.kron(np.outer(psi, psi.conj()), rest) / n_samp
    ensemble = register_ensemble(mean, s_vals, rests)
    z1 = build_dense(PauliString.from_terms({1: "z"}), 4)
    for tau in (0.4, 1.3):
        u = propagator(model, tau)
        z2_tau = u.conj().T @ build_dense(PauliString.from_terms({2: "z"}), 4) @ u
        oracle = np.mean(
            [
                np.trace(sample_state(ensemble, i) @ z1 @ z2_tau)
                for i in range(n_samp)
            ]
        )
        got = dynamical_correlation(ensemble, 2, model, tau)
        worst = max(worst, abs(got - oracle))

        spec = OtocSpec.of("z2", "z1")
        w_tau = z2_tau
        v = z1
        otoc_oracle = np.mean(
            [
                np.trace(sample_state(ensemble, i) @ w_tau @ v @ w_tau @ v).real
                for i in range(n_samp)
            ]
        )
        worst = max(worst, abs(otoc(ensemble, spec, model, tau) - otoc_oracle))

    _report(12, "brute-force-equivalence", worst <= 1e-10, f"max |err|={worst:.2e}")


def test_13_determinism(tmp_path):
    blocks = (
        {"n": 3},
        {"t_in": 1.1, "n_grid": 3, "washout": 4, "train": 6, "test": 6, "tmi_cap": 2},
        ["z1", "z2", "x2*x3"],
        {
            "stm_delays": [0, 1],
            "correlations": [1, 2],
            "otoc": [{"w": "z2", "v": "z1"}],
            "tmi": [{"a": [0], "b": [2], "c": [3]}],
            "record": True,
        },
    )
    config = build_config(*blocks)
    first = run_experiment(config, tmp_path / "a")
    run_experiment(build_config(*blocks), tmp_path / "b")
    replay_manifest(first, tmp_path / "c")

    csvs = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    mismatched = []
    for name in csvs:
        ref = (tmp_path / "a" / name).read_bytes()
        if (tmp_path / "b" / name).read_bytes() != ref:
            mismatched.append(f"rerun:{name}")
        if (tmp_path / "c" / name).read_bytes() != ref:
            mismatched.append(f"replay:{name}")
    manifest = json.loads(first.read_text())
    digest_ok = (
        json.loads((tmp_path / "c" / "manifest.json").read_text())["inputs"][
            "digest_sha256"
        ]
        == manifest["inputs"]["digest_sha256"]
    )
    ok = not mismatched and digest_ok
    _report(
        13,
        "determinism",
        ok,
        f"{len(csvs)} CSVs bit-identical across rerun and manifest replay"
        if ok
        else f"mismatches: {mismatched}, digest_ok={digest_ok}",
    )
