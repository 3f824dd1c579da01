import numpy as np
import pytest

from helpers import initial_state, inject_input, propagator, trace_out_qubit0
from qrp.driver import (
    DriveConfig,
    DriveError,
    generate_inputs,
    run_drive,
)
from qrp.hamiltonian import IsingParams, spectral_model
from qrp.pauli import build_dense, parse_operator_label
from qrp.states import partial_trace


def small_config(**kwargs):
    base = dict(
        t_in=1.3, n_grid=4, n_washout=4, n_train=5, n_test=4, seed=11, tmi_cap=3
    )
    base.update(kwargs)
    return DriveConfig(**base)


def reference_drive(config, model, labels, inputs):
    """Naive full-register loop used as the correctness oracle.

    Returns the read-outs on the grid, their values at tau = t_in, the mean
    post-injection test state, and the reduced states on qubits 2..N of the
    first ``tmi_cap`` testing intervals.
    """
    n_full = model.n + 1
    dense = {lab: build_dense(parse_operator_label(lab), n_full) for lab in labels}
    rho = initial_state(model)
    n_rows = config.n_train + config.n_test
    values = {lab: np.zeros((n_rows, config.n_grid)) for lab in labels}
    boundary = {lab: np.zeros(n_rows) for lab in labels}  # value at tau = t_in
    mean = np.zeros_like(rho)
    rests = []
    u_in = propagator(model, config.t_in)
    for k in range(config.n_total):
        rho = inject_input(rho, float(inputs.values[k]))
        row = k - config.n_washout
        if row >= 0:
            if row >= config.n_train:
                mean += rho / config.n_test
                if len(rests) < config.tmi_cap:
                    rests.append(partial_trace(rho, tuple(range(2, n_full))))
            for m, tau in enumerate(config.grid):
                u = propagator(model, float(tau))
                moved = u @ rho @ u.conj().T
                for lab in labels:
                    values[lab][row, m] = np.trace(moved @ dense[lab]).real
        rho = u_in @ rho @ u_in.conj().T
        if row >= 0:
            for lab in labels:
                boundary[lab][row] = np.trace(rho @ dense[lab]).real
    return values, boundary, mean, np.array(rests)


class TestGenerateInputs:
    def test_deterministic(self):
        a = generate_inputs(5, 100)
        b = generate_inputs(5, 100)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.digest() == b.digest()

    def test_range(self):
        seq = generate_inputs(2, 1000)
        assert seq.values.min() >= 0.0 and seq.values.max() <= 1.0

    def test_uniform_mean(self):
        seq = generate_inputs(1, 5000)
        bound = 3 * (1 / np.sqrt(12)) / np.sqrt(5000)
        assert abs(seq.values.mean() - 0.5) <= bound

    def test_count_validated(self):
        with pytest.raises(ValueError):
            generate_inputs(0, 0)


class TestDriveConfig:
    def test_grid_spacing(self):
        cfg = DriveConfig(t_in=5.0, n_grid=50)
        assert len(cfg.grid) == 50
        np.testing.assert_allclose(cfg.grid[1] - cfg.grid[0], 0.1)
        assert cfg.grid[-1] < cfg.t_in

    @pytest.mark.parametrize(
        "bad",
        [
            dict(t_in=0.0),
            dict(n_grid=0),
            dict(n_train=1),
            dict(n_test=1),
            dict(n_washout=-1),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            DriveConfig(**bad)


class TestRunDrive:
    def test_matches_full_register_oracle(self):
        params = IsingParams(n=3, h_x=-0.5, h_z=1.05)
        model = spectral_model(params)
        cfg = small_config()
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        labels = ["z1", "z0", "x0*x1", "y0*y2", "z2", "x2*x3", "z1*z3", "x3"]
        record, ensemble = run_drive(cfg, model, labels, inputs)
        values, boundary, mean, rests = reference_drive(cfg, model, labels, inputs)
        for lab in labels:
            got = record.values[record.index_of(lab)]
            assert np.max(np.abs(got - values[lab])) < 1e-10
        assert np.max(np.abs(ensemble.chain_mean - trace_out_qubit0(mean))) < 1e-10
        assert ensemble.sample_rest.shape == rests.shape
        assert np.max(np.abs(ensemble.sample_rest - rests)) < 1e-10

    def test_continuity_across_injection_for_distant_operators(self):
        # operators on qubits >= 2 see no jump when a new input lands
        params = IsingParams(n=3, h_x=0.0, h_z=1.0)
        model = spectral_model(params)
        cfg = small_config(seed=23)
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        labels = ["z2", "x2*x3", "z1"]
        record, _ = run_drive(cfg, model, labels, inputs)
        _, boundary, _, _ = reference_drive(cfg, model, labels, inputs)
        n_rows = cfg.n_train + cfg.n_test
        for lab in ("z2", "x2*x3"):
            got = record.values[record.index_of(lab)]
            for row in range(n_rows - 1):
                assert abs(got[row + 1, 0] - boundary[lab][row]) < 1e-10
        # the input qubit itself is discontinuous by construction
        z1 = record.values[record.index_of("z1")]
        jumps = [
            abs(z1[row + 1, 0] - boundary["z1"][row]) for row in range(n_rows - 1)
        ]
        assert max(jumps) > 1e-3

    def test_injection_values_at_tau_zero(self):
        params = IsingParams(n=2, h_x=-0.5, h_z=1.05)
        model = spectral_model(params)
        cfg = small_config(seed=3)
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        record, _ = run_drive(cfg, model, ["z1", "z0"], inputs)
        s = inputs.values[cfg.n_washout :]
        for lab in ("z1", "z0"):
            col = record.values[record.index_of(lab)][:, 0]
            assert np.max(np.abs(col - (2 * s - 1))) < 1e-9

    def test_spin_flip_symmetry_suppresses_x_readouts(self):
        params = IsingParams(n=4, h_x=0.0, h_z=1.0)
        model = spectral_model(params)
        cfg = small_config(n_washout=6, n_train=8, n_test=8, seed=9)
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        record, _ = run_drive(cfg, model, ["x3", "x1", "z2*x3"], inputs)
        assert np.max(np.abs(record.values)) < 1e-8

    def test_grid_refinement_consistency(self):
        params = IsingParams(n=3, h_x=-0.5, h_z=1.05)
        model = spectral_model(params)
        inputs = generate_inputs(31, small_config().n_total)
        coarse, _ = run_drive(small_config(n_grid=4), model, ["z1", "z3"], inputs)
        fine, _ = run_drive(small_config(n_grid=8), model, ["z1", "z3"], inputs)
        np.testing.assert_allclose(
            coarse.values, fine.values[:, :, ::2], atol=1e-10
        )

    def test_snapshot_cap(self):
        params = IsingParams(n=2, h_x=0.0, h_z=1.0)
        model = spectral_model(params)
        cfg = small_config(tmi_cap=2)
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        _, ensemble = run_drive(cfg, model, ["z1"], inputs)
        assert ensemble.n_samples == 2
        s = inputs.values[cfg.n_washout + cfg.n_train :]
        np.testing.assert_allclose(ensemble.sample_inputs, s[:2])

    def test_running_state_stays_physical(self):
        params = IsingParams(n=3, h_x=-0.5, h_z=1.05)
        model = spectral_model(params)
        cfg = small_config(n_washout=10, n_train=10, n_test=10)
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        _, ensemble = run_drive(cfg, model, ["z1"], inputs)
        rho = ensemble.chain_mean
        assert abs(np.trace(rho) - 1.0) < 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
        assert np.linalg.eigvalsh(rho)[0] > -1e-8

    def test_trace_drift_aborts(self):
        params = IsingParams(n=2, h_x=0.0, h_z=1.0)
        model = spectral_model(params)
        model.eigenvectors = model.eigenvectors * 1.001  # force a broken basis
        cfg = small_config()
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        with pytest.raises(DriveError, match="trace drift"):
            run_drive(cfg, model, ["z1"], inputs)

    def test_input_length_validated(self):
        params = IsingParams(n=2, h_x=0.0, h_z=1.0)
        model = spectral_model(params)
        cfg = small_config()
        with pytest.raises(ValueError, match="length"):
            run_drive(cfg, model, ["z1"], generate_inputs(1, cfg.n_total - 1))

    def test_readout_site_validated(self):
        params = IsingParams(n=2, h_x=0.0, h_z=1.0)
        model = spectral_model(params)
        cfg = small_config()
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        with pytest.raises(ValueError, match="site"):
            run_drive(cfg, model, ["z5"], inputs)
        with pytest.raises(ValueError, match="duplicate"):
            run_drive(cfg, model, ["z1", "z1"], inputs)
