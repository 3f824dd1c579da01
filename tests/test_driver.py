import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qrp.driver
from helpers import (
    expm_drive,
    initial_state,
    inject_input,
    propagator,
    random_hermitian,
    trace_out_qubit0,
)
from qrp.driver import (
    DriveConfig,
    DriveError,
    generate_inputs,
    run_drive,
)
from qrp.hamiltonian import IsingParams, spectral_model
from qrp.pauli import PauliString, build_dense, minus_eigenspace, parse_operator_label
from qrp.states import partial_trace

ORDERS = {"heisenberg": True, "eigenbasis": False}


def force_order(mp, order: str, n: int, rows: int) -> list[str]:
    """Make ``run_drive`` read out ``rows`` stored rests per chunk, all in
    one contraction order; returns the list of orders that ran."""
    mp.setattr(qrp.driver, "CHUNK_BYTES", rows * 8 * 4 ** (n - 1))
    mp.setattr(qrp.driver, "_heisenberg_is_cheaper", lambda *args: ORDERS[order])
    ran = []
    for name in ORDERS:
        method = getattr(qrp.driver._Readout, "_" + name)

        def spy(self, packed, s, method=method, name=name):
            ran.append(name)
            return method(self, packed, s)

        mp.setattr(qrp.driver._Readout, "_" + name, spy)
    return ran


def assert_physical(rho: np.ndarray) -> None:
    assert abs(np.trace(rho) - 1.0) < 1e-9
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
    assert np.linalg.eigvalsh(rho)[0] > -1e-8


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
        values, boundary, mean, rests = reference_drive(cfg, model, labels, inputs)
        for order in ORDERS:
            with pytest.MonkeyPatch.context() as mp:
                ran = force_order(mp, order, model.n, rows=2)
                record, ensemble = run_drive(cfg, model, labels, inputs)
            assert set(ran) == {order}
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
        assert_physical(ensemble.chain_mean)
        assert ensemble.max_trace_drift < 1e-12
        assert ensemble.max_hermiticity_residue < 1e-12

    def test_trace_drift_aborts(self):
        params = IsingParams(n=2, h_x=0.0, h_z=1.0)
        model = spectral_model(params)
        model.eigenvectors = model.eigenvectors * 1.001  # force a broken basis
        cfg = small_config()
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        with pytest.raises(DriveError, match=r"interval 0 \(washout\): trace drift"):
            run_drive(cfg, model, ["z1"], inputs)

    def test_broken_state_names_interval_phase_and_quantity(self):
        cfg = small_config()  # washout 4, train 5, test 4
        good = np.diag([0.25, 0.75]).astype(complex)
        skewed = good.copy()
        skewed[0, 1] = 1e-3
        cases = [
            (good * 1.01, 2, r"interval 2 \(washout\): trace drift 1\.000e-02"),
            (skewed, 6, r"interval 6 \(train\): Hermiticity residue 1\.000e-03"),
            (good * np.nan, 9, r"interval 9 \(test\): trace drift nan"),
        ]
        for rest, k, message in cases:
            with pytest.raises(DriveError, match=message):
                qrp.driver._state_health(rest, k, cfg)
        assert qrp.driver._state_health(good, 0, cfg) == (0.0, 0.0)

    def test_state_health_with_scratch_buffer(self):
        cfg = small_config()
        rest = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
        rest[0, 3] = 1e-9j
        scratch = np.full(3 * 16, np.nan)
        for k in (0, 5, 12):
            assert qrp.driver._state_health(rest, k, cfg, scratch) == qrp.driver._state_health(
                rest, k, cfg
            )
        assert qrp.driver._state_health(rest, 0, cfg, scratch)[1] == 1e-9

    def test_no_readouts(self):
        # 20 stored rests against 2 grid times: with no operators the
        # operation counts would favour the Heisenberg order, so the drive
        # must not read out at all.
        model = spectral_model(IsingParams(n=2, h_x=-0.5, h_z=1.05))
        cfg = small_config(n_grid=2, n_train=10, n_test=10)
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        assert qrp.driver._heisenberg_is_cheaper(20, model.dim, [], cfg.n_grid)
        record, ensemble = run_drive(cfg, model, [], inputs)
        assert record.values.shape == (0, 20, 2)
        _, with_readout = run_drive(cfg, model, ["z1"], inputs)
        np.testing.assert_array_equal(ensemble.chain_mean, with_readout.chain_mean)
        np.testing.assert_array_equal(ensemble.sample_rest, with_readout.sample_rest)

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


_CHAIN_TERMS = st.dictionaries(st.integers(1, 4), st.sampled_from("xyz"), max_size=3)


class TestAgainstExpmDrive:
    """``run_drive`` in both contraction orders against a full-register
    ``expm`` drive, with chunks of three stored rests, so that chunk
    boundaries fall inside both the training and the testing phase."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        h_x=st.floats(-1.0, 1.0),
        h_z=st.floats(0.3, 1.5),
        t_in=st.floats(0.3, 3.0),
        lengths=st.tuples(st.integers(0, 3), st.integers(4, 7), st.integers(4, 7)),
        tmi_cap=st.integers(0, 8),
        seed=st.integers(0, 2**16),
        chains=st.lists(_CHAIN_TERMS, min_size=4, max_size=4),
    )
    def test_matches_expm_drive(self, n, h_x, h_z, t_in, lengths, tmi_cap, seed, chains):
        washout, train, test = lengths
        cfg = DriveConfig(
            t_in=t_in, n_grid=3, n_washout=washout, n_train=train, n_test=test,
            seed=seed, tmi_cap=tmi_cap,
        )
        # One read-out per qubit-0 axis, with a random chain part.
        readouts = []
        for axis0, terms in zip("ixyz", chains):
            chain = {1 + (q - 1) % n: a for q, a in terms.items()}
            if axis0 == "i":
                readouts.append(PauliString.from_terms(chain or {1: "z"}))
            else:
                readouts.append(PauliString.from_terms({0: axis0, **chain}))
        model = spectral_model(IsingParams(n=n, h_x=h_x, h_z=h_z))
        inputs = generate_inputs(seed, cfg.n_total)
        _, mean, snapshots, values = expm_drive(n, h_x, h_z, cfg, inputs, readouts)
        want_rests = [partial_trace(rho, tuple(range(2, n + 1))) for rho in snapshots]
        for order in ORDERS:
            with pytest.MonkeyPatch.context() as mp:
                ran = force_order(mp, order, n, rows=3)
                record, ensemble = run_drive(cfg, model, readouts, inputs)
            assert set(ran) == {order}
            for p in readouts:
                got = record.values[record.index_of(p.label())]
                assert np.max(np.abs(got - values[p.label()])) < 1e-10
            assert np.max(np.abs(ensemble.chain_mean - trace_out_qubit0(mean))) < 1e-10
            assert_physical(ensemble.chain_mean)
            assert ensemble.n_samples == len(want_rests)
            if want_rests:
                assert np.max(np.abs(ensemble.sample_rest - np.array(want_rests))) < 1e-10


class TestMinusRows:
    """D = B^dag U(tau), with B a basis of the -1 eigenspace of the chain
    part O, gives the Heisenberg blocks U_a^dag O U_b = delta_ab - 2 D_a^dag D_b
    for diagonal strings, strings with x/y factors and the identity."""

    @settings(max_examples=60, deadline=None)
    @given(
        axes=st.lists(st.sampled_from("ixyz"), min_size=1, max_size=5),
        tau=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**16),
    )
    @example(axes=list("ii"), tau=1.3, seed=1)
    @example(axes=list("zzi"), tau=0.7, seed=2)
    @example(axes=list("xyz"), tau=2.9, seed=3)
    def test_blocks_from_minus_rows(self, axes, tau, seed):
        n = len(axes)
        dim, h = 2**n, 2 ** (n - 1)
        chain = PauliString.from_terms({q: a for q, a in enumerate(axes) if a != "i"})
        energies, vecs = np.linalg.eigh(random_hermitian(np.random.default_rng(seed), dim))
        u = (vecs * np.exp(-1j * energies * tau)) @ vecs.conj().T
        d = qrp.driver.minus_rows(
            u, minus_eigenspace(chain, n), np.full((2, h, dim), np.nan, dtype=complex)
        )
        moved = u.conj().T @ (np.eye(dim) - build_dense(chain, n)) @ u / 2
        for a in (0, 1):
            block = slice(a * h, (a + 1) * h)
            got = d[:, block].conj().T @ d[:, block]
            assert np.max(np.abs(got - moved[block, block]), initial=0.0) < 1e-12
        got = d[:, :h].conj().T @ d[:, h:]
        assert np.max(np.abs(got - moved[:h, h:]), initial=0.0) < 1e-12


class TestReadoutOrderChoice:
    """The operation counts pick the Heisenberg order for chunks long enough
    to pay for its blocks, and the eigenbasis order otherwise."""

    def test_choices(self):
        choose = qrp.driver._heisenberg_is_cheaper
        # fig4 at N = 8 on a 50/100/100 drive: 200 stored rests, one chunk
        assert choose(200, 2**8, ["i"] * 8, 50)
        # 20 terms of H at N = 7, 300 stored rests
        assert choose(300, 2**7, ["i"] * 20, 50)
        # N = 9 and 10 with the appA read-outs on a 10/20/20 drive
        assert not choose(40, 2**9, ["i"] * 9, 50)
        assert not choose(16, 2**10, ["i"] * 10, 50)
        # a one-interval chunk never pays for the blocks
        assert not choose(1, 2**7, ["i", "x", "y", "z"], 50)


class TestDriveMemoryBound:
    """Traced peak of ``run_drive`` at N = 8 with chunks of eight stored
    rests (a 1 MiB budget): it must not grow with the drive, and stays under
    ``BOUND_CHUNKS`` budgets, i.e. one chunk plus 31 2^8 x 2^8 complex chain
    matrices of 1 MiB.  Storing every rest of the longer drive would add
    15 MiB."""

    BOUND_CHUNKS = 32
    READOUTS = ["z1", "x0*z2", "y0*x3", "z0*z4"]

    @pytest.fixture(scope="class")
    def model(self):
        return spectral_model(IsingParams(n=8, h_x=-0.5, h_z=1.05))

    @pytest.mark.parametrize("order", list(ORDERS))
    def test_peak_flat_in_drive_length(self, model, order):
        peaks = []
        budget = 0
        for length in (20, 80):
            cfg = DriveConfig(
                n_grid=5, n_washout=10, n_train=length, n_test=length, tmi_cap=2
            )
            inputs = generate_inputs(cfg.seed, cfg.n_total)
            with pytest.MonkeyPatch.context() as mp:
                force_order(mp, order, model.n, rows=8)
                budget = qrp.driver.CHUNK_BYTES
                tracemalloc.start()
                try:
                    run_drive(cfg, model, self.READOUTS, inputs)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        short, long = peaks
        assert abs(long - short) < 0.1 * short, [p / 2**20 for p in peaks]
        assert max(peaks) < self.BOUND_CHUNKS * budget, [p / 2**20 for p in peaks]


_THREAD_SCRIPT = """
import sys
import numpy as np
from qrp import DriveConfig, IsingParams, generate_inputs, run_drive, spectral_model
model = spectral_model(IsingParams(n=6, h_x=-0.5, h_z=1.05))
cfg = DriveConfig(n_washout=10, n_train=40, n_test=40, seed=5)
record, ensemble = run_drive(
    cfg, model, ["z1", "x0*z2", "y0*x3", "z0*z4", "x2*x3"], generate_inputs(5, cfg.n_total)
)
np.save(sys.argv[1], record.values)
"""


def test_blas_thread_count_does_not_change_results(tmp_path):
    src = str(Path(qrp.driver.__file__).resolve().parents[1])
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / f"threads{threads}.npy"
        subprocess.run(
            [sys.executable, "-c", _THREAD_SCRIPT, str(out)], env=env, check=True, timeout=120
        )
        values.append(np.load(out))
    assert np.max(np.abs(values[0] - values[1])) < 1e-12
