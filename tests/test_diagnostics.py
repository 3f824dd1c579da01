import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    heisenberg,
    propagator,
    random_density,
    register_ensemble,
    sample_state,
)
from qrp.diagnostics import (
    CHUNK_BYTES,
    OtocSpec,
    TmiSpec,
    correlation_curve,
    dynamical_correlation,
    otoc,
    otoc_curve,
    tmi,
    tmi_curve,
)
from qrp.driver import DriveConfig, StateEnsemble, generate_inputs, run_drive
from qrp.hamiltonian import CHAOTIC, IsingParams, spectral_model
from qrp.pauli import PauliString, build_dense
from qrp.states import input_state, partial_trace


def make_register_mean(s_vals, rests):
    """Full-register mean of post-injection snapshots (s_k, rest_k)."""
    dim = 4 * rests.shape[-1]
    mean = np.zeros((dim, dim), dtype=complex)
    for s, rest in zip(s_vals, rests):
        psi = input_state(float(s))
        mean += np.kron(np.outer(psi, psi.conj()), rest) / len(s_vals)
    return mean


def make_ensemble(rng, model, n_samples=4):
    """Hand-built ensemble of valid post-injection snapshots."""
    half = model.dim // 2
    s_vals = rng.random(n_samples)
    rests = np.array([random_density(rng, half) for _ in range(n_samples)])
    mean = make_register_mean(s_vals, rests)
    return register_ensemble(mean, s_vals, rests)


@pytest.fixture(scope="module")
def chaotic3():
    return spectral_model(IsingParams(n=3, h_x=-0.5, h_z=1.05))


class TestHeisenberg:
    def test_zero_time(self, chaotic3):
        op = PauliString.from_terms({2: "x", 3: "z"})
        dense = build_dense(op, 4)
        assert np.max(np.abs(heisenberg(op, chaotic3, 0.0) - dense)) < 1e-12

    def test_conserved_operator_constant(self):
        model = spectral_model(IsingParams(n=1, h_x=0.0, h_z=1.0))
        op = PauliString.from_terms({1: "z"})
        fixed = build_dense(op, 2)
        for tau in (0.3, 1.7):
            assert np.max(np.abs(heisenberg(op, model, tau) - fixed)) < 1e-10

    def test_single_spin_precession(self):
        model = spectral_model(IsingParams(n=1, h_x=0.0, h_z=1.0))
        tau = 0.83
        got = heisenberg(PauliString.from_terms({1: "x"}), model, tau)
        sx = build_dense(PauliString.from_terms({1: "x"}), 2)
        sy = build_dense(PauliString.from_terms({1: "y"}), 2)
        expected = np.cos(2 * tau) * sx - np.sin(2 * tau) * sy
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_spectrum_preserved(self, chaotic3):
        op = PauliString.from_terms({1: "z", 2: "z"})
        before = np.linalg.eigvalsh(build_dense(op, 4))
        after = np.linalg.eigvalsh(heisenberg(op, chaotic3, 1.9))
        np.testing.assert_allclose(before, after, atol=1e-9)

    def test_hermitian(self, chaotic3):
        out = heisenberg(PauliString.from_terms({1: "x"}), chaotic3, 2.4)
        assert np.max(np.abs(out - out.conj().T)) < 1e-10


class TestDynamicalCorrelation:
    def test_equal_time_autocorrelation_is_one(self, chaotic3):
        rng = np.random.default_rng(30)
        ensemble = make_ensemble(rng, chaotic3)
        value = dynamical_correlation(ensemble, 1, chaotic3, 0.0)
        assert abs(value - 1.0) < 1e-10

    def test_matches_per_snapshot_average(self, chaotic3):
        rng = np.random.default_rng(31)
        ensemble = make_ensemble(rng, chaotic3)
        tau = 0.9
        z1 = build_dense(PauliString.from_terms({1: "z"}), 4)
        z2_tau = heisenberg(PauliString.from_terms({2: "z"}), chaotic3, tau)
        oracle = np.mean(
            [
                np.trace(sample_state(ensemble, i) @ z1 @ z2_tau)
                for i in range(ensemble.n_samples)
            ]
        )
        got = dynamical_correlation(ensemble, 2, chaotic3, tau)
        assert abs(got - oracle) < 1e-10

    def test_curve_matches_pointwise(self, chaotic3):
        rng = np.random.default_rng(32)
        ensemble = make_ensemble(rng, chaotic3)
        taus = np.array([0.0, 0.4, 1.1])
        curve = correlation_curve(ensemble, 3, chaotic3, taus)
        for m, tau in enumerate(taus):
            point = dynamical_correlation(ensemble, 3, chaotic3, float(tau))
            assert abs(curve[m] - point) < 1e-12

    def test_bounded_modulus(self, chaotic3):
        rng = np.random.default_rng(33)
        ensemble = make_ensemble(rng, chaotic3)
        curve = correlation_curve(ensemble, 2, chaotic3, np.linspace(0, 2, 9))
        assert np.max(np.abs(curve)) <= 1.0 + 1e-9


class TestOtoc:
    def test_commuting_pair_at_zero_time(self, chaotic3):
        rng = np.random.default_rng(34)
        ensemble = make_ensemble(rng, chaotic3)
        value = otoc(ensemble, OtocSpec.of("z2", "z1"), chaotic3, 0.0)
        assert abs(value - 1.0) < 1e-12

    def test_identity_v_gives_one(self, chaotic3):
        rng = np.random.default_rng(35)
        ensemble = make_ensemble(rng, chaotic3)
        spec = OtocSpec(w=PauliString.from_terms({2: "z"}), v=PauliString())
        for tau in (0.0, 0.8, 2.3):
            assert abs(otoc(ensemble, spec, chaotic3, tau) - 1.0) < 1e-10

    def test_matches_brute_force_trace(self, chaotic3):
        rng = np.random.default_rng(36)
        ensemble = make_ensemble(rng, chaotic3)
        tau = 1.2
        spec = OtocSpec.of("z2", "z1")
        u = propagator(chaotic3, tau)
        w_tau = u.conj().T @ build_dense(spec.w, 4) @ u
        v = build_dense(spec.v, 4)
        mean = make_register_mean(ensemble.sample_inputs, ensemble.sample_rest)
        oracle = np.trace(mean @ w_tau @ v @ w_tau @ v)
        assert abs(otoc(ensemble, spec, chaotic3, tau) - oracle.real) < 1e-10

    def test_chaotic_n7_matches_expm_oracle(self):
        """Pins ``otoc`` at N = 7 for the times acceptance criterion 04 reads.

        tau = grid[-1] (free half) and two points of grid + 2 t_in (chaotic
        half).  The oracle builds the full-register Hamiltonian from Kronecker
        products of 2x2 Paulis, qubit 0 first and left untouched, and evolves
        with ``expm``; the state is the infinite-temperature ensemble.
        """
        n = 7
        h_x, h_z = CHAOTIC
        model = spectral_model(IsingParams(n=n, h_x=h_x, h_z=h_z))
        eye = np.eye(2, dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)

        def on_sites(ops: dict[int, np.ndarray]) -> np.ndarray:
            out = np.ones((1, 1), dtype=complex)
            for q in range(n + 1):
                out = np.kron(out, ops.get(q, eye))
            return out

        ham = sum(-on_sites({q: sx, q + 1: sx}) for q in range(1, n)) + sum(
            h_x * on_sites({q: sx}) + h_z * on_sites({q: sz}) for q in range(1, n + 1)
        )
        dim = 2 ** (n + 1)
        mixed = np.eye(dim, dtype=complex) / dim
        ensemble = register_ensemble(
            mixed, np.zeros(0), np.zeros((0, dim // 4, dim // 4))
        )
        cfg = DriveConfig()
        late = cfg.grid + 2 * cfg.t_in
        v = on_sites({1: sz})
        for i in (2, 3):
            w = on_sites({i: sz})
            spec = OtocSpec.of(f"z{i}", "z1")
            for tau in (cfg.grid[-1], late[0], late[-1]):
                u = scipy.linalg.expm(-1j * float(tau) * ham)
                w_tau = u.conj().T @ w @ u
                oracle = np.trace(mixed @ w_tau @ v @ w_tau @ v).real
                assert abs(otoc(ensemble, spec, model, float(tau)) - oracle) < 1e-10

    def test_curve_shape_and_residue(self, chaotic3):
        rng = np.random.default_rng(37)
        ensemble = make_ensemble(rng, chaotic3)
        values, residue = otoc_curve(
            ensemble, OtocSpec.of("z2", "z1"), chaotic3, np.linspace(0, 1, 5)
        )
        assert values.shape == (5,)
        assert residue < 1e-8


class TestTmi:
    def test_product_state_zero(self):
        rng = np.random.default_rng(38)
        parts = [random_density(rng, 2) for _ in range(4)]
        rho = parts[0]
        for p in parts[1:]:
            rho = np.kron(rho, p)
        spec = TmiSpec(a=(0,), b=(2,), c=(3,))
        assert abs(tmi(rho, spec)) < 1e-8

    def test_ghz_triple_zero(self):
        # GHZ on qubits (0, 2, 3), qubit 1 in a product state: all single and
        # pair entropies are 1 bit, the triple is pure.
        psi = np.zeros(16, dtype=complex)
        psi[0b0000] = 1 / np.sqrt(2)
        psi[0b1011] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert abs(tmi(rho, TmiSpec(a=(0,), b=(2,), c=(3,)))) < 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(39)
        rho = random_density(rng, 16)
        base = tmi(rho, TmiSpec(a=(0,), b=(1,), c=(3,)))
        for a, b, c in (((1,), (0,), (3,)), ((3,), (1,), (0,))):
            assert abs(tmi(rho, TmiSpec(a=a, b=b, c=c)) - base) < 1e-10

    def test_overlapping_subsets_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            TmiSpec(a=(0,), b=(0, 2), c=(3,))
        with pytest.raises(ValueError, match="empty"):
            TmiSpec(a=(), b=(1,), c=(2,))
        with pytest.raises(ValueError, match="negative"):
            TmiSpec(a=(-1,), b=(2,), c=(3,))

    def test_matches_direct_entropy_sum(self):
        from qrp.states import von_neumann_entropy as s_vn

        rng = np.random.default_rng(40)
        rho = random_density(rng, 16)
        spec = TmiSpec(a=(0,), b=(2,), c=(3,))
        expected = (
            s_vn(partial_trace(rho, (0,)))
            + s_vn(partial_trace(rho, (2,)))
            + s_vn(partial_trace(rho, (3,)))
            - s_vn(partial_trace(rho, (0, 2)))
            - s_vn(partial_trace(rho, (0, 3)))
            - s_vn(partial_trace(rho, (2, 3)))
            + s_vn(partial_trace(rho, (0, 2, 3)))
        )
        assert abs(tmi(rho, spec) - expected) < 1e-10

    def test_curve_averages_snapshots(self, chaotic3):
        rng = np.random.default_rng(41)
        ensemble = make_ensemble(rng, chaotic3, n_samples=3)
        taus = np.array([0.0, 0.7])
        spec = TmiSpec(a=(0,), b=(2,), c=(3,))
        curve = tmi_curve(ensemble, spec, chaotic3, taus)
        for m, tau in enumerate(taus):
            u = propagator(chaotic3, float(tau))
            oracle = np.mean(
                [
                    tmi(u @ sample_state(ensemble, i) @ u.conj().T, spec)
                    for i in range(3)
                ]
            )
            assert abs(curve[m] - oracle) < 1e-12

    def test_curve_requires_snapshots(self, chaotic3):
        ensemble = register_ensemble(
            np.eye(16) / 16, np.zeros(0), np.zeros((0, 4, 4))
        )
        with pytest.raises(ValueError, match="snapshot"):
            tmi_curve(ensemble, TmiSpec(a=(0,), b=(2,), c=(3,)), chaotic3, [0.0])


class TestEndToEndDiagnostics:
    def test_drive_feeds_diagnostics(self):
        model = spectral_model(IsingParams(n=3, h_x=0.0, h_z=1.0))
        cfg = DriveConfig(
            t_in=1.5, n_grid=3, n_washout=6, n_train=6, n_test=6, seed=44, tmi_cap=4
        )
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        _, ensemble = run_drive(cfg, model, ["z1"], inputs)
        taus = cfg.grid
        values, _ = otoc_curve(ensemble, OtocSpec.of("z2", "z1"), model, taus)
        assert abs(values[0] - 1.0) < 1e-9
        curve = tmi_curve(ensemble, TmiSpec(a=(0,), b=(2,), c=(3,)), model, taus)
        assert abs(curve[0]) < 1e-8  # info still local right after injection


def _register_hamiltonian(n, h_x, h_z):
    """Chain Hamiltonian on the full register, qubit 0 untouched, built from
    Kronecker products of 2x2 Paulis (independent of ``build_hamiltonian``)."""
    paulis = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }

    def on_sites(ops):
        out = np.ones((1, 1), dtype=complex)
        for q in range(n + 1):
            out = np.kron(out, paulis[ops[q]] if q in ops else np.eye(2))
        return out

    ham = sum(-on_sites({q: "x", q + 1: "x"}) for q in range(1, n))
    return ham + sum(
        h_x * on_sites({q: "x"}) + h_z * on_sites({q: "z"}) for q in range(1, n + 1)
    )


def _expm_drive(n, h_x, h_z, cfg, inputs):
    """Full-register drive with ``expm`` propagators: the mean testing state
    and the first ``tmi_cap`` testing snapshots, all at virtual time zero."""
    ham = _register_hamiltonian(n, h_x, h_z)
    chain = ham[: 2**n, : 2**n]
    ground = scipy.linalg.eigh(chain)[1][:, 0]
    up = np.zeros((2, 2), dtype=complex)
    up[0, 0] = 1.0
    rho = np.kron(up, np.outer(ground, ground.conj()))
    u_in = scipy.linalg.expm(-1j * cfg.t_in * ham)
    mean = np.zeros_like(rho)
    snapshots = []
    for k, s in enumerate(inputs.values):
        psi = input_state(float(s))
        rest = partial_trace(rho, tuple(range(2, n + 1)))
        rho = np.kron(np.outer(psi, psi.conj()), rest)
        if k >= cfg.n_washout + cfg.n_train:
            mean += rho / cfg.n_test
            if len(snapshots) < cfg.tmi_cap:
                snapshots.append(rho)
        rho = u_in @ rho @ u_in.conj().T
    return ham, mean, snapshots


def _oracle_tmi(rho, spec):
    def s_vn(qubits):
        lam = np.linalg.eigvalsh(partial_trace(rho, tuple(sorted(qubits))))
        lam = lam[lam > 1e-12]
        return float(-np.sum(lam * np.log2(lam)))

    a, b, c = spec.a, spec.b, spec.c
    return (
        s_vn(a) + s_vn(b) + s_vn(c)
        - s_vn(a + b) - s_vn(a + c) - s_vn(b + c)
        + s_vn(a + b + c)
    )


_PAULI_STRINGS = st.dictionaries(
    st.integers(0, 4), st.sampled_from("xyz"), min_size=1, max_size=3
)


class TestChainLevelAgainstExpm:
    """Every diagnostic against a full-register ``expm`` evolution of a short
    drive, for random chains, fields, intervals and operators."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        h_x=st.floats(-1.0, 1.0),
        h_z=st.floats(0.3, 1.5),
        t_in=st.floats(0.3, 3.0),
        lengths=st.tuples(st.integers(0, 3), st.integers(2, 3), st.integers(2, 4)),
        seed=st.integers(0, 2**16),
        otoc_terms=st.lists(st.tuples(_PAULI_STRINGS, _PAULI_STRINGS), max_size=2),
        order=st.permutations(range(5)),
        sizes=st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
    )
    def test_matches_expm_oracle(
        self, n, h_x, h_z, t_in, lengths, seed, otoc_terms, order, sizes
    ):
        washout, train, test = lengths
        cfg = DriveConfig(
            t_in=t_in, n_grid=3, n_washout=washout, n_train=train, n_test=test,
            seed=seed, tmi_cap=test,
        )
        model = spectral_model(IsingParams(n=n, h_x=h_x, h_z=h_z))
        inputs = generate_inputs(seed, cfg.n_total)
        _, ensemble = run_drive(cfg, model, ["z1"], inputs)
        ham, mean, snapshots = _expm_drive(n, h_x, h_z, cfg, inputs)
        taus = np.append(cfg.grid, 2.7 * t_in)
        units = [scipy.linalg.expm(-1j * float(tau) * ham) for tau in taus]

        def dense(terms):
            return build_dense(PauliString.from_terms(terms), n + 1)

        z1 = dense({1: "z"})
        for q in range(1, n + 1):
            zq = dense({q: "z"})
            want = [np.trace(mean @ z1 @ u.conj().T @ zq @ u) for u in units]
            got = correlation_curve(ensemble, q, model, taus)
            assert np.max(np.abs(got - want)) < 1e-10

        # qubit-0 factors that anticommute, commute, or are absent
        pairs = [({0: "x", 2: "z"}, {0: "y", 1: "z"}), ({0: "z"}, {0: "z", n: "x"})]
        pairs += [
            ({q % (n + 1): a for q, a in w.items()}, {q % (n + 1): a for q, a in v.items()})
            for w, v in otoc_terms
        ]
        for w_terms, v_terms in pairs:
            w, v = dense(w_terms), dense(v_terms)
            want = []
            for u in units:
                w_tau = u.conj().T @ w @ u
                want.append(np.trace(mean @ w_tau @ v @ w_tau @ v))
            want = np.array(want)
            spec = OtocSpec(PauliString.from_terms(w_terms), PauliString.from_terms(v_terms))
            got, residue = otoc_curve(ensemble, spec, model, taus)
            assert np.max(np.abs(got - want.real)) < 1e-10
            assert abs(residue - np.max(np.abs(want.imag))) < 1e-10

        qubits = [q for q in order if q <= n]
        specs = [TmiSpec(a=(0,), b=(1,), c=tuple(range(2, n + 1)))]
        if len(qubits) >= 3:
            cut_a = min(sizes[0], len(qubits) - 2)
            cut_b = cut_a + min(sizes[1], len(qubits) - cut_a - 1)
            cut_c = cut_b + min(sizes[2], len(qubits) - cut_b)
            specs.append(
                TmiSpec(
                    a=tuple(qubits[:cut_a]),
                    b=tuple(qubits[cut_a:cut_b]),
                    c=tuple(qubits[cut_b:cut_c]),
                )
            )
        if n >= 3:
            specs.append(TmiSpec(a=(1,), b=(2,), c=tuple(range(3, n + 1))))
        for spec in specs:
            want = [
                np.mean([_oracle_tmi(u @ rho @ u.conj().T, spec) for rho in snapshots])
                for u in units
            ]
            got = tmi_curve(ensemble, spec, model, taus)
            assert np.max(np.abs(got - want)) < 1e-10


class TestMemoryBound:
    """Peak traced memory of one 50-point curve at N = 9.

    The bound is one chunk of grid times plus eight 2^9 x 2^9 complex chain
    matrices (32 MiB), i.e. five times the 8 MiB chunk budget.  A cache of 50
    full-register propagators, as the register-level diagnostics kept, would
    hold 800 MiB at this size.
    """

    BOUND = 5 * CHUNK_BYTES

    @pytest.fixture(scope="class")
    def large(self):
        rng = np.random.default_rng(45)
        model = spectral_model(IsingParams(n=9, h_x=-0.5, h_z=1.05))
        ensemble = StateEnsemble(
            chain_mean=random_density(rng, model.dim),
            sample_inputs=np.array([0.3]),
            sample_rest=random_density(rng, model.dim // 2)[None],
        )
        return model, ensemble, DriveConfig().grid

    @staticmethod
    def _peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_otoc_curve(self, large):
        model, ensemble, grid = large
        spec = OtocSpec.of("x0*z3", "z1")
        peak = self._peak_bytes(otoc_curve, ensemble, spec, model, grid)
        assert peak < self.BOUND, f"{peak / 2**20:.1f} MiB"

    def test_tmi_curve(self, large):
        model, ensemble, grid = large
        spec = TmiSpec(a=(0,), b=(2,), c=(3, 4))
        peak = self._peak_bytes(tmi_curve, ensemble, spec, model, grid)
        assert peak < self.BOUND, f"{peak / 2**20:.1f} MiB"
