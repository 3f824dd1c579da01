import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    build_dense,
    expm_drive,
    heisenberg,
    input_state,
    propagator,
    random_density,
    register_ensemble,
    sample_state,
    tmi,
    traced_peak,
    von_neumann_entropy,
)
import qrp.diagnostics
from qrp.diagnostics import (
    CHUNK_BYTES,
    OtocSpec,
    TmiSpec,
    _tmi_of_joint,
    correlation_curve,
    otoc_curve,
    tmi_curve,
)
from qrp.driver import (
    DriveConfig,
    StateEnsemble,
    generate_inputs,
    run_drive,
)
from qrp.hamiltonian import CHAOTIC, FREE_FERMION, IsingParams, spectral_model
from qrp.pauli import PauliString
from qrp.states import pack_hermitian, partial_trace, unpack_hermitian


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
        value = correlation_curve(ensemble, 1, chaotic3, [0.0])[0]
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
        got = correlation_curve(ensemble, 2, chaotic3, [tau])[0]
        assert abs(got - oracle) < 1e-10

    def test_curve_matches_pointwise(self, chaotic3):
        rng = np.random.default_rng(32)
        ensemble = make_ensemble(rng, chaotic3)
        taus = np.array([0.0, 0.4, 1.1])
        curve = correlation_curve(ensemble, 3, chaotic3, taus)
        for m, tau in enumerate(taus):
            point = correlation_curve(ensemble, 3, chaotic3, [tau])[0]
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
        value = otoc_curve(ensemble, OtocSpec.of("z2", "z1"), chaotic3, [0.0])[0].real
        assert abs(value - 1.0) < 1e-12

    def test_identity_v_gives_one(self, chaotic3):
        rng = np.random.default_rng(35)
        ensemble = make_ensemble(rng, chaotic3)
        spec = OtocSpec(w=PauliString.from_terms({2: "z"}), v=PauliString())
        for value in otoc_curve(ensemble, spec, chaotic3, [0.0, 0.8, 2.3]).real:
            assert abs(value - 1.0) < 1e-10

    def test_matches_brute_force_trace(self, chaotic3):
        rng = np.random.default_rng(36)
        ensemble = make_ensemble(rng, chaotic3)
        tau = 1.2
        spec = OtocSpec.of("z2", "z1")
        u = propagator(chaotic3, tau)
        w_tau = u.conj().T @ build_dense(spec.w, 4) @ u
        v = build_dense(spec.v, 4)
        rests = unpack_hermitian(ensemble.sample_packed)
        mean = make_register_mean(ensemble.sample_inputs, rests)
        oracle = np.trace(mean @ w_tau @ v @ w_tau @ v)
        value = otoc_curve(ensemble, spec, chaotic3, [tau])[0].real
        assert abs(value - oracle.real) < 1e-10

    def test_chaotic_n7_matches_expm_oracle(self):
        """Pins ``otoc_curve`` at N = 7 for the times criterion 04 reads.

        tau = grid[-1] (free half) and two points of grid + 2 t_in (chaotic
        half).  The oracle builds the full-register Hamiltonian from Kronecker
        products of 2x2 Paulis, qubit 0 first and left untouched, and evolves
        with ``expm``; the state is the infinite-temperature ensemble.  The
        free chain runs on two parity sectors, with a V that moves the sector
        (x1) and a qubit-0 pair that anticommutes (x0, y0).
        """
        n = 7
        eye = np.eye(2, dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)

        def on_sites(ops: dict[int, np.ndarray]) -> np.ndarray:
            out = np.ones((1, 1), dtype=complex)
            for q in range(n + 1):
                out = np.kron(out, ops.get(q, eye))
            return out

        dim = 2 ** (n + 1)
        mixed = np.eye(dim, dtype=complex) / dim
        cfg = DriveConfig()
        late = cfg.grid + 2 * cfg.t_in
        taus = [cfg.grid[-1], late[0], late[-1]]
        cases = [
            (CHAOTIC, [("z2", "z1"), ("z3", "z1")]),
            (FREE_FERMION, [("x0*z3", "y0*x1"), ("z2", "x1"), ("z3", "z1")]),
        ]
        for (h_x, h_z), pairs in cases:
            model = spectral_model(IsingParams(n=n, h_x=h_x, h_z=h_z))
            assert model.count == (2 if h_x == 0.0 else 1)
            # The chain mean is I / 2^n in both qubit-1 blocks, packed by
            # the model's sectors.
            blocks = [np.eye(len(rows)) / 2**n for rows in model.rests]
            row = model.pack(blocks, np.empty(model.offsets[-1]))
            ensemble = StateEnsemble(
                mean_packed=np.stack([row, row]),
                sample_inputs=np.zeros(0),
                sample_packed=np.zeros((0, model.offsets[-1])),
            )
            ham = sum(-on_sites({q: sx, q + 1: sx}) for q in range(1, n)) + sum(
                h_x * on_sites({q: sx}) + h_z * on_sites({q: sz}) for q in range(1, n + 1)
            )
            units = [scipy.linalg.expm(-1j * float(tau) * ham) for tau in taus]
            for w_label, v_label in pairs:
                spec = OtocSpec.of(w_label, v_label)
                w, v = build_dense(spec.w, n + 1), build_dense(spec.v, n + 1)
                want = []
                for u in units:
                    w_tau = u.conj().T @ w @ u
                    want.append(np.trace(mixed @ w_tau @ v @ w_tau @ v))
                got = otoc_curve(ensemble, spec, model, taus)
                assert np.max(np.abs(got - np.array(want))) < 1e-10, (w_label, v_label)

    @pytest.mark.parametrize("n, w, v", [(2, "x1", "x1"), (4, "x0*z3", "y0*x1")])
    def test_imaginary_part_matches_expm_oracle(self, n, w, v):
        """W(tau) V W(tau) V is not Hermitian for these pairs, so the OTOC
        is complex; both parts are pinned to a full-register ``expm`` drive."""
        h_x, h_z = CHAOTIC
        cfg = DriveConfig(
            t_in=5.0, n_grid=5, n_washout=4, n_train=4, n_test=6, seed=42, tmi_cap=0
        )
        model = spectral_model(IsingParams(n=n, h_x=h_x, h_z=h_z))
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        _, ensemble = run_drive(cfg, model, ["z1"], inputs)
        ham, mean, _, _ = expm_drive(n, h_x, h_z, cfg, inputs)
        spec = OtocSpec.of(w, v)
        w_dense, v_dense = build_dense(spec.w, n + 1), build_dense(spec.v, n + 1)
        want = []
        for tau in cfg.grid:
            u = scipy.linalg.expm(-1j * float(tau) * ham)
            w_tau = u.conj().T @ w_dense @ u
            want.append(np.trace(mean @ w_tau @ v_dense @ w_tau @ v_dense))
        want = np.array(want)
        got = otoc_curve(ensemble, spec, model, cfg.grid)
        assert np.max(np.abs(got - want)) < 1e-10
        assert np.max(np.abs(want.imag)) > 0.01

    def test_curve_shape_and_residue(self, chaotic3):
        rng = np.random.default_rng(37)
        ensemble = make_ensemble(rng, chaotic3)
        values = otoc_curve(
            ensemble, OtocSpec.of("z2", "z1"), chaotic3, np.linspace(0, 1, 5)
        )
        assert values.shape == (5,)
        assert np.max(np.abs(values.imag)) < 1e-8


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
        s_vn = von_neumann_entropy
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
        # the library's entropies, each at its part's own dimension, on a
        # stack of joint states
        joint = partial_trace(np.stack([rho, rho]), spec.union)
        assert np.max(np.abs(_tmi_of_joint(joint, spec.union, [spec]) - expected)) < 1e-10

    def test_curve_averages_snapshots(self, chaotic3):
        rng = np.random.default_rng(41)
        ensemble = make_ensemble(rng, chaotic3, n_samples=3)
        taus = np.array([0.0, 0.7])
        spec = TmiSpec(a=(0,), b=(2,), c=(3,))
        (curve,) = tmi_curve(ensemble, [spec], chaotic3, taus)
        for m, tau in enumerate(taus):
            u = propagator(chaotic3, float(tau))
            oracle = np.mean(
                [
                    tmi(u @ sample_state(ensemble, i) @ u.conj().T, spec)
                    for i in range(3)
                ]
            )
            assert abs(curve[m] - oracle) < 1e-12

    @pytest.mark.parametrize("fields", [CHAOTIC, FREE_FERMION])
    def test_one_call_matches_single_spec_calls(self, fields):
        """Partitions nested in another's union (and one with the same
        union), one overlapping but not nested, and one disjoint, in an
        order that is not the order of their groups."""
        h_x, h_z = fields
        model = spectral_model(IsingParams(n=6, h_x=h_x, h_z=h_z))
        cfg = DriveConfig(
            t_in=1.1, n_grid=4, n_washout=4, n_train=4, n_test=4, seed=8, tmi_cap=3
        )
        _, ensemble = run_drive(cfg, model, ["z1"], generate_inputs(cfg.seed, cfg.n_total))
        specs = [
            TmiSpec(a=(0,), b=(2,), c=(3,)),
            TmiSpec(a=(1,), b=(3,), c=(4,)),
            TmiSpec(a=(0,), b=(2,), c=(3, 4)),
            TmiSpec(a=(1,), b=(5,), c=(6,)),
            TmiSpec(a=(3,), b=(0,), c=(2, 4)),
            TmiSpec(a=(2,), b=(4,), c=(3,)),
        ]
        curves = tmi_curve(ensemble, specs, model, cfg.grid)
        assert curves.shape == (len(specs), cfg.n_grid)
        for spec, got in zip(specs, curves):
            (alone,) = tmi_curve(ensemble, [spec], model, cfg.grid)
            assert np.max(np.abs(got - alone)) < 1e-12, spec
        assert np.max(np.abs(curves[0] - curves[2])) > 1e-3  # rows not mixed up

    def test_curve_requires_snapshots(self, chaotic3):
        ensemble = register_ensemble(
            np.eye(16) / 16, np.zeros(0), np.zeros((0, 4, 4))
        )
        with pytest.raises(ValueError, match="snapshot"):
            tmi_curve(ensemble, [TmiSpec(a=(0,), b=(2,), c=(3,))], chaotic3, [0.0])


class TestEndToEndDiagnostics:
    def test_drive_feeds_diagnostics(self):
        model = spectral_model(IsingParams(n=3, h_x=0.0, h_z=1.0))
        cfg = DriveConfig(
            t_in=1.5, n_grid=3, n_washout=6, n_train=6, n_test=6, seed=44, tmi_cap=4
        )
        inputs = generate_inputs(cfg.seed, cfg.n_total)
        _, ensemble = run_drive(cfg, model, ["z1"], inputs)
        taus = cfg.grid
        values = otoc_curve(ensemble, OtocSpec.of("z2", "z1"), model, taus)
        assert abs(values[0] - 1.0) < 1e-9
        (curve,) = tmi_curve(ensemble, [TmiSpec(a=(0,), b=(2,), c=(3,))], model, taus)
        assert abs(curve[0]) < 1e-8  # info still local right after injection


_PAULI_STRINGS = st.dictionaries(
    st.integers(0, 4), st.sampled_from("xyz"), min_size=1, max_size=3
)


class TestChainLevelAgainstExpm:
    """Every diagnostic against a full-register ``expm`` evolution of a short
    drive, for random chains, fields, intervals and operators."""

    # h_x = 0: two parity sectors.  Sector-flipping V (x1, y0*x1), W with a
    # parity-odd chain part, and TMI partitions with and without qubit 0,
    # with and without chain qubits outside the union.
    @example(
        n=2, h_x=0.0, h_z=1.0, t_in=1.3, lengths=(1, 2, 3), seed=5,
        otoc_terms=[({2: "y"}, {1: "x"}), ({1: "z", 2: "x"}, {0: "y", 1: "x"})],
        order=(0, 1, 2, 3, 4), sizes=(1, 1, 1),
    )
    @example(
        n=3, h_x=0.0, h_z=0.7, t_in=2.1, lengths=(2, 3, 2), seed=11,
        otoc_terms=[
            ({0: "x", 2: "x"}, {1: "x"}), ({3: "y", 2: "z"}, {0: "y", 1: "x"})
        ],
        order=(0, 2, 3, 1, 4), sizes=(1, 1, 1),
    )
    @example(
        n=4, h_x=0.0, h_z=1.2, t_in=0.9, lengths=(0, 2, 4), seed=3,
        otoc_terms=[({2: "x", 3: "z"}, {1: "x"}), ({4: "y"}, {0: "y", 1: "x"})],
        order=(1, 3, 4, 0, 2), sizes=(1, 1, 1),
    )
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
        ham, mean, snapshots, _ = expm_drive(n, h_x, h_z, cfg, inputs)
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
            got = otoc_curve(ensemble, spec, model, taus)
            assert np.max(np.abs(got - want)) < 1e-10

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
        # One call reads every partition off the first one's (full-register)
        # union; each partition alone is built on its own union, which may
        # leave out qubit 0 or chain qubits.  Both against the oracle.
        curves = tmi_curve(ensemble, specs, model, taus)
        assert curves.shape == (len(specs), len(taus))
        for spec, grouped in zip(specs, curves):
            want = [
                np.mean([tmi(u @ rho @ u.conj().T, spec) for rho in snapshots])
                for u in units
            ]
            alone = tmi_curve(ensemble, [spec], model, taus)[0]
            assert np.max(np.abs(grouped - want)) < 1e-10
            assert np.max(np.abs(alone - want)) < 1e-10


class TestMemoryBound:
    """Peak traced memory of one 50-point curve at N = 9, on a chaotic chain
    (one sector) and a free one (two parity sectors).

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
        half = model.dim // 2
        ensemble = StateEnsemble(
            mean_packed=pack_hermitian(
                np.stack([random_density(rng, half), random_density(rng, half)]) / 2
            ),
            sample_inputs=np.array([0.3]),
            sample_packed=pack_hermitian(random_density(rng, half))[None],
        )
        return model, ensemble, DriveConfig().grid

    def test_otoc_curve(self, large):
        model, ensemble, grid = large
        spec = OtocSpec.of("x0*z3", "z1")
        peak, _ = traced_peak(otoc_curve, ensemble, spec, model, grid)
        assert peak < self.BOUND, f"{peak / 2**20:.1f} MiB"

    def test_tmi_curve(self, large):
        model, ensemble, grid = large
        specs = [TmiSpec(a=(0,), b=(2,), c=(3, 4))]
        peak, _ = traced_peak(tmi_curve, ensemble, specs, model, grid)
        assert peak < self.BOUND, f"{peak / 2**20:.1f} MiB"

    # fig6's pair of partitions, read off one joint state on (0, 2, 3, 4)
    FIG6_TMI = [TmiSpec(a=(0,), b=(2,), c=(3,)), TmiSpec(a=(0,), b=(2,), c=(3, 4))]

    @pytest.mark.parametrize("regime", ["free", "chaotic"])
    def test_fig6_tmi_pair(self, regime, large, large_free):
        model, ensemble, grid = large_free if regime == "free" else large
        peak, _ = traced_peak(tmi_curve, ensemble, self.FIG6_TMI, model, grid)
        assert peak < self.BOUND, f"{peak / 2**20:.1f} MiB"

    @pytest.fixture(scope="class")
    def large_free(self):
        # Two parity sectors: every state is packed as its two blocks.
        rng = np.random.default_rng(46)
        h_x, h_z = FREE_FERMION
        model = spectral_model(IsingParams(n=9, h_x=h_x, h_z=h_z))

        def packed():
            return np.concatenate([
                pack_hermitian(random_density(rng, len(rows)) / 2)
                for rows in model.rests
            ])

        ensemble = StateEnsemble(
            mean_packed=np.stack([packed(), packed()]) / 2,
            sample_inputs=np.array([0.3]),
            sample_packed=packed()[None],
        )
        return model, ensemble, DriveConfig().grid

    # A correlation is a two-row read-out in the eigenbasis order.  With two
    # sectors it rotates half-size blocks (26.8 MiB when every row and
    # operator was scattered to dense 2^9 matrices); with one it holds the
    # dense rotations (25.1 MiB).
    CORRELATION_BOUND = {"free": 18 * 2**20, "chaotic": 25.1 * 2**20}

    @pytest.mark.parametrize("regime", ["free", "chaotic"])
    def test_correlation_curve(self, regime, large, large_free):
        model, ensemble, grid = large_free if regime == "free" else large
        peak, _ = traced_peak(correlation_curve, ensemble, 3, model, grid)
        assert peak < self.CORRELATION_BOUND[regime], f"{peak / 2**20:.1f} MiB"

    def test_free_otoc_curve(self, large_free):
        model, ensemble, grid = large_free
        spec = OtocSpec.of("x0*x3", "y0*x1")
        peak, _ = traced_peak(otoc_curve, ensemble, spec, model, grid)
        assert peak < self.BOUND, f"{peak / 2**20:.1f} MiB"

    def test_free_tmi_curve(self, large_free):
        model, ensemble, grid = large_free
        specs = [TmiSpec(a=(0,), b=(2,), c=(3, 4))]
        peak, _ = traced_peak(tmi_curve, ensemble, specs, model, grid)
        assert peak < self.BOUND, f"{peak / 2**20:.1f} MiB"


_THREAD_SCRIPT = """
import sys
import numpy as np
from qrp import (
    DriveConfig, IsingParams, OtocSpec, TmiSpec, correlation_curve,
    generate_inputs, otoc_curve, run_drive, spectral_model, tmi_curve,
)
model = spectral_model(IsingParams(n=6, h_x=0.0, h_z=1.0))
cfg = DriveConfig(n_washout=10, n_train=20, n_test=20, seed=5, tmi_cap=4)
_, ensemble = run_drive(cfg, model, ["z1"], generate_inputs(5, cfg.n_total))
curves = [correlation_curve(ensemble, i, model, cfg.grid) for i in (1, 3, 6)]
curves += [
    otoc_curve(ensemble, OtocSpec.of(w, v), model, cfg.grid)
    for w, v in (("z3", "z1"), ("x0*z4", "y0*x1"))
]
curves += list(tmi_curve(
    ensemble, [TmiSpec(a=(0,), b=(2,), c=(3,)), TmiSpec(a=(0,), b=(2,), c=(3, 4))],
    model, cfg.grid,
))
np.save(sys.argv[1], np.array(curves))
"""


def test_blas_thread_count_does_not_change_diagnostics(tmp_path):
    # The diagnostics' twin of the drive's thread-count test, on a free
    # chain, whose drive runs on two parity sectors.
    src = str(Path(qrp.diagnostics.__file__).resolve().parents[1])
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / f"threads{threads}.npy"
        subprocess.run(
            [sys.executable, "-c", _THREAD_SCRIPT, str(out)], env=env, check=True, timeout=120
        )
        values.append(np.load(out))
    assert values[0].shape == (7, DriveConfig().n_grid)
    assert np.max(np.abs(values[0] - values[1])) < 1e-12
