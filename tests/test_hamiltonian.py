import numpy as np
import pytest
import scipy.linalg

from helpers import evolve, propagator, random_density, random_hermitian, register_hamiltonian
from qrp.hamiltonian import (
    CHAOTIC,
    FREE_FERMION,
    PERTURBED,
    IsingParams,
    build_hamiltonian,
    chain_propagator,
    diagonalize,
    ground_state,
    spectral_model,
)
from qrp.pauli import PauliString, build_dense


def params_for(n, fields, j=1.0):
    return IsingParams(n=n, h_x=fields[0], h_z=fields[1], j=j)


class TestBuildHamiltonian:
    def test_single_site_field(self):
        h = build_hamiltonian(params_for(1, (0.0, 1.0)))
        np.testing.assert_allclose(h, np.diag([1.0, -1.0]), atol=1e-15)

    def test_two_site_matrix(self):
        # hand expansion of -x(x)x + z(x)1 + 1(x)z
        h = build_hamiltonian(params_for(2, (0.0, 1.0)))
        expected = np.array(
            [
                [2, 0, 0, -1],
                [0, 0, -1, 0],
                [0, -1, 0, 0],
                [-1, 0, 0, -2],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(h, expected, atol=1e-15)

    @pytest.mark.parametrize("fields", [FREE_FERMION, CHAOTIC, PERTURBED])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_bit_identical_to_kronecker_sum(self, n, fields):
        # the chain block of the full-register oracle, qubit 0 in |0>
        want = register_hamiltonian(n, *fields)[: 2**n, : 2**n]
        assert np.array_equal(build_hamiltonian(params_for(n, fields)), want)

    def test_chaotic_chain_traceless_hermitian(self):
        h = build_hamiltonian(params_for(7, CHAOTIC))
        assert h.shape == (128, 128)
        assert abs(np.trace(h)) < 1e-10
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IsingParams(n=0, h_x=0.0, h_z=1.0)
        with pytest.raises(ValueError):
            IsingParams(n=2, h_x=0.0, h_z=1.0, j=0.0)

    def test_spin_flip_symmetry_only_without_longitudinal_field(self):
        flip = build_dense(PauliString.from_terms({i: "z" for i in range(3)}), 3)
        h_free = build_hamiltonian(params_for(3, (0.0, 1.0)))
        h_tilted = build_hamiltonian(params_for(3, (-0.5, 1.05)))
        assert np.max(np.abs(flip @ h_free @ flip - h_free)) <= 1e-10
        assert np.max(np.abs(flip @ h_tilted @ flip - h_tilted)) > 0.1


class TestDiagonalize:
    def test_two_level(self):
        model = diagonalize(np.diag([1.0, -1.0]), params_for(1, (0.0, 1.0)))
        np.testing.assert_allclose(model.eigenvalues, [-1.0, 1.0])

    def test_two_site_spectrum(self):
        model = spectral_model(params_for(2, (0.0, 1.0)))
        root5 = np.sqrt(5.0)
        np.testing.assert_allclose(
            model.eigenvalues, [-root5, -1.0, 1.0, root5], atol=1e-12
        )

    def test_against_alternate_eigensolver(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 8)
        model = diagonalize(h, params_for(3, (0.0, 1.0)))
        reference = scipy.linalg.eigh(h, driver="ev", eigvals_only=True)
        np.testing.assert_allclose(model.eigenvalues, reference, atol=1e-9)

    def test_reconstruction_and_orthonormality(self):
        model = spectral_model(params_for(5, CHAOTIC))
        v, e = model.eigenvectors, model.eigenvalues
        rebuilt = (v * e) @ v.conj().T
        bound = 1e-10 * np.max(np.abs(model.hamiltonian))
        assert np.max(np.abs(rebuilt - model.hamiltonian)) <= bound
        assert np.max(np.abs(v.conj().T @ v - np.eye(len(e)))) <= 1e-10

    def test_ascending(self):
        model = spectral_model(params_for(4, CHAOTIC))
        assert np.all(np.diff(model.eigenvalues) >= -1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]), params_for(1, (0.0, 1.0)))

    def test_degenerate_ground_flagged(self):
        # pure Ising coupling: the two symmetry-broken states are degenerate
        model = spectral_model(params_for(2, (0.0, 0.0)))
        assert model.degenerate_ground
        assert not spectral_model(params_for(2, (0.0, 1.0))).degenerate_ground


class TestGroundState:
    def test_single_site(self):
        g = ground_state(spectral_model(params_for(1, (0.0, 1.0))))
        np.testing.assert_allclose(g, [0.0, 1.0], atol=1e-12)

    def test_strong_field_polarizes(self):
        g = ground_state(spectral_model(params_for(2, (0.0, 10.0))))
        assert abs(g[3]) ** 2 >= 0.99

    def test_unit_norm_and_phase(self):
        for fields in ((0.0, 1.0), CHAOTIC):
            g = ground_state(spectral_model(params_for(4, fields)))
            assert abs(np.linalg.norm(g) - 1.0) < 1e-12
            pivot = g[np.argmax(np.abs(g) > 1e-12)]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-12


class TestPropagator:
    def test_zero_time_identity(self):
        model = spectral_model(params_for(2, CHAOTIC))
        np.testing.assert_allclose(propagator(model, 0.0), np.eye(8), atol=1e-12)

    def test_group_property(self):
        model = spectral_model(params_for(3, CHAOTIC))
        u1, u2 = propagator(model, 0.7), propagator(model, 1.9)
        np.testing.assert_allclose(u1 @ u2, propagator(model, 2.6), atol=1e-9)

    def test_single_spin_phases(self):
        model = spectral_model(params_for(1, (0.0, 1.0)))
        tau = 0.37
        expected = np.kron(np.eye(2), np.diag([np.exp(-1j * tau), np.exp(1j * tau)]))
        np.testing.assert_allclose(propagator(model, tau), expected, atol=1e-12)

    def test_unitary_and_identity_on_reference_qubit(self):
        model = spectral_model(params_for(3, CHAOTIC))
        for tau in (0.1, 1.3, 5.0):
            u = propagator(model, tau)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-10)
            half = 8
            np.testing.assert_allclose(u[:half, :half], u[half:, half:], atol=1e-12)
            assert np.max(np.abs(u[:half, half:])) < 1e-12

    def test_negative_time_rejected(self):
        model = spectral_model(params_for(1, (0.0, 1.0)))
        with pytest.raises(ValueError):
            chain_propagator(model, -0.1)


class TestEvolve:
    def test_identity_near_exact(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 8)
        assert np.max(np.abs(evolve(rho, np.eye(8)) - rho)) <= 1e-14

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        model = spectral_model(params_for(2, CHAOTIC))
        rho = random_density(rng, 8)
        out = evolve(rho, propagator(model, 0.9))
        assert abs(np.trace(out) - np.trace(rho)) < 1e-10

    def test_energy_conserved(self):
        rng = np.random.default_rng(6)
        model = spectral_model(params_for(3, CHAOTIC))
        h_full = np.kron(np.eye(2), model.hamiltonian)
        rho = random_density(rng, 16)
        out = evolve(rho, propagator(model, 2.2))
        before = np.trace(rho @ h_full).real
        after = np.trace(out @ h_full).real
        assert abs(before - after) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(np.eye(4), np.eye(2))
