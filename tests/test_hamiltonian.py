import numpy as np
import pytest
import scipy.linalg

from helpers import (
    build_dense,
    dense_spectrum,
    evolve,
    propagator,
    random_density,
    random_hermitian,
    register_hamiltonian,
    traced_peak,
)
from qrp.hamiltonian import (
    CHAOTIC,
    FREE_FERMION,
    PERTURBED,
    IsingParams,
    build_hamiltonian,
    diagonalize,
    spectral_model,
)
from qrp.pauli import PauliString


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
        np.testing.assert_allclose(dense_spectrum(model)[0], [-1.0, 1.0])

    def test_two_site_spectrum(self):
        model = spectral_model(params_for(2, (0.0, 1.0)))
        root5 = np.sqrt(5.0)
        np.testing.assert_allclose(
            dense_spectrum(model)[0], [-root5, -1.0, 1.0, root5], atol=1e-12
        )

    def test_against_alternate_eigensolver(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 8)
        model = diagonalize(h, params_for(3, (0.0, 1.0)))
        reference = scipy.linalg.eigh(h, driver="ev", eigvals_only=True)
        np.testing.assert_allclose(dense_spectrum(model)[0], reference, atol=1e-9)

    def test_reconstruction_and_orthonormality(self):
        model = spectral_model(params_for(5, CHAOTIC))
        e, v = dense_spectrum(model)
        rebuilt = (v * e) @ v.conj().T
        ham = build_hamiltonian(model.params)
        bound = 1e-10 * np.max(np.abs(ham))
        assert np.max(np.abs(rebuilt - ham)) <= bound
        assert np.max(np.abs(v.conj().T @ v - np.eye(len(e)))) <= 1e-10

    def test_ascending(self):
        model = spectral_model(params_for(4, CHAOTIC))
        assert all(np.all(np.diff(e) >= -1e-12) for e in model.energies)
        assert np.all(np.diff(dense_spectrum(model)[0]) >= 0.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]), params_for(1, (0.0, 1.0)))

    def test_degenerate_ground_flagged(self):
        # pure Ising coupling: the two symmetry-broken states are degenerate
        model = spectral_model(params_for(2, (0.0, 0.0)))
        assert model.degenerate_ground
        assert not spectral_model(params_for(2, (0.0, 1.0))).degenerate_ground


class TestParitySectors:
    """The parity symmetry is read off the built H: two sectors exactly when
    no entry of H joins an even- and an odd-parity basis state."""

    @pytest.mark.parametrize(
        "fields, count",
        [(FREE_FERMION, 2), (PERTURBED, 1), (CHAOTIC, 1)],
        ids=["free", "perturbed", "chaotic"],
    )
    @pytest.mark.parametrize("n", range(1, 8))
    def test_sector_count_and_spectrum(self, n, fields, count):
        params = params_for(n, fields)
        model = spectral_model(params)
        assert model.count == count
        ham = build_hamiltonian(params)
        dense = np.linalg.eigh(ham)[0]
        assert np.max(np.abs(dense_spectrum(model)[0] - dense)) <= 1e-12
        # The sectors' rows cover the register once, each sector has one
        # square block of eigenvectors in its own basis, and H has no entry
        # between two sectors.
        assert sorted(np.concatenate(model.rows)) == list(range(params.dim))
        for rows, vecs, e in zip(model.rows, model.vectors, model.energies):
            assert vecs.shape == (len(rows), len(rows)) == (len(e),) * 2
        outside = ham.copy()
        for rows in model.rows:
            outside[np.ix_(rows, rows)] = 0.0
        assert not np.any(outside)

    def test_free_reconstruction_and_orthonormality(self):
        model = spectral_model(params_for(5, FREE_FERMION))
        e, v = dense_spectrum(model)
        rebuilt = (v * e) @ v.conj().T
        ham = build_hamiltonian(model.params)
        assert np.max(np.abs(rebuilt - ham)) <= 1e-10 * np.max(np.abs(ham))
        assert np.max(np.abs(v.conj().T @ v - np.eye(len(e)))) <= 1e-10
        assert np.all(np.diff(e) >= 0.0)

    def test_sectors_follow_the_matrix_not_the_fields(self):
        # A random Hermitian H with its even-odd entries zeroed splits; the
        # same H with one such entry pair left in place does not.
        rng = np.random.default_rng(8)
        ham = random_hermitian(rng, 8)
        odd = np.array([bin(i).count("1") % 2 for i in range(8)], dtype=bool)
        ham[odd[:, None] != odd[None, :]] = 0.0
        split = diagonalize(ham, params_for(3, CHAOTIC))
        assert [list(r) for r in split.rows] == [[0, 3, 5, 6], [1, 2, 4, 7]]
        ham[0, 1] = ham[1, 0] = 1e-300
        assert diagonalize(ham, params_for(3, FREE_FERMION)).count == 1

    def test_one_sector_diagonalizes_h_itself(self):
        # With one sector, eigh runs on H and its eigenvectors are kept: no
        # sector copy of H and no scatter into a fresh matrix.  At N = 8 the
        # traced peak is H, eigh's vectors and their phase-fixed copy (about
        # 3.1 matrices of 2^8 x 2^8 complex); a copy and a scatter made it 4.
        params = params_for(8, CHAOTIC)
        model = spectral_model(params)
        peak, _ = traced_peak(spectral_model, params)
        matrix = params.dim**2 * 16
        assert peak < 3.5 * matrix, f"{peak / matrix:.2f} matrices"
        ham = build_hamiltonian(params)
        energies, vectors = np.linalg.eigh(ham)
        assert np.array_equal(model.energies[0], energies)
        phases = np.array([v[np.argmax(np.abs(v) > 1e-12)] for v in vectors.T])
        assert np.array_equal(model.vectors[0], vectors * (np.abs(phases) / phases))
        assert [list(r) for r in model.rows] == [list(range(params.dim))]

    @pytest.mark.parametrize(
        "fields", [FREE_FERMION, CHAOTIC], ids=["free", "chaotic"]
    )
    def test_no_dense_eigenvectors(self, fields):
        # The model keeps its sector blocks and no 2^N x 2^N matrix beside
        # them: with one sector the block is the only such matrix.
        params = params_for(9, fields)
        model = spectral_model(params)
        square = [
            name
            for name, value in vars(model).items()
            if isinstance(value, np.ndarray) and value.shape == (params.dim,) * 2
        ]
        assert not square, square

    def test_free_model_retains_its_blocks(self):
        # At N = 9 a free model's two sector blocks are 2 MiB; a dense
        # eigenvector matrix beside them would add 4 MiB.
        params = params_for(9, FREE_FERMION)
        model = spectral_model(params)
        _, retained = traced_peak(spectral_model, params)
        blocks = sum(vecs.nbytes for vecs in model.vectors)
        assert retained < 1.1 * blocks, f"{retained / blocks:.2f} x the blocks"

    # Traced peak of ``diagonalize`` on an N = 10 H (16 MiB, not counted).
    # The Hermiticity and sector checks run in row blocks; checked on the
    # whole matrix they peaked at 32.13 MiB on either chain (9.0 MiB of it
    # the sector check).  Free: two half-size eigh calls; chaotic: eigh on
    # H itself, which copies it.
    DIAGONALIZE_PEAK = {"free": 20 * 2**20, "chaotic": 32.13 * 2**20}

    @pytest.mark.parametrize("regime", ["free", "chaotic"])
    def test_diagonalize_peak(self, regime):
        params = params_for(10, FREE_FERMION if regime == "free" else CHAOTIC)
        hamiltonian = build_hamiltonian(params)
        peak, _ = traced_peak(diagonalize, hamiltonian, params)
        assert peak < self.DIAGONALIZE_PEAK[regime], f"{peak / 2**20:.2f} MiB"


def ground(n, fields):
    """Lowest eigenvector of the chain, the drive's initial chain state."""
    return dense_spectrum(spectral_model(params_for(n, fields)))[1][:, 0]


class TestGroundState:
    def test_single_site(self):
        np.testing.assert_allclose(ground(1, (0.0, 1.0)), [0.0, 1.0], atol=1e-12)

    def test_strong_field_polarizes(self):
        assert abs(ground(2, (0.0, 10.0))[3]) ** 2 >= 0.99

    def test_unit_norm_and_phase(self):
        for fields in ((0.0, 1.0), CHAOTIC):
            g = ground(4, fields)
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
        h_full = np.kron(np.eye(2), build_hamiltonian(model.params))
        rho = random_density(rng, 16)
        out = evolve(rho, propagator(model, 2.2))
        before = np.trace(rho @ h_full).real
        after = np.trace(out @ h_full).real
        assert abs(before - after) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(np.eye(4), np.eye(2))
