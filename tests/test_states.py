import numpy as np
import pytest

from helpers import (
    expectation,
    initial_state,
    inject_input,
    purity,
    random_density,
    random_hermitian,
    random_pure,
)
from qrp.hamiltonian import IsingParams, spectral_model
from qrp.pauli import PauliString
from qrp.states import (
    input_state,
    pack_hermitian,
    partial_trace,
    unpack_hermitian,
    von_neumann_entropy,
)


def bell_pair():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


class TestInitialState:
    def test_pure(self):
        model = spectral_model(IsingParams(n=3, h_x=-0.5, h_z=1.05))
        rho = initial_state(model)
        assert abs(purity(rho) - 1.0) < 1e-10
        assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_single_site_chain(self):
        model = spectral_model(IsingParams(n=1, h_x=0.0, h_z=1.0))
        rho = initial_state(model)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0  # |0>_0 (x) |1>_1
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_zero_entropy(self):
        model = spectral_model(IsingParams(n=3, h_x=0.0, h_z=1.0))
        assert von_neumann_entropy(initial_state(model)) < 1e-9


class TestInjectInput:
    @pytest.mark.parametrize(
        "s,corner",
        [(1.0, 0), (0.0, 3)],
    )
    def test_extremes(self, s, corner):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 16)
        reduced = partial_trace(inject_input(rho, s), (0, 1))
        expected = np.zeros((4, 4))
        expected[corner, corner] = 1.0
        np.testing.assert_allclose(reduced, expected, atol=1e-12)

    def test_half_is_bell_projector(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 16)
        reduced = partial_trace(inject_input(rho, 0.5), (0, 1))
        np.testing.assert_allclose(reduced, bell_pair(), atol=1e-12)

    def test_rest_untouched(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 32)
        rest_before = partial_trace(rho, (2, 3, 4))
        rest_after = partial_trace(inject_input(rho, 0.3), (2, 3, 4))
        assert np.max(np.abs(rest_before - rest_after)) <= 1e-12

    def test_trace_and_positivity(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 16)
        out = inject_input(rho, 0.7)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out)[0] > -1e-10

    @pytest.mark.parametrize("s", [-0.1, 1.1, np.nan])
    def test_range_error(self, s):
        with pytest.raises(ValueError):
            inject_input(np.eye(4) / 4, s)

    def test_input_state_vector(self):
        psi = input_state(0.25)
        np.testing.assert_allclose(psi, [0.5, 0.0, 0.0, np.sqrt(0.75)], atol=1e-15)


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        np.testing.assert_allclose(
            partial_trace(bell_pair(), (0,)), np.eye(2) / 2, atol=1e-12
        )

    def test_keep_everything(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 8)
        np.testing.assert_allclose(partial_trace(rho, (0, 1, 2)), rho, atol=1e-15)

    def test_composition(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, 32)
        via_three = partial_trace(partial_trace(rho, (0, 2, 3)), (0, 1))
        direct = partial_trace(rho, (0, 2))
        assert np.max(np.abs(via_three - direct)) <= 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 16)
        assert abs(np.trace(partial_trace(rho, (1, 3))) - 1.0) < 1e-12

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(np.eye(4) / 4, ())

    def test_unsorted_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(8) / 8, (2, 0))


class TestExpectation:
    def test_injected_z1(self):
        rng = np.random.default_rng(14)
        rho = random_density(rng, 16)
        for s in (0.0, 0.3, 1.0):
            out = inject_input(rho, s)
            value = expectation(out, PauliString.from_terms({1: "z"}))
            assert abs(value - (2 * s - 1)) < 1e-12

    def test_identity_is_trace(self):
        rng = np.random.default_rng(15)
        rho = random_density(rng, 8)
        assert abs(expectation(rho, PauliString()) - 1.0) < 1e-12

    def test_against_elementwise_oracle(self):
        rng = np.random.default_rng(16)
        rho = random_density(rng, 8)
        op = PauliString.from_terms({0: "x", 2: "z"})
        from qrp.pauli import build_dense

        dense = build_dense(op, 3)
        oracle = sum(
            rho[i, j] * dense[j, i] for i in range(8) for j in range(8)
        )
        assert abs(expectation(rho, op) - oracle.real) < 1e-12

    def test_out_of_range_site(self):
        with pytest.raises(ValueError):
            expectation(np.eye(4) / 4, PauliString.from_terms({5: "z"}))

    def test_imaginary_residue_warns(self):
        skewed = np.eye(2, dtype=complex) / 2
        skewed[0, 1] = 1e-3
        with pytest.warns(RuntimeWarning, match="imaginary"):
            expectation(skewed, PauliString.from_terms({0: "y"}))


class TestEntropy:
    def test_pure_zero(self):
        rng = np.random.default_rng(17)
        assert von_neumann_entropy(random_pure(rng, 8)) < 1e-9

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12

    def test_biased_qubit(self):
        # -0.25 log2 0.25 - 0.75 log2 0.75
        assert abs(von_neumann_entropy(np.diag([0.25, 0.75])) - 0.811278) < 1e-5

    def test_subadditivity_and_triangle(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            rho = random_density(rng, 16)
            s_a = von_neumann_entropy(partial_trace(rho, (0, 1)))
            s_b = von_neumann_entropy(partial_trace(rho, (2, 3)))
            s_ab = von_neumann_entropy(rho)
            assert s_ab <= s_a + s_b + 1e-8
            assert abs(s_a - s_b) <= s_ab + 1e-8

    def test_product_state_additive(self):
        rng = np.random.default_rng(19)
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        joint = np.kron(a, b)
        total = von_neumann_entropy(joint)
        parts = von_neumann_entropy(a) + von_neumann_entropy(b)
        assert abs(total - parts) < 1e-8

    def test_negative_round_off_clamped(self):
        # tiny negative eigenvalues must not poison the log
        value = von_neumann_entropy(np.diag([1.0 + 5e-9, -5e-9]))
        assert np.isfinite(value) and abs(value) < 1e-8


class TestPackHermitian:
    @pytest.mark.parametrize("h", [1, 2, 8])
    def test_round_trip_and_trace_product(self, h):
        rng = np.random.default_rng(h)
        stack = np.array([random_hermitian(rng, h) for _ in range(3)])
        other = random_hermitian(rng, h)
        packed = pack_hermitian(stack)
        assert packed.shape == (3, h * h) and packed.dtype == np.float64
        np.testing.assert_array_equal(unpack_hermitian(packed), stack)
        weights = pack_hermitian(other)
        weights[h:] *= 2.0
        want = np.einsum("kab,ba->k", stack, other).real
        np.testing.assert_allclose(packed @ weights, want, atol=1e-12)

    def test_packs_into_out(self):
        rng = np.random.default_rng(9)
        stack = np.array([random_hermitian(rng, 4) for _ in range(2)])
        out = np.full((3, 16), np.nan)
        assert pack_hermitian(stack, out=out[1:]) is not None
        np.testing.assert_array_equal(out[1:], pack_hermitian(stack))
        assert np.all(np.isnan(out[0]))

    def test_reads_upper_triangle_only(self):
        mat = np.array([[1.0, 2.0 + 3.0j], [99.0, 4.0]])
        np.testing.assert_array_equal(pack_hermitian(mat), [1.0, 4.0, 2.0, 3.0])
