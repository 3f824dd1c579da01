import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qrp.pauli
from helpers import build_dense, random_hermitian
from qrp.pauli import (
    OperatorLabelError,
    PauliString,
    minus_eigenspace,
    parse_operator_label,
    signed_permutation,
)


class TestParse:
    def test_single_term(self):
        assert parse_operator_label("z1").terms == ((1, "z"),)

    def test_two_terms(self):
        assert parse_operator_label("x2*x3").terms == ((2, "x"), (3, "x"))

    def test_terms_sorted(self):
        assert parse_operator_label("x3*z2").terms == ((2, "z"), (3, "x"))

    def test_duplicate_site_rejected(self):
        with pytest.raises(OperatorLabelError, match="duplicate site 2"):
            parse_operator_label("x2*x2")

    def test_malformed_token_named(self):
        with pytest.raises(OperatorLabelError, match="q7"):
            parse_operator_label("z1*q7")

    @pytest.mark.parametrize("text", ["", "  ", "z", "1z", "z1**z2", "Z1"])
    def test_bad_labels(self, text):
        with pytest.raises(OperatorLabelError):
            parse_operator_label(text)

    def test_label_round_trip(self):
        for text in ("z1", "x2*x3", "y0*z5*x9"):
            assert parse_operator_label(text).label() == text

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from("xyz")),
            min_size=1,
            max_size=5,
            unique_by=lambda t: t[0],
        )
    )
    def test_round_trip_random(self, terms):
        p = PauliString.from_terms(dict(terms))
        assert parse_operator_label(p.label()) == p


class TestBuildDense:
    def test_identity(self):
        np.testing.assert_array_equal(build_dense(PauliString(), 1), np.eye(2))

    def test_z_on_single_qubit(self):
        mat = build_dense(PauliString.from_terms({0: "z"}), 1)
        np.testing.assert_array_equal(mat, np.diag([1.0, -1.0]))

    def test_xx_antidiagonal(self):
        # direct tensor-product expansion: sigma_x (x) sigma_x
        mat = build_dense(PauliString.from_terms({0: "x", 1: "x"}), 2)
        np.testing.assert_array_equal(mat, np.fliplr(np.eye(4)))

    def test_qubit0_is_msb(self):
        mat = build_dense(PauliString.from_terms({0: "z"}), 2)
        np.testing.assert_array_equal(mat, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="site 2"):
            build_dense(PauliString.from_terms({2: "x"}), 2)

    def test_square_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            sites = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            p = PauliString.from_terms(
                {int(s): "xyz"[rng.integers(3)] for s in sites}
            )
            mat = build_dense(p, n)
            np.testing.assert_allclose(mat @ mat, np.eye(2**n), atol=1e-12)

    def test_trace(self):
        assert abs(np.trace(build_dense(PauliString(), 3)) - 8) < 1e-12
        p = PauliString.from_terms({0: "y", 2: "z"})
        assert abs(np.trace(build_dense(p, 3))) < 1e-12

    def test_hermitian(self):
        p = PauliString.from_terms({0: "y", 1: "x", 2: "z"})
        mat = build_dense(p, 3)
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12


class TestSignedPermutation:
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.dictionaries(st.integers(0, n - 1), st.sampled_from("xyz"), max_size=n),
            )
        )
    )
    def test_matches_dense_product(self, case):
        n, terms = case
        p = PauliString.from_terms(terms)
        a = np.arange(4**n).reshape(2**n, 2**n) * (1 + 0.5j)
        perm, sign = signed_permutation(p, n)
        np.testing.assert_array_equal(sign[:, None] * a[perm], build_dense(p, n) @ a)

    def test_site_outside_register(self):
        with pytest.raises(ValueError, match="outside"):
            signed_permutation(PauliString.from_terms({3: "x"}), 3)


class TestMinusEigenspace:
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.dictionaries(st.integers(0, n - 1), st.sampled_from("xyz"), max_size=n),
            )
        )
    )
    def test_projector_complements_operator(self, case):
        # B B^dag = (I - P) / 2 with B^dag B = I, so P = I - 2 B B^dag
        n, terms = case
        p = PauliString.from_terms(terms)
        rows, partners, phases = minus_eigenspace(p, n)
        eye = np.eye(2**n, dtype=complex)
        basis_h = eye[rows]
        if partners is not None:
            basis_h = (basis_h - phases[:, None] * eye[partners]) / np.sqrt(2)
        assert len(rows) == (2**n // 2 if terms else 0)
        dense = build_dense(p, n)
        np.testing.assert_allclose(basis_h @ basis_h.conj().T, np.eye(len(rows)), atol=1e-14)
        np.testing.assert_allclose(
            eye - 2 * basis_h.conj().T @ basis_h, dense, atol=1e-14
        )


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
        d = qrp.pauli.minus_rows(
            u, minus_eigenspace(chain, n), np.full((2, h, dim), np.nan, dtype=complex)
        )
        moved = u.conj().T @ (np.eye(dim) - build_dense(chain, n)) @ u / 2
        for a in (0, 1):
            block = slice(a * h, (a + 1) * h)
            got = d[:, block].conj().T @ d[:, block]
            assert np.max(np.abs(got - moved[block, block]), initial=0.0) < 1e-12
        got = d[:, :h].conj().T @ d[:, h:]
        assert np.max(np.abs(got - moved[:h, h:]), initial=0.0) < 1e-12
