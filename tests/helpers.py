"""Shared randomized-state constructors and full-register oracles for the
test suite."""

from __future__ import annotations

import warnings

import numpy as np

from qrp.driver import StateEnsemble
from qrp.hamiltonian import SpectralModel, chain_propagator, ground_state
from qrp.pauli import PauliString, build_dense
from qrp.states import input_state, n_qubits_of, partial_trace


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


# Full-register oracles: the (N+1)-qubit evolution that the chain-level code
# in ``qrp`` contracts away, kept here as the reference it is tested against.

IMAG_WARN_TOL = 1e-8


def propagator(model: SpectralModel, tau: float) -> np.ndarray:
    """Full-register propagator: identity on qubit 0, exp(-iHtau) on the chain."""
    return np.kron(np.eye(2, dtype=complex), chain_propagator(model, float(tau)))


def evolve(rho: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """Conjugate a density matrix: U rho U^dag."""
    rho = np.asarray(rho)
    unitary = np.asarray(unitary)
    if rho.shape != unitary.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape}, unitary {unitary.shape}")
    return unitary @ rho @ unitary.conj().T


def heisenberg(
    op: PauliString | np.ndarray, model: SpectralModel, tau: float
) -> np.ndarray:
    """Full-register Heisenberg operator U(tau)^dag O U(tau)."""
    if isinstance(op, PauliString):
        op = build_dense(op, model.n + 1)
    u = propagator(model, tau)
    return u.conj().T @ op @ u


def initial_state(model: SpectralModel) -> np.ndarray:
    """|0><0| on qubit 0 tensored with the chain ground-state projector."""
    g = ground_state(model)
    anc = np.zeros((2, 2), dtype=complex)
    anc[0, 0] = 1.0
    return np.kron(anc, np.outer(g, g.conj()))


def inject_input(rho: np.ndarray, s: float) -> np.ndarray:
    """Replace qubits (0, 1) with the injection state; keep the rest exactly."""
    n = n_qubits_of(rho)
    if n < 2:
        raise ValueError("register must hold at least qubits 0 and 1")
    psi = input_state(s)
    proj = np.outer(psi, psi.conj())
    if n == 2:
        return proj * np.trace(rho).real
    rest = partial_trace(rho, tuple(range(2, n)))
    return np.kron(proj, rest)


def expectation(rho: np.ndarray, op: PauliString | np.ndarray) -> float:
    """Real part of Tr[rho O]; warns if the imaginary residue is large."""
    n = n_qubits_of(rho)
    if isinstance(op, PauliString):
        if op.terms and max(op.sites) >= n:
            raise ValueError(
                f"operator {op.label()!r} outside register of {n} qubits"
            )
        op = build_dense(op, n)
    value = np.einsum("ij,ji->", rho, op)
    if abs(value.imag) > IMAG_WARN_TOL:
        warnings.warn(
            f"expectation has imaginary residue {value.imag:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(value.real)


def purity(rho: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", rho, rho).real)


def trace_out_qubit0(rho: np.ndarray) -> np.ndarray:
    """Partial trace over qubit 0, the most significant bit of the register."""
    half = rho.shape[0] // 2
    return rho[:half, :half] + rho[half:, half:]


def register_ensemble(
    mean_state: np.ndarray,
    sample_inputs: np.ndarray,
    sample_rest: np.ndarray,
) -> StateEnsemble:
    """Ensemble from a full-register mean state, with qubit 0 contracted out."""
    return StateEnsemble(
        chain_mean=trace_out_qubit0(mean_state),
        sample_inputs=sample_inputs,
        sample_rest=sample_rest,
    )


def sample_state(ensemble: StateEnsemble, index: int) -> np.ndarray:
    """Full-register density matrix of snapshot ``index`` at tau = 0."""
    psi = input_state(float(ensemble.sample_inputs[index]))
    return np.kron(np.outer(psi, psi.conj()), ensemble.sample_rest[index])
