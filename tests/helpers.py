"""Shared randomized-state constructors and full-register oracles for the
test suite."""

from __future__ import annotations

import warnings
from functools import reduce

import numpy as np
import scipy.linalg

from qrp.driver import StateEnsemble
from qrp.hamiltonian import SpectralModel
from qrp.pauli import PauliString
from qrp.states import (
    n_qubits_of,
    pack_hermitian,
    partial_trace,
    spectrum_entropy,
    unpack_hermitian,
)

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
IDENTITY_2 = np.eye(2, dtype=complex)


def build_dense(p: PauliString, register_size: int) -> np.ndarray:
    """Dense ``2**register_size`` matrix of ``p`` from Kronecker products,
    site by site in ascending order (qubit 0 is the MSB): the oracle for the
    row operations of ``qrp.pauli``."""
    if register_size < 0:
        raise ValueError(f"register_size must be >= 0, got {register_size}")
    if p.terms and max(p.sites) >= register_size:
        raise ValueError(
            f"operator {p.label()!r} uses site {max(p.sites)} outside "
            f"register of {register_size} qubits"
        )
    factors = [IDENTITY_2] * register_size
    for site, axis in p.terms:
        factors[site] = PAULI[axis]
    if not factors:
        return np.eye(1, dtype=complex)
    return reduce(np.kron, factors)


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


def input_state(s: float) -> np.ndarray:
    """Two-qubit injection vector sqrt(s)|00> + sqrt(1-s)|11> on qubits (0,1)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"input value must lie in [0, 1], got {s}")
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(s)
    psi[3] = np.sqrt(1.0 - s)
    return psi


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 von Neumann entropy; tiny negative eigenvalues are clamped."""
    return float(spectrum_entropy(np.linalg.eigvalsh(rho)))


def tmi(state: np.ndarray, spec) -> float:
    """Tripartite mutual information of one register state, for a spec with
    qubit subsets ``a``, ``b`` and ``c``.

    S_A + S_B + S_C - S_AB - S_AC - S_BC + S_ABC, each entropy from one
    partial trace of ``state`` and one ``eigvalsh``, independently of
    ``qrp.diagnostics``.
    """
    a, b, c = spec.a, spec.b, spec.c
    signed = [(1, a), (1, b), (1, c), (-1, a + b), (-1, a + c), (-1, b + c)]
    signed.append((1, a + b + c))
    return sum(
        sign * von_neumann_entropy(partial_trace(state, tuple(sorted(part))))
        for sign, part in signed
    )


def dense_spectrum(model: SpectralModel) -> tuple[np.ndarray, np.ndarray]:
    """Energies ascending and the dense 2**N x 2**N eigenvectors of a model:
    each sector's eigenvectors scattered onto its rows, and the eigenpairs of
    all sectors sorted stably by energy (ties in sector order), so column 0
    is the ground state the drive starts from."""
    energies = np.concatenate(model.energies)
    vectors = np.zeros((model.dim, model.dim), dtype=complex)
    start = 0
    for rows, block in zip(model.rows, model.vectors):
        vectors[rows, start : start + len(rows)] = block
        start += len(rows)
    order = np.argsort(energies, kind="stable")
    return energies[order], vectors[:, order]


def chain_propagator(model: SpectralModel, tau: float) -> np.ndarray:
    """exp(-i H tau) on the chain register, from the dense eigenvectors."""
    energies, vectors = dense_spectrum(model)
    return (vectors * np.exp(-1j * energies * tau)) @ vectors.conj().T


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
    g = dense_spectrum(model)[1][:, 0]
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
    """Ensemble from a full-register post-injection mean state, with qubit 0
    contracted out and the chain mean kept as its two packed qubit-1 blocks;
    raises if the chain mean has off-diagonal qubit-1 blocks.  Everything is
    packed as one sector, the layout of a model without the parity
    symmetry."""
    chain = trace_out_qubit0(mean_state)
    h = len(chain) // 2
    if np.max(np.abs(chain[:h, h:]), initial=0.0) > 1e-12:
        raise ValueError("chain mean is not block-diagonal on qubit 1")
    return StateEnsemble(
        mean_packed=pack_hermitian(np.stack([chain[:h, :h], chain[h:, h:]])),
        sample_inputs=sample_inputs,
        sample_packed=pack_hermitian(sample_rest),
    )


def unpack_sectors(packed: np.ndarray, sectors: list[np.ndarray]) -> np.ndarray:
    """Dense matrices from sector-packed rows: each sector's ``pack_hermitian``
    numbers, concatenated, become the block on its (ascending) indices, and
    every entry between two sectors is zero.  Leading axes are a stack."""
    h = sum(len(rows) for rows in sectors)
    out = np.zeros(packed.shape[:-1] + (h, h), dtype=complex)
    start = 0
    for rows in sectors:
        stop = start + len(rows) ** 2
        out[..., rows[:, None], rows] = unpack_hermitian(packed[..., start:stop])
        start = stop
    return out


def chain_mean(ensemble: StateEnsemble, model: SpectralModel) -> np.ndarray:
    """Dense 2**N chain mean state of a drive's ensemble: its two packed
    qubit-1 blocks on the diagonal."""
    return scipy.linalg.block_diag(
        *unpack_sectors(ensemble.mean_packed, model.rests)
    )


def snapshot_rests(ensemble: StateEnsemble, model: SpectralModel) -> np.ndarray:
    """Dense rests (qubits 2..N) of a drive's ensemble snapshots."""
    return unpack_sectors(ensemble.sample_packed, model.rests)


def sample_state(ensemble: StateEnsemble, index: int) -> np.ndarray:
    """Full-register density matrix of snapshot ``index`` at tau = 0, for an
    ensemble packed as one sector (``register_ensemble``)."""
    psi = input_state(float(ensemble.sample_inputs[index]))
    rest = unpack_hermitian(ensemble.sample_packed[index])
    return np.kron(np.outer(psi, psi.conj()), rest)


def register_hamiltonian(n: int, h_x: float, h_z: float) -> np.ndarray:
    """Chain Hamiltonian on the full register, qubit 0 untouched, built from
    Kronecker products of 2x2 Paulis (independent of ``build_hamiltonian``)."""

    def on_sites(ops):
        out = np.ones((1, 1), dtype=complex)
        for q in range(n + 1):
            out = np.kron(out, PAULI[ops[q]] if q in ops else np.eye(2))
        return out

    ham = sum(-on_sites({q: "x", q + 1: "x"}) for q in range(1, n))
    return ham + sum(
        h_x * on_sites({q: "x"}) + h_z * on_sites({q: "z"}) for q in range(1, n + 1)
    )


def reduce_to_rest(rho: np.ndarray) -> np.ndarray:
    """Reduced state of a register on qubits 2..N; for a register of qubits
    0 and 1 alone, the 1 x 1 matrix of its trace."""
    n_full = n_qubits_of(rho)
    if n_full == 2:
        return np.trace(rho).reshape(1, 1)
    return partial_trace(rho, tuple(range(2, n_full)))


def expm_drive(n, h_x, h_z, cfg, inputs, readouts=()):
    """Full-register drive with ``expm`` propagators.

    Returns the register Hamiltonian, the mean testing state, the first
    ``tmi_cap`` testing snapshots (all at virtual time zero), and each
    read-out's values on the grid over the training and testing intervals.
    """
    ham = register_hamiltonian(n, h_x, h_z)
    chain = ham[: 2**n, : 2**n]
    ground = scipy.linalg.eigh(chain)[1][:, 0]
    up = np.zeros((2, 2), dtype=complex)
    up[0, 0] = 1.0
    rho = np.kron(up, np.outer(ground, ground.conj()))
    u_in = scipy.linalg.expm(-1j * cfg.t_in * ham)
    units = [scipy.linalg.expm(-1j * float(tau) * ham) for tau in cfg.grid]
    moved_ops = {
        p.label(): [u.conj().T @ build_dense(p, n + 1) @ u for u in units]
        for p in readouts
    }
    values = {label: np.zeros((cfg.n_train + cfg.n_test, cfg.n_grid)) for label in moved_ops}
    mean = np.zeros_like(rho)
    snapshots = []
    for k, s in enumerate(inputs.values):
        psi = input_state(float(s))
        rest = reduce_to_rest(rho)
        rho = np.kron(np.outer(psi, psi.conj()), rest)
        row = k - cfg.n_washout
        if row >= 0:
            for label, ops in moved_ops.items():
                values[label][row] = [np.trace(rho @ op).real for op in ops]
        if row >= cfg.n_train:
            mean += rho / cfg.n_test
            if len(snapshots) < cfg.tmi_cap:
                snapshots.append(rho)
        rho = u_in @ rho @ u_in.conj().T
    return ham, mean, snapshots, values
