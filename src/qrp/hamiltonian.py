"""Ising-chain Hamiltonian, exact diagonalization, and chain time evolution.

The chain qubits are labeled 1..N on the full register; the dynamics ignore
the detached reference qubit 0.  All matrices produced here live on the
2**N-dimensional chain register (chain qubit i sits at matrix position i-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, signed_permutation


@dataclass(frozen=True)
class IsingParams:
    """Chain parameters: nearest-neighbor coupling and both fields.

    ``j > 0`` sets the energy unit (1 by convention); ``h_x`` and ``h_z`` are
    the longitudinal and transverse fields.
    """

    n: int = 7
    h_x: float = 0.0
    h_z: float = 1.0
    j: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"chain length must be >= 1, got {self.n}")
        if not self.j > 0:
            raise ValueError(f"coupling must be positive, got {self.j}")

    @property
    def dim(self) -> int:
        return 2**self.n


# Parameter points used throughout: integrable chain, chaotic chain, and the
# weakly perturbed (symmetry-broken, nonintegrable) chain.
FREE_FERMION = (0.0, 1.0)
CHAOTIC = (-0.5, 1.05)
PERTURBED = (-0.02, 1.002)


def build_hamiltonian(params: IsingParams) -> np.ndarray:
    """Dense chain Hamiltonian -J sum(xx) + h_x sum(x) + h_z sum(z).

    Each term is a signed permutation (``pauli.signed_permutation``) and is
    scattered into its entries.  Distinct strings never share an
    off-diagonal entry and the z terms add onto the diagonal in site order,
    so H equals the sum of the terms' Kronecker products bit for bit.
    """
    n = params.n
    h = np.zeros((params.dim, params.dim), dtype=complex)
    rows = np.arange(params.dim)
    terms = [(-params.j, {pos: "x", pos + 1: "x"}) for pos in range(n - 1)]
    for pos in range(n):
        terms += [(params.h_x, {pos: "x"}), (params.h_z, {pos: "z"})]
    for coeff, sites in terms:
        perm, sign = signed_permutation(PauliString.from_terms(sites), n)
        h[rows, perm] += coeff * sign
    return h


@dataclass
class SpectralModel:
    """Eigendecomposition of the chain Hamiltonian."""

    params: IsingParams
    hamiltonian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degenerate_ground: bool = False

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def dim(self) -> int:
        return self.params.dim


def _fix_phases(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Make the first nonzero amplitude of each column real positive."""
    fixed = vectors.copy()
    for col in range(fixed.shape[1]):
        v = fixed[:, col]
        idx = np.argmax(np.abs(v) > tol)
        pivot = v[idx]
        if np.abs(pivot) > tol:
            fixed[:, col] = v * (np.abs(pivot) / pivot)
    return fixed


def diagonalize(hamiltonian: np.ndarray, params: IsingParams) -> SpectralModel:
    """Full eigendecomposition; eigenvalues ascending, orthonormal columns."""
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    if hamiltonian.shape != (params.dim, params.dim):
        raise ValueError(
            f"Hamiltonian shape {hamiltonian.shape} does not match 2^{params.n}"
        )
    herm_residue = np.max(np.abs(hamiltonian - hamiltonian.conj().T))
    if herm_residue > 1e-10:
        raise ValueError(f"Hamiltonian is not Hermitian (residue {herm_residue:.3e})")
    try:
        energies, vectors = np.linalg.eigh(hamiltonian)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        norm = np.max(np.abs(hamiltonian))
        raise RuntimeError(f"eigensolver failed (max |H| = {norm:.3e}): {exc}") from exc
    vectors = _fix_phases(vectors)
    scale = max(np.max(np.abs(energies)), 1.0)
    degenerate = bool(energies.size > 1 and energies[1] - energies[0] <= 1e-9 * scale)
    return SpectralModel(
        params=params,
        hamiltonian=hamiltonian,
        eigenvalues=energies,
        eigenvectors=vectors,
        degenerate_ground=degenerate,
    )


def spectral_model(params: IsingParams) -> SpectralModel:
    """Build and diagonalize in one step."""
    return diagonalize(build_hamiltonian(params), params)


def ground_state(model: SpectralModel) -> np.ndarray:
    """Unit-norm lowest eigenvector of the chain (phase already fixed)."""
    return model.eigenvectors[:, 0].copy()


def chain_propagator(model: SpectralModel, tau: float) -> np.ndarray:
    """exp(-i H tau) on the chain register, via the eigendecomposition."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    phases = np.exp(-1j * model.eigenvalues * tau)
    return (model.eigenvectors * phases) @ model.eigenvectors.conj().T
