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
    """Eigendecomposition of the chain Hamiltonian.

    ``sectors`` lists the blocks that H leaves invariant, each as its basis
    states (ascending) and its eigenvector columns (ascending energy): the
    two chain-parity classes when every entry of H between them is exactly
    zero, else one block of everything.  ``eigenvectors`` is zero outside
    each sector's rows and columns.
    """

    params: IsingParams
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sectors: tuple[tuple[np.ndarray, np.ndarray], ...]
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


def _parity_classes(hamiltonian: np.ndarray) -> list[np.ndarray]:
    """Basis states of even and of odd chain parity (the product of every
    z_i) if H has no entry between the two, else all basis states."""
    dim = len(hamiltonian)
    odd = (np.bitwise_count(np.arange(dim)) & 1).astype(bool)
    if dim > 1 and not np.any(hamiltonian[odd[:, None] != odd[None, :]]):
        return [np.flatnonzero(~odd), np.flatnonzero(odd)]
    return [np.arange(dim)]


def diagonalize(hamiltonian: np.ndarray, params: IsingParams) -> SpectralModel:
    """Full eigendecomposition; eigenvalues ascending, orthonormal columns.

    Each parity sector (``_parity_classes``) is diagonalized on its own and
    the eigenpairs are merged in ascending energy.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    if hamiltonian.shape != (params.dim, params.dim):
        raise ValueError(
            f"Hamiltonian shape {hamiltonian.shape} does not match 2^{params.n}"
        )
    herm_residue = np.max(np.abs(hamiltonian - hamiltonian.conj().T))
    if herm_residue > 1e-10:
        raise ValueError(f"Hamiltonian is not Hermitian (residue {herm_residue:.3e})")
    classes = _parity_classes(hamiltonian)
    whole = len(classes) == 1  # then H itself: no sector copy, and no scatter
    try:
        parts = [
            np.linalg.eigh(hamiltonian if whole else hamiltonian[np.ix_(rows, rows)])
            for rows in classes
        ]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        norm = np.max(np.abs(hamiltonian))
        raise RuntimeError(f"eigensolver failed (max |H| = {norm:.3e}): {exc}") from exc
    unsorted = np.concatenate([energies for energies, _ in parts])
    order = np.argsort(unsorted, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))  # sorted position of each eigenpair
    if whole:  # eigh's energies ascend, so ``order`` is the identity
        vectors = parts[0][1]
        sectors = [(classes[0], column)]
    else:
        vectors = np.zeros((params.dim, params.dim), dtype=complex)
        sectors, start = [], 0
        for rows, (energies, block) in zip(classes, parts):
            cols = column[start : start + len(energies)]
            vectors[np.ix_(rows, cols)] = block
            sectors.append((rows, cols))
            start += len(energies)
    del parts  # the blocks are in ``vectors`` now; fixing phases copies it
    vectors = _fix_phases(vectors)
    energies = unsorted[order]
    scale = max(np.max(np.abs(energies)), 1.0)
    degenerate = bool(energies.size > 1 and energies[1] - energies[0] <= 1e-9 * scale)
    return SpectralModel(
        params=params,
        eigenvalues=energies,
        eigenvectors=vectors,
        sectors=tuple(sectors),
        degenerate_ground=degenerate,
    )


def spectral_model(params: IsingParams) -> SpectralModel:
    """Build and diagonalize in one step."""
    return diagonalize(build_hamiltonian(params), params)


def chain_propagator(model: SpectralModel, tau: float) -> np.ndarray:
    """exp(-i H tau) on the chain register, via the eigendecomposition."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    phases = np.exp(-1j * model.eigenvalues * tau)
    return (model.eigenvectors * phases) @ model.eigenvectors.conj().T


def sector_bases(model: SpectralModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per sector, its eigenvectors in the sector's own basis and their
    energies: the diagonal blocks of ``eigenvectors``, which are all of it
    when there is one sector (returned without a copy)."""
    if len(model.sectors) == 1:
        return [(model.eigenvectors, model.eigenvalues)]
    return [
        (model.eigenvectors[np.ix_(rows, cols)], model.eigenvalues[cols])
        for rows, cols in model.sectors
    ]


def sector_propagators(bases, tau: float) -> list[np.ndarray]:
    """exp(-i H tau) per sector, for ``bases = sector_bases(model)``."""
    return [
        (vecs * np.exp(-1j * energies * tau)) @ vecs.conj().T
        for vecs, energies in bases
    ]
