"""Ising-chain Hamiltonian and its exact diagonalization, block by sector.

The chain qubits are labeled 1..N on the full register; the dynamics ignore
the detached reference qubit 0.  All matrices produced here live on the
2**N-dimensional chain register (chain qubit i sits at matrix position i-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, signed_permutation
from .states import pack_hermitian, unpack_hermitian


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


@dataclass(eq=False)
class SpectralModel:
    """Eigendecomposition of the chain Hamiltonian, kept as the blocks H
    leaves invariant, which every path that works per sector reads.

    Chain sector q holds the basis states ``rows[q]`` (ascending): the even
    and the odd chain-parity class when every entry of H between them is
    exactly zero, else all states (``local`` is each state's position in its
    sector).  ``vectors[q]`` are its eigenvectors in its own basis, with
    ``energies[q]`` ascending.  No dense 2**N x 2**N eigenvector matrix is
    kept.

    The running state on qubits 2..N is block-diagonal on the rest sectors
    ``rests``.  Rest sector r pairs with chain sectors r and r + 1: it holds
    the states of chain sector r whose qubit 1 is 0 (its first local rows,
    ``halves``) and those of chain sector r + 1 whose qubit 1 is 1.  A
    sector-packed row is each rest block's ``states.pack_hermitian``
    numbers, concatenated at ``offsets`` (``segments``).

    Sector indices add modulo the count (``step``); a chain Pauli string
    moves a state by its number of x and y factors (``shift``).
    """

    params: IsingParams
    rows: list[np.ndarray]
    vectors: list[np.ndarray]
    energies: list[np.ndarray]

    def __post_init__(self):
        dim = self.dim
        self.local = np.empty(dim, dtype=np.intp)
        for rows in self.rows:
            self.local[rows] = np.arange(len(rows))
        self.rests = [rows[rows < dim // 2] for rows in self.rows]
        self.offsets = np.cumsum([0] + [len(rows) ** 2 for rows in self.rests])
        self.segments = [slice(a, b) for a, b in zip(self.offsets, self.offsets[1:])]
        self.count = len(self.rows)
        # The two lowest energies of all sectors, against the largest |E|.
        lowest = np.sort(np.concatenate([e[:2] for e in self.energies]))
        scale = max(max(np.max(np.abs(e)) for e in self.energies), 1.0)
        self.degenerate_ground = bool(
            lowest.size > 1 and lowest[1] - lowest[0] <= 1e-9 * scale
        )

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def dim(self) -> int:
        return self.params.dim

    def step(self, q: int, k: int = 1) -> int:
        """The sector k steps from sector q."""
        return (q + k) % self.count

    def shift(self, chain: PauliString) -> int:
        """How many sectors a chain string moves a state by."""
        return self.step(0, sum(axis in "xy" for _, axis in chain.terms))

    def sector_of(self, states: np.ndarray) -> np.ndarray:
        """Sectors of basis states of any register: parity, or 0 with one."""
        return np.bitwise_count(states) % self.count

    def halves(self, q: int) -> tuple[slice, slice]:
        """Local rows of chain sector q where qubit 1 is 0, and where it is 1."""
        low = len(self.rests[q])
        return slice(None, low), slice(low, None)

    def pack(self, blocks: list[np.ndarray], out: np.ndarray) -> np.ndarray:
        """The sector-packed row of rest blocks, written into ``out``."""
        for block, segment in zip(blocks, self.segments):
            pack_hermitian(block, out=out[segment])
        return out

    def unpack(self, packed: np.ndarray) -> list[np.ndarray]:
        """The rest blocks of sector-packed rows; leading axes are a stack."""
        return [unpack_hermitian(packed[..., segment]) for segment in self.segments]

    def propagators(self, tau: float) -> list[np.ndarray]:
        """exp(-i H tau) per chain sector, in the sector's own basis."""
        pairs = zip(self.vectors, self.energies)
        return [(vecs * np.exp(-1j * e * tau)) @ vecs.conj().T for vecs, e in pairs]


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


# Entries of H per row block in the checks below, so that their temporaries
# stay at about a MiB whatever the chain length.
_BLOCK_ENTRIES = 2**16


def _row_blocks(dim: int) -> list[slice]:
    rows = max(1, _BLOCK_ENTRIES // dim)
    return [slice(i, min(i + rows, dim)) for i in range(0, dim, rows)]


def _parity_classes(hamiltonian: np.ndarray) -> list[np.ndarray]:
    """Basis states of even and of odd chain parity (the product of every
    z_i) if H has no entry between the two, else all basis states."""
    dim = len(hamiltonian)
    odd = (np.bitwise_count(np.arange(dim)) & 1).astype(bool)
    mixed = any(
        np.any(hamiltonian[rows][odd[rows][:, None] != odd])
        for rows in _row_blocks(dim)
    )
    if dim > 1 and not mixed:
        return [np.flatnonzero(~odd), np.flatnonzero(odd)]
    return [np.arange(dim)]


def diagonalize(hamiltonian: np.ndarray, params: IsingParams) -> SpectralModel:
    """Eigendecomposition per parity sector (``_parity_classes``); each
    sector's eigenvalues ascend and its eigenvectors are orthonormal."""
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    if hamiltonian.shape != (params.dim, params.dim):
        raise ValueError(
            f"Hamiltonian shape {hamiltonian.shape} does not match 2^{params.n}"
        )
    herm_residue = max(
        np.max(np.abs(hamiltonian[rows] - hamiltonian[:, rows].conj().T))
        for rows in _row_blocks(params.dim)
    )
    if herm_residue > 1e-10:
        raise ValueError(f"Hamiltonian is not Hermitian (residue {herm_residue:.3e})")
    classes = _parity_classes(hamiltonian)
    whole = len(classes) == 1  # then H itself: no sector copy
    try:
        parts = [
            np.linalg.eigh(hamiltonian if whole else hamiltonian[np.ix_(rows, rows)])
            for rows in classes
        ]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        norm = np.max(np.abs(hamiltonian))
        raise RuntimeError(f"eigensolver failed (max |H| = {norm:.3e}): {exc}") from exc
    return SpectralModel(
        params=params,
        rows=classes,
        vectors=[_fix_phases(vectors) for _, vectors in parts],
        energies=[energies for energies, _ in parts],
    )


def spectral_model(params: IsingParams) -> SpectralModel:
    """Build and diagonalize in one step."""
    return diagonalize(build_hamiltonian(params), params)
