"""Density-matrix operations on qubit registers.

The register holds the detached reference qubit 0 (most significant bit)
followed by the chain qubits 1..N.  Inputs are injected by replacing the
state of qubits (0, 1) with sqrt(s)|00> + sqrt(1-s)|11> while leaving the
reduced state of qubits 2..N untouched.
"""

from __future__ import annotations

import numpy as np

EIG_CUTOFF = 1e-12


def n_qubits_of(rho: np.ndarray) -> int:
    """Qubit count of a register matrix, or of a stack of them."""
    dim = rho.shape[-1]
    n = int(round(np.log2(dim)))
    if rho.ndim < 2 or rho.shape[-2] != dim or 2**n != dim:
        raise ValueError(f"not a qubit-register matrix: shape {rho.shape}")
    return n


def input_state(s: float) -> np.ndarray:
    """Two-qubit injection vector sqrt(s)|00> + sqrt(1-s)|11> on qubits (0,1)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"input value must lie in [0, 1], got {s}")
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(s)
    psi[3] = np.sqrt(1.0 - s)
    return psi


def partial_trace(rho: np.ndarray, keep: tuple[int, ...] | list[int]) -> np.ndarray:
    """Reduced density matrix on ``keep`` (strictly increasing qubit indices).

    Leading axes of ``rho`` are a stack: each matrix is reduced on its own.
    """
    n = n_qubits_of(rho)
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep must be nonempty; use trace() for the scalar")
    if list(keep) != sorted(set(keep)):
        raise ValueError(f"keep must be strictly increasing, got {keep}")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep {keep} outside register of {n} qubits")
    batch = rho.shape[:-2]
    tensor = rho.reshape(batch + (2,) * (2 * n))
    ket = list(range(n))
    bra = [n + q if q in keep else q for q in range(n)]
    out = [q for q in keep] + [n + q for q in keep]
    reduced = np.einsum(tensor, [Ellipsis] + ket + bra, [Ellipsis] + out)
    d = 2 ** len(keep)
    return reduced.reshape(batch + (d, d))


def spectrum_entropy(eigenvalues: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each spectrum along the last axis.

    Eigenvalues at or below ``EIG_CUTOFF``, tiny negative round-off included,
    contribute nothing.
    """
    lam = np.where(eigenvalues > EIG_CUTOFF, eigenvalues, 1.0)
    return -np.sum(lam * np.log2(lam), axis=-1)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 von Neumann entropy; tiny negative eigenvalues are clamped."""
    return float(spectrum_entropy(np.linalg.eigvalsh(rho)))
