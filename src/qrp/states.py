"""Density-matrix operations on qubit registers.

The register holds the detached reference qubit 0 (most significant bit)
followed by the chain qubits 1..N.  Inputs are injected by replacing the
state of qubits (0, 1) with sqrt(s)|00> + sqrt(1-s)|11> while leaving the
reduced state of qubits 2..N untouched.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

EIG_CUTOFF = 1e-12


def n_qubits_of(rho: np.ndarray) -> int:
    """Qubit count of a register matrix, or of a stack of them."""
    dim = rho.shape[-1]
    n = int(round(np.log2(dim)))
    if rho.ndim < 2 or rho.shape[-2] != dim or 2**n != dim:
        raise ValueError(f"not a qubit-register matrix: shape {rho.shape}")
    return n


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


def spectrum_entropy(spectra: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each spectrum along the last axis.

    Eigenvalues at or below ``EIG_CUTOFF``, tiny negative round-off included,
    contribute nothing.
    """
    lam = np.where(spectra > EIG_CUTOFF, spectra, 1.0)
    return -np.sum(lam * np.log2(lam), axis=-1)


@lru_cache(maxsize=16)
def _packing_index(h: int) -> np.ndarray:
    """Positions, in the float64 view of a C-ordered complex h x h matrix, of
    its real diagonal, then the real and the imaginary parts of its strict
    upper triangle (row by row).  Cached per size, so read-only."""
    rows, cols = np.triu_indices(h, 1)
    diag = np.arange(h)
    upper = 2 * (rows * h + cols)
    index = np.concatenate([2 * diag * (h + 1), upper, upper + 1])
    index.flags.writeable = False
    return index


def pack_hermitian(mats: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hermitian h x h matrices as h**2 real numbers each.

    The packed form is the real diagonal, then the real and the imaginary
    parts of the strict upper triangle; only the upper triangle is read.
    For Hermitian A and B, Tr[A B] is the dot product of pack(A) with
    pack(B) once the off-diagonal entries of pack(B) are doubled.  Leading
    axes are a stack.  ``out``, if given, receives the packed numbers.
    """
    mats = np.ascontiguousarray(mats, dtype=complex)
    h = mats.shape[-1]
    flat = mats.view(np.float64).reshape(mats.shape[:-2] + (2 * h * h,))
    # The index is in range by construction; "clip" lets ``take`` write
    # straight into ``out`` instead of through a buffer.
    return np.take(flat, _packing_index(h), axis=-1, out=out, mode="clip")


def unpack_hermitian(packed: np.ndarray) -> np.ndarray:
    """Inverse of ``pack_hermitian``: the Hermitian matrices, as complex."""
    h = int(round(np.sqrt(packed.shape[-1])))
    out = np.zeros(packed.shape[:-1] + (h, h), dtype=complex)
    flat = out.view(np.float64).reshape(packed.shape[:-1] + (2 * h * h,))
    flat[..., _packing_index(h)] = packed  # the upper triangle
    out += np.swapaxes(out, -1, -2).conj()
    diag = np.arange(h)
    out[..., diag, diag] = packed[..., :h]
    return out
