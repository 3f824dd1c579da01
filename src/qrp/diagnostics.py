"""Conventional probes run next to the estimation task for comparison:
two-time spin correlations, out-of-time-order correlators, and tripartite
mutual information.

Everything is evaluated on the 2**N chain, with qubit 0 (which never evolves)
contracted out analytically, as in the drive.  Correlators and OTOCs are
linear in the state, so averaging over the testing inputs reduces exactly to
a trace against the drive's packed mean blocks: a correlator is a read-out
of them, and OTOCs use them in the Hamiltonian eigenbasis, where every grid
time is a diagonal phase.  Entropies are not linear, so the
mutual-information curve averages per-snapshot values.

OTOC and TMI intermediates that grow with the number of grid times are built
one chunk of times at a time, each chunk sized to stay within ``CHUNK_BYTES``
(or one time per chunk where a single time needs more), so a curve holds a
few 2**N x 2**N matrices plus one chunk however long the grid is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import StateEnsemble, _Readout, rest_sectors, split_qubit0
from .hamiltonian import SpectralModel, eigenbasis_operator
from .pauli import PauliString, as_pauli_string
from .states import partial_trace, spectrum_entropy, unpack_sectors

CHUNK_BYTES = 8 * 2**20
_COMPLEX_BYTES = 16


@dataclass(frozen=True)
class OtocSpec:
    """Operator pair <W(tau) V W(tau) V>: W is evolved, V stays at time 0."""

    w: PauliString
    v: PauliString

    @classmethod
    def of(cls, w: PauliString | str, v: PauliString | str) -> "OtocSpec":
        return cls(w=as_pauli_string(w), v=as_pauli_string(v))

    def name(self) -> str:
        return f"{self.w.label()}_{self.v.label()}".replace("*", "")


@dataclass(frozen=True)
class TmiSpec:
    """Three pairwise-disjoint qubit subsets of the full register."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        subsets = [tuple(sorted(self.a)), tuple(sorted(self.b)), tuple(sorted(self.c))]
        for name, sub in zip("abc", subsets):
            if not sub:
                raise ValueError(f"subset {name} is empty")
        combined = subsets[0] + subsets[1] + subsets[2]
        if len(set(combined)) != len(combined):
            raise ValueError(f"subsets overlap: {subsets}")
        if min(combined) < 0:
            raise ValueError(f"negative qubit index in {subsets}")
        object.__setattr__(self, "a", subsets[0])
        object.__setattr__(self, "b", subsets[1])
        object.__setattr__(self, "c", subsets[2])

    @property
    def union(self) -> tuple[int, ...]:
        return tuple(sorted(self.a + self.b + self.c))

    def name(self) -> str:
        subsets = (self.a, self.b, self.c)
        return "_".join("".join(str(q) for q in sub) for sub in subsets)


def _tau_chunks(n_taus: int, bytes_per_tau: int) -> list[slice]:
    """Consecutive slices of the grid whose intermediates fit ``CHUNK_BYTES``,
    or single times where one time needs more."""
    step = max(1, CHUNK_BYTES // bytes_per_tau)
    return [slice(i, min(i + step, n_taus)) for i in range(0, n_taus, step)]


def correlation_curve(
    ensemble: StateEnsemble,
    qubit: int,
    model: SpectralModel,
    taus: np.ndarray,
) -> np.ndarray:
    """Two-time correlation Tr[rho_mean sigma^z_1 sigma^z_qubit(tau)] over a grid.

    The injected pair has z0 z1 = 1, so this is the test-row mean of the
    ``z0*z_qubit`` read-out, and real.  The read-out kernel evaluates it on
    the two packed mean blocks as rows (s = 1, first block) and (s = 0,
    second block), whose values sum to the mean.
    """
    if not 1 <= qubit <= model.n:
        raise ValueError(f"correlation qubit {qubit} outside chain 1..{model.n}")
    readout = _Readout(model, [("z", PauliString.from_terms({qubit - 1: "z"}))], taus)
    return readout(ensemble.mean_packed, np.array([1.0, 0.0]))[0].sum(axis=0)


def otoc_curve(
    ensemble: StateEnsemble,
    spec: OtocSpec,
    model: SpectralModel,
    taus: np.ndarray,
) -> np.ndarray:
    """Tr[rho_mean W(tau) V W(tau) V] over a grid, as complex numbers.

    The OTOC is real only where W(tau) V W(tau) V is Hermitian, so its
    imaginary part is part of the result, not round-off (W = V = x1 is such
    a pair).  Plots read the real part.

    Write W = w_0 (x) W_c and V = v_0 (x) V_c.  Qubit 0 is outside the
    dynamics, so WVWV = (w_0 v_0 w_0 v_0) (x) (W_c V_c W_c V_c), where the
    qubit-0 factor is +1 or -1 (Pauli operators commute or anticommute).  The
    chain factor is traced against the chain mean state in the eigenbasis,
    where W_c(tau)_ab = exp(i (E_a - E_b) tau) W_c_ab.
    """
    n = model.n
    w0, w_chain = split_qubit0(spec.w, n)
    v0, v_chain = split_qubit0(spec.v, n)
    sign = -1.0 if "i" not in (w0, v0) and w0 != v0 else 1.0
    # The chain mean state in the eigenbasis, V^dag sigma V: sigma is
    # block-diagonal on qubit 1, and block a meets only V_a, the rows of V
    # where qubit 1 is a.
    vecs_0, vecs_1 = np.split(model.eigenvectors, 2)
    sigma_0, sigma_1 = unpack_sectors(ensemble.mean_packed, rest_sectors(model))
    state = vecs_0.conj().T @ (sigma_0 @ vecs_0)
    state += vecs_1.conj().T @ (sigma_1 @ vecs_1)
    w_eig = eigenbasis_operator(model, w_chain)
    v_eig = eigenbasis_operator(model, v_chain)
    taus = np.asarray(taus, dtype=float)
    values = np.zeros(len(taus), dtype=complex)
    for chunk in _tau_chunks(len(taus), 3 * model.dim**2 * _COMPLEX_BYTES):
        phases = np.exp(1j * np.outer(taus[chunk], model.eigenvalues))
        w_tau = phases[:, :, None] * w_eig
        w_tau *= phases.conj()[:, None, :]
        wv = w_tau @ v_eig
        values[chunk] = sign * np.einsum("tij,tji->t", state @ wv, wv)
    return values


# S_A + S_B + S_C - S_AB - S_AC - S_BC + S_ABC
_TMI_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0])


def _tmi_of_joint(joint: np.ndarray, spec: TmiSpec) -> np.ndarray:
    """Tripartite mutual information of stacked joint states on ``spec.union``.

    The seven reduced states are zero-padded to the joint dimension, which
    adds only zero eigenvalues, so one stacked ``eigvalsh`` gives every
    entropy.
    """
    position = {q: i for i, q in enumerate(spec.union)}
    parts = (spec.a, spec.b, spec.c, spec.a + spec.b, spec.a + spec.c, spec.b + spec.c)
    dim = joint.shape[-1]
    stack = np.zeros(joint.shape[:-2] + (7, dim, dim), dtype=complex)
    for j, part in enumerate(parts):
        reduced = partial_trace(joint, tuple(sorted(position[q] for q in part)))
        size = reduced.shape[-1]
        stack[..., j, :size, :size] = reduced
    stack[..., 6, :, :] = joint
    return spectrum_entropy(np.linalg.eigvalsh(stack)) @ _TMI_SIGNS


def tmi_curve(
    ensemble: StateEnsemble,
    spec: TmiSpec,
    model: SpectralModel,
    taus: np.ndarray,
) -> np.ndarray:
    """Mean tripartite mutual information over the retained snapshots.

    Entropy is nonlinear, so unlike the correlators this cannot use the mean
    state; every snapshot's joint state on A u B u C is built at every tau.
    A snapshot is |psi(s)><psi(s)| (x) rest with
    |psi(s)> = sqrt(s)|00> + sqrt(1-s)|11> on qubits (0, 1).  After U(tau) on
    the chain its qubit-0 block (a, b) is c_a c_b L_a rest L_b^dag, with
    c = (sqrt(s), sqrt(1-s)) and L_a = U(tau)(|a>_1 (x) 1) the half of the
    columns of U(tau) where qubit 1 is a; only the chain qubits of the
    partition survive the partial trace.
    """
    if ensemble.n_samples == 0:
        raise ValueError("ensemble retains no snapshots (tmi_cap was 0)")
    n, dim = model.n, model.dim
    half = dim // 2
    union = spec.union
    if union[-1] > n:
        raise ValueError(f"tmi subset qubit {union[-1]} outside register 0..{n}")
    with_ref = union[0] == 0
    kept = [q - 1 for q in union if q >= 1]
    kept_dim = 2 ** len(kept)
    # Rows reordered so the kept chain qubits lead: the partial trace over the
    # others is then a contraction over the trailing row index.
    others = [q for q in range(n) if q not in kept]
    order = np.arange(dim).reshape((2,) * n).transpose(kept + others).ravel()
    vecs_rows = model.eigenvectors[order]
    vecs_h = model.eigenvectors.conj().T

    rests = unpack_sectors(ensemble.sample_packed, rest_sectors(model))
    taus = np.asarray(taus, dtype=float)
    totals = np.zeros(len(taus))
    for chunk in _tau_chunks(len(taus), 4 * dim * dim * _COMPLEX_BYTES):
        count = chunk.stop - chunk.start
        phases = np.exp(-1j * np.outer(taus[chunk], model.eigenvalues))
        scaled = (vecs_rows[None, :, :] * phases[:, None, :]).reshape(count * dim, dim)
        blocks = [scaled @ vecs_h[:, :half], scaled @ vecs_h[:, half:]]
        del scaled
        shaped = [blk.reshape(count, kept_dim, -1) for blk in blocks]
        for s, rest in zip(ensemble.sample_inputs, rests):
            # L_b rest L_a^dag = L_b conj(L_a rest)^T for Hermitian rest, so
            # each half needs one conjugated product and no conjugate copy
            # of the blocks; the halves are taken one at a time.
            moved = blocks[0] @ rest
            np.conjugate(moved, out=moved)
            moved_t = moved.reshape(count, kept_dim, -1).transpose(0, 2, 1)
            j00 = s * (shaped[0] @ moved_t)
            if with_ref:
                j10 = np.sqrt(s * (1.0 - s)) * (shaped[1] @ moved_t)
            moved = blocks[1] @ rest
            np.conjugate(moved, out=moved)
            moved_t = moved.reshape(count, kept_dim, -1).transpose(0, 2, 1)
            j11 = (1.0 - s) * (shaped[1] @ moved_t)
            if with_ref:
                joint = np.block([[j00, j10.conj().transpose(0, 2, 1)], [j10, j11]])
            else:
                joint = j00 + j11
            totals[chunk] += _tmi_of_joint(joint, spec)
    return totals / ensemble.n_samples
