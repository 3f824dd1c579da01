"""Conventional probes run next to the estimation task for comparison:
two-time spin correlations, out-of-time-order correlators, and tripartite
mutual information.

Everything is evaluated on the 2**N chain, with qubit 0 (which never evolves)
contracted out analytically, as in the drive.  Correlators and OTOCs are
linear in the state, so averaging over the testing inputs reduces exactly to
a trace against the drive's packed mean blocks: a correlator is a read-out
of them, and OTOCs use them in the Hamiltonian eigenbasis, where every grid
time is a diagonal phase, against the -1 eigenspace of V in the same row
gather that read-outs use, so each grid time costs products of half the
size.  Entropies are not linear, so the mutual-information curve averages
per-snapshot values; the partitions of one call share a joint state per
snapshot and grid time wherever one's qubits lie inside another's.

Correlations, OTOCs and TMI read the sector blocks that the drive stores
and work per sector of the Hamiltonian, on the blocks ``SpectralModel``
holds, like the drive: nothing is scattered into a dense 2**N matrix, and
where H conserves the chain parity every product runs on blocks of half the
size.  With one sector the blocks are the dense matrices.

OTOC and TMI intermediates that grow with the number of grid times are built
one chunk of times at a time, each chunk sized to stay within ``CHUNK_BYTES``
(or one time per chunk where a single time needs more), so a curve holds a
few 2**N x 2**N matrices' worth of blocks plus one chunk however long the
grid is.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .driver import (
    StateEnsemble,
    _eigenbasis_blocks,
    _eigenbasis_states,
    _minus_blocks,
    _Readout,
    split_qubit0,
)
from .hamiltonian import SpectralModel
from .pauli import PauliString, as_pauli_string
from .states import partial_trace, spectrum_entropy

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
    chain factor is traced against the chain mean state sigma in the
    eigenbasis, where W_c(tau)_ab = exp(i (E_a - E_b) tau) W_c_ab.

    With B a basis of the -1 eigenspace of V_c, V_c = I - 2 B B^dag, and
    W_c(tau) is Hermitian and squares to I, so W_c(tau) V_c W_c(tau) =
    I - 2 (W_c(tau) B)(W_c(tau) B)^dag and the chain factor is

        Tr[M] - 2 Tr[Y M Y^dag],  M = V_c sigma,  Y = B^dag W_c(tau),

    where Y has half the rows of W_c(tau).  In the eigenbasis B^dag is
    D = B^dag V (``driver._minus_blocks``), and Y is D with its columns
    scaled by exp(i E tau), times W_c, with its columns scaled by
    exp(-i E tau).  M is built once; a chunk of grid times then takes two
    tall products, of the stacked scaled D with W_c and of the stacked Y
    with M, and an elementwise reduction.

    Everything is kept as blocks over the Hamiltonian's sectors: sigma
    keeps each sector, and W_c and V_c move sector q to q + w and q + v.
    So Y_p = D_(p+w) W_c(p+w <- p) and M_q = V_c(q+v <- q) sigma_q, and
    the trace is the sum over q of Tr[Y_(q+v) M_q Y_q^dag] (D's rows are
    aligned across sectors where V_c moves them).  With one sector these
    are the dense products.
    """
    n = model.n
    w0, w_chain = split_qubit0(spec.w, n)
    v0, v_chain = split_qubit0(spec.v, n)
    sign = -1.0 if "i" not in (w0, v0) and w0 != v0 else 1.0
    # The chain mean state in each sector's eigenbasis, V^dag sigma V: the
    # i-axis weighted state of the mean rows (s = 1, s = 0); then per sector
    # q, M_q = delta sigma_q - 2 D_(q+v)^dag (D_q sigma_q).  W_c's blocks
    # are built last, once only M is held.
    rows = zip((1.0, 0.0), map(model.unpack, ensemble.mean_packed))
    states, second = (w["i"] for w in _eigenbasis_states(model, rows, "i"))
    for state, other in zip(states, second):
        state += other
    del second, other
    v_shift, d = _minus_blocks(model, v_chain)
    # D is kept through the curve: copies, so it does not hold minus_rows'
    # partner buffer.
    d = [block.copy() for block in d]
    moved = []
    for q, state in enumerate(states):
        m = d[model.step(q, v_shift)].conj().T @ (d[q] @ state)
        m *= -2.0
        if not v_shift:
            m += state
        moved.append(m)
    del states, state
    w_shift, w_eig = _eigenbasis_blocks(model, w_chain)
    trace = 0.0 if v_shift else sum(np.trace(m) for m in moved)
    taus = np.asarray(taus, dtype=float)
    values = np.zeros(len(taus), dtype=complex)
    # Per grid time: the scaled D, Y and Y M, each about half a d x d matrix.
    per_tau = 3 * sum(block.size for block in d) * _COMPLEX_BYTES
    for chunk in _tau_chunks(len(taus), max(per_tau, 1)):
        count = chunk.stop - chunk.start
        phases = [np.exp(1j * np.outer(taus[chunk], e)) for e in model.energies]
        ys = []  # ys[p]: Y_p over the chunk, (count, rows of D_(p+w), d_p)
        for p, w_block in enumerate(w_eig):
            t = model.step(p, w_shift)
            scaled = (d[t] * phases[t][:, None, :]).reshape(-1, len(w_block))
            y = (scaled @ w_block).reshape(count, len(d[t]), w_block.shape[1])
            del scaled
            y *= phases[p].conj()[:, None, :]
            ys.append(y)
        total = np.zeros(count, dtype=complex)
        for q, m in enumerate(moved):
            y_in = ys[model.step(q, v_shift)]
            ym = (y_in.reshape(-1, len(m)) @ m).reshape(ys[q].shape)
            total += np.vecdot(ys[q], ym).sum(axis=-1)  # Tr[Y_(q+v) M_q Y_q^dag]
        values[chunk] = sign * (trace - 2.0 * total)
        del ys, y, y_in, ym  # before the next chunk's are built
    return values


# S_A + S_B + S_C - S_AB - S_AC - S_BC + S_ABC
_TMI_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0])


def _tmi_of_joint(
    joint: np.ndarray, union: tuple[int, ...], specs: list[TmiSpec]
) -> np.ndarray:
    """Tripartite mutual information of stacked joint states on ``union``,
    one row per spec of ``specs``, each with its union inside ``union``.

    Every distinct part of the specs (A, B, C, their pairs and A u B u C) is
    reduced once and its entropy taken at its own dimension; parts of one
    size share one stacked ``eigvalsh``, and each spec sums its seven
    entropies with their signs.
    """
    position = {q: i for i, q in enumerate(union)}
    signs: dict[tuple[int, ...], np.ndarray] = {}  # part -> its sign per spec
    for k, spec in enumerate(specs):
        a, b, c = spec.a, spec.b, spec.c
        for part, sign in zip((a, b, c, a + b, a + c, b + c, a + b + c), _TMI_SIGNS):
            key = tuple(sorted(position[q] for q in part))
            signs.setdefault(key, np.zeros(len(specs)))[k] += sign
    total = np.zeros(joint.shape[:-2] + (len(specs),))
    for size in {len(key) for key in signs}:
        keys = [key for key in signs if len(key) == size]
        whole = size == len(union)
        reduced = [joint if whole else partial_trace(joint, key) for key in keys]
        entropies = spectrum_entropy(np.linalg.eigvalsh(np.stack(reduced, axis=-3)))
        total += entropies @ np.array([signs[key] for key in keys])
    return np.moveaxis(total, -1, 0)


def _kept_layout(model: SpectralModel, kept: list[int]) -> tuple[list, list]:
    """How ``tmi_curve`` orders the rows of each chain sector, and which kept
    states each sector's rows carry.

    A row is a chain basis state (k, o): k on the ``kept`` chain qubits, o on
    the others.  Chain sector p is ordered by (e, k, o), e the sector of o
    (its parity with two sectors, else 0); for each e, k then runs over the
    kept states of sector p + e.  Returns, per sector, that order as local
    row indices, and, per sector, its kept states in ascending order.
    """
    n = model.n
    others = [i for i in range(n) if i not in kept]
    # Basis states sorted by (k, o), then stably by e.
    order = np.arange(model.dim).reshape((2,) * n).transpose(kept + others).ravel()
    others_mask = sum(1 << (n - 1 - i) for i in others)
    ordered = order[np.argsort(model.sector_of(order & others_mask), kind="stable")]
    sector = model.sector_of(ordered)
    sector_of_k = model.sector_of(np.arange(2 ** len(kept)))
    sectors = range(model.count)
    orders = [model.local[ordered[sector == p]] for p in sectors]
    return orders, [np.flatnonzero(sector_of_k == p) for p in sectors]


def tmi_curve(
    ensemble: StateEnsemble,
    specs: Sequence[TmiSpec],
    model: SpectralModel,
    taus: np.ndarray,
) -> np.ndarray:
    """Mean tripartite mutual information over the retained snapshots, one
    row per spec of ``specs``, in their order.

    Entropy is nonlinear, so unlike the correlators this cannot use the mean
    state; every snapshot's joint state is built at every tau.  The specs
    are grouped under maximal unions: a spec whose union A u B u C lies
    inside another spec's union joins that spec's group, and each group's
    joint state is built once per snapshot and tau, on its largest union,
    from which every spec of the group reads its parts by partial trace.

    A snapshot is |psi(s)><psi(s)| (x) rest with
    |psi(s)> = sqrt(s)|00> + sqrt(1-s)|11> on qubits (0, 1).  After U(tau) on
    the chain its qubit-0 block (a, b) is c_a c_b L_a rest L_b^dag, with
    c = (sqrt(s), sqrt(1-s)) and L_a = U(tau)(|a>_1 (x) 1) the half of the
    columns of U(tau) where qubit 1 is a; only the chain qubits of the
    union survive the partial trace.

    ``rest`` is block-diagonal on the rest sectors.  On rest sector r, L_a
    is nonzero only on the rows of chain sector r + a, a block of the
    sector's propagator, so every product runs per sector.  Tracing out the
    other chain qubits o pairs rows (k, o) and (k', o), whose kept states k
    lie in sectors r + a + e and r + b + e for o in sector e
    (``_kept_layout``); each pair of sectors fills one block of the joint
    state.  With one sector there is one block of each kind.
    """
    if ensemble.n_samples == 0:
        raise ValueError("ensemble retains no snapshots (tmi_cap was 0)")
    n = model.n
    for spec in specs:
        if spec.union[-1] > n:
            top = spec.union[-1]
            raise ValueError(f"tmi subset qubit {top} outside register 0..{n}")
    groups: dict[tuple[int, ...], list[int]] = {}  # maximal union -> its specs
    for k in sorted(range(len(specs)), key=lambda k: -len(specs[k].union)):
        own = specs[k].union
        union = next((u for u in groups if set(own) <= set(u)), own)
        groups.setdefault(union, []).append(k)
    rest_blocks = model.unpack(ensemble.sample_packed)
    taus = np.asarray(taus, dtype=float)
    totals = np.zeros((len(specs), len(taus)))
    for union, members in groups.items():
        group_specs = [specs[k] for k in members]
        totals[members] = _union_tmi(
            union, group_specs, ensemble.sample_inputs, rest_blocks, model, taus
        )
    return totals / ensemble.n_samples


def _union_tmi(
    union: tuple[int, ...],
    specs: list[TmiSpec],
    samples: np.ndarray,
    rest_blocks: list[np.ndarray],
    model: SpectralModel,
    taus: np.ndarray,
) -> np.ndarray:
    """The snapshot sums of ``tmi_curve`` for the specs of one group, from
    the joint states on ``union``."""
    n = model.n
    with_ref = union[0] == 0
    kept = [q - 1 for q in union if q >= 1]
    kept_dim = 2 ** len(kept)
    orders, kept_states = _kept_layout(model, kept)
    # Per chain sector p: the eigenvectors with rows in ``orders[p]``, and
    # V^dag, whose column halves are where qubit 1 is 0 (rest sector p) and
    # 1 (rest sector p + 1).
    vecs_rows = [vecs[order] for vecs, order in zip(model.vectors, orders)]
    vecs_h = [vecs.conj().T for vecs in model.vectors]
    k_size = kept_dim // model.count
    n_e = model.count if len(kept) < n else 1
    joint_dim = 2 * kept_dim if with_ref else kept_dim
    # rows_of[a][p]: the joint's rows of qubit-0 block a (with the
    # reference) and of the kept states of sector p
    rows_of = [
        [(a * kept_dim if with_ref else 0) + states for states in kept_states]
        for a in (0, 1)
    ]

    # The blocks (a, b) built, by b: (0, 0) and (1, 1), and (1, 0) with the
    # reference; (0, 1) is the conjugate transpose of (1, 0).
    pairs = [(0, (0, 1) if with_ref else (0,)), (1, (1,))]
    totals = np.zeros((len(specs), len(taus)))
    # Per grid time: the scaled eigenvectors, both halves of L and one
    # product with a rest, per sector, within three quarters of
    # ``CHUNK_BYTES``; snapshots are taken in groups whose joint states and
    # their parts fit the last quarter.
    per_tau = 4 * sum(len(order) ** 2 for order in orders) * _COMPLEX_BYTES
    for chunk in _tau_chunks(len(taus), per_tau * 4 // 3):
        count = chunk.stop - chunk.start
        # blocks[p][a]: L_a on the rest sector r with r + a = p
        blocks = []
        for p, (rows, vh) in enumerate(zip(vecs_rows, vecs_h)):
            phases = np.exp(-1j * np.outer(taus[chunk], model.energies[p]))
            scaled = (rows[None, :, :] * phases[:, None, :]).reshape(-1, len(rows))
            blocks.append(tuple(scaled @ vh[:, half] for half in model.halves(p)))
            del scaled
        # ls[r]: L_0 and L_1 on rest sector r; shaped[r]: their rows split
        # by the sector e of the other qubits and by the kept states
        ls = [(blocks[r][0], blocks[model.step(r)][1]) for r in range(model.count)]
        shaped = [[blk.reshape(count, n_e, k_size, -1) for blk in pair] for pair in ls]
        per_sample = 3 * count * joint_dim**2 * _COMPLEX_BYTES
        group = max(1, CHUNK_BYTES // (4 * per_sample))
        for first in range(0, len(samples), group):
            joints = np.zeros(
                (min(group, len(samples) - first), count, joint_dim, joint_dim), complex
            )
            for i, joint in enumerate(joints, first):
                s = samples[i]
                weight = {(0, 0): s, (1, 1): 1.0 - s, (1, 0): np.sqrt(s * (1.0 - s))}
                for r, rests in enumerate(rest_blocks):
                    for b, heads in pairs:
                        # L_a rest L_b^dag = L_a conj(L_b rest)^T for Hermitian
                        # rest: one conjugated product per half, taken in turn.
                        moved = ls[r][b] @ rests[i]
                        np.conjugate(moved, out=moved)
                        moved_t = moved.reshape(count, n_e, k_size, -1).swapaxes(-1, -2)
                        for a in heads:
                            part = weight[a, b] * (shaped[r][a] @ moved_t)
                            for e in range(n_e):
                                top = rows_of[a][model.step(r, a + e)]
                                left = rows_of[b][model.step(r, b + e)]
                                joint[:, top[:, None], left] += part[:, e]
                if with_ref:
                    lower = joint[:, kept_dim:, :kept_dim]
                    joint[:, :kept_dim, kept_dim:] = lower.conj().swapaxes(-1, -2)
            totals[:, chunk] += _tmi_of_joint(joints, union, specs).sum(axis=1)
        # before the next chunk's are built
        del blocks, ls, shaped, joints, moved, moved_t, part
    return totals
