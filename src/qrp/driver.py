"""Successive-quench drive: washout, training, and testing phases.

Every ``t_in`` an input value is injected on qubits (0, 1) and the chain then
evolves freely; read-out expectations are sampled on a virtual-time grid
``tau_m = m * t_in / n_grid`` inside each training/testing interval.

The loop never materializes the full (N+1)-qubit register.  Because qubit 0
is detached from the dynamics, the running state is carried as the pair
``(s_k, rho_rest)``: the last injected value plus the reduced state of qubits
2..N, of dimension h = 2**(N-1).  With K_jl = <j| exp(-i H t_in) |l>_1 the
four h x h blocks of the interval propagator on qubit 1, one interval is

    rest' = s (K00 rest K00^dag + K10 rest K10^dag)
            + (1 - s) (K01 rest K01^dag + K11 rest K11^dag).

Every read-out at every grid time is a fixed linear functional of
``rest``, so the loop only stores each recorded ``rest``, packed as h**2
real numbers (``states.pack_hermitian``), in chunks of at most
``CHUNK_BYTES``.  ``_Readout`` evaluates a chunk in whichever of two orders
its operation counts favour: against packed Heisenberg blocks of the
operators, one real GEMM per grid time, or interval by interval in the
Hamiltonian eigenbasis, where evolution to a grid time is a diagonal phase.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .hamiltonian import SpectralModel, chain_propagator
from .pauli import PauliString, as_pauli_string, minus_eigenspace
from .states import pack_hermitian, unpack_hermitian

# Stored rests per read-out chunk, in bytes.  A chunk rebuilds the Heisenberg
# blocks, so at this size the recorded intervals of a short drive at N = 8
# (200 intervals, 25 MiB) fit one chunk.
CHUNK_BYTES = 32 * 2**20
TRACE_DRIFT_TOL = 1e-6
HERMITICITY_TOL = 1e-6


class DriveError(RuntimeError):
    """Raised when the running state violates its invariants."""


@dataclass(frozen=True)
class DriveConfig:
    """Timing and bookkeeping of the drive."""

    t_in: float = 5.0
    n_grid: int = 50
    n_washout: int = 1000
    n_train: int = 2000
    n_test: int = 2000
    seed: int = 42
    tmi_cap: int = 200  # per-step snapshots retained for entropy diagnostics

    def __post_init__(self):
        if not self.t_in > 0:
            raise ValueError(f"t_in must be positive, got {self.t_in}")
        if self.n_grid < 1:
            raise ValueError(f"n_grid must be >= 1, got {self.n_grid}")
        if self.n_train < 2 or self.n_test < 2:
            raise ValueError("training and testing phases need at least 2 steps")
        if self.n_washout < 0 or self.tmi_cap < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def n_total(self) -> int:
        return self.n_washout + self.n_train + self.n_test

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_grid) * (self.t_in / self.n_grid)


@dataclass(frozen=True)
class InputSequence:
    """Uniform [0, 1] input values and the seed that produced them."""

    values: np.ndarray
    seed: int

    def __len__(self) -> int:
        return len(self.values)

    def digest(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.values).tobytes()).hexdigest()


def generate_inputs(seed: int, count: int) -> InputSequence:
    """Deterministic uniform inputs from NumPy's PCG64 stream.

    The realized sequence is persisted in the run manifest, so any other
    implementation can replay a run without reproducing the generator.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return InputSequence(values=rng.random(count), seed=seed)


@dataclass
class ReadoutRecord:
    """Per-operator expectation values over the recorded (k, tau) lattice."""

    operators: list[str]
    grid: np.ndarray
    values: np.ndarray  # (n_operators, n_train + n_test, n_grid), real
    n_train: int
    n_test: int
    first_step: int  # absolute index k of the first recorded interval
    inputs: InputSequence

    def index_of(self, operator: str) -> int:
        try:
            return self.operators.index(operator)
        except ValueError:
            raise KeyError(f"unknown read-out operator {operator!r}") from None

    def train_values(self, operator: str) -> np.ndarray:
        return self.values[self.index_of(operator), : self.n_train]

    def test_values(self, operator: str) -> np.ndarray:
        return self.values[self.index_of(operator), self.n_train :]


@dataclass
class StateEnsemble:
    """Mean test state on the chain plus capped per-step snapshots.

    ``chain_mean`` is the post-injection test state averaged over the testing
    intervals with qubit 0 traced out; it is all that correlators and OTOCs
    need.  Snapshots are stored at virtual time zero as ``(s_k, rho_rest)``
    pairs, from which entropy diagnostics rebuild any reduced state exactly.
    They stay complex: entropy diagnostics use each one once per chunk of
    grid times, and unpacking a packed copy every time made them 20-25%
    slower at N = 8 and 9.  The health figures are the running state's
    largest trace drift and Hermiticity residue over the whole drive.
    """

    chain_mean: np.ndarray  # (2**N, 2**N)
    sample_inputs: np.ndarray
    sample_rest: np.ndarray  # (n_samples, 2**(N-1), 2**(N-1))
    max_trace_drift: float = 0.0
    max_hermiticity_residue: float = 0.0

    @property
    def n_samples(self) -> int:
        return len(self.sample_inputs)


def split_qubit0(p: PauliString, n_chain: int) -> tuple[str, PauliString]:
    """Split a full-register operator into (qubit-0 axis, chain part)."""
    if p.terms and max(p.sites) > n_chain:
        raise ValueError(
            f"operator {p.label()!r} uses site {max(p.sites)} outside the "
            f"register (qubits 0..{n_chain})"
        )
    axis0 = p.axis_at(0) or "i"
    chain = PauliString(tuple((site - 1, axis) for site, axis in p.terms if site >= 1))
    return axis0, chain


def _heisenberg_is_cheaper(rows: int, dim: int, axes: list[str], n_grid: int) -> bool:
    """Whether the Heisenberg order reads ``rows`` stored rests out with
    fewer real multiply-adds than the eigenbasis order.

    Heisenberg: U(tau) per grid time (dim**3 complex), an h x h x h product
    per block and grid time, then h**2 real per block, grid time and row.
    Eigenbasis: per row, the weighted states in the eigenbasis (dim**3 / 4
    plus dim**3 for axes i/z and dim**3 / 2 for x/y), then dim**2 complex
    per operator and grid time.
    """
    n_blocks = sum(2 if axis in "iz" else 1 for axis in axes)
    heisenberg = 4 * n_grid * dim**3 * (1 + n_blocks / 8)
    heisenberg += rows * n_grid * n_blocks * dim**2 / 4
    state = dim**3 / 4
    state += dim**3 if {"i", "z"} & set(axes) else 0
    state += dim**3 / 2 if {"x", "y"} & set(axes) else 0
    eigenbasis = 4 * rows * (state + len(axes) * n_grid * dim**2)
    return heisenberg < eigenbasis


class _Readout:
    """Every read-out on the grid for chunks of stored ``(s, rest)`` pairs.

    A read-out sigma^a_0 (x) O with O on the chain has, in the post-injection
    state, the expectation Tr[W_a(s, rest) O(tau)], where qubit 0 has been
    contracted out analytically.  With X the blocks of O(tau) on qubit 1:

        a = i:  s Tr[rest X00] + (1 - s) Tr[rest X11]
        a = z:  s Tr[rest X00] - (1 - s) Tr[rest X11]
        a = x:  c Tr[rest (X01 + X01^dag)]
        a = y:  c Tr[rest i (X01^dag - X01)],     c = sqrt(s (1 - s)).

    The Heisenberg order writes O = I - 2 B B^dag with B a basis of the -1
    eigenspace of O (``pauli.minus_eigenspace``) and D = B^dag U(tau), an
    h x 2h matrix with column halves D_0, D_1.  As U(tau) is unitary,
    X_ab = delta_ab I - 2 D_a^dag D_b: the identity part contributes
    Tr[rest], and only the h x h x h products G_ab = D_a^dag D_b are packed.
    """

    def __init__(self, model: SpectralModel, split: list[tuple[str, PauliString]], grid):
        self.model = model
        self.grid = grid
        self.axes = [axis0 for axis0, _ in split]
        self.spaces = [minus_eigenspace(chain, model.n) for _, chain in split]
        self.ops_eig_t: list[np.ndarray] | None = None
        # Column j of the per-row weights goes with block j; ``starts`` marks
        # the first block of each operator.
        self.kinds = []
        for axis0 in self.axes:
            self.kinds += [axis0 + "0", axis0 + "1"] if axis0 in "iz" else [axis0]
        self.starts = np.cumsum([0] + [2 if a in "iz" else 1 for a in self.axes])[:-1]

    def __call__(self, packed: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Values (n_operators, rows, n_grid) for packed rests and inputs."""
        if _heisenberg_is_cheaper(len(s), self.model.dim, self.axes, len(self.grid)):
            return self._heisenberg(packed, s)
        return self._eigenbasis(packed, s)

    def _block_weights(self, s: np.ndarray) -> np.ndarray:
        """Per-row weights of the packed G blocks: those of the X blocks
        above, times the -2 of X_ab = delta_ab I - 2 G_ab."""
        c = -2.0 * np.sqrt(s * (1.0 - s))
        columns = {"i0": -2.0 * s, "i1": 2.0 * s - 2.0, "z0": -2.0 * s,
                   "z1": 2.0 - 2.0 * s, "x": c, "y": c}
        return np.stack([columns[kind] for kind in self.kinds], axis=1)

    def _heisenberg(self, packed: np.ndarray, s: np.ndarray) -> np.ndarray:
        model = self.model
        h = model.dim // 2
        vecs = model.eigenvectors
        vecs_h = vecs.conj().T
        weights = self._block_weights(s)
        # Tr[rest] times the identity parts: s + (1 - s) for axis i,
        # s - (1 - s) for z, none for x and y.
        traces = packed[:, :h].sum(axis=1)
        parts = {"i": traces, "z": (2.0 * s - 1.0) * traces, "x": 0.0 * s, "y": 0.0 * s}
        identity = np.stack([parts[axis0] for axis0 in self.axes], axis=1)
        out = np.empty((len(self.axes), len(s), len(self.grid)))
        blocks = np.empty((len(self.kinds), h, h), dtype=complex)
        heis = np.empty((len(self.kinds), h * h))
        minus = np.empty((2, h, model.dim), dtype=complex)
        for m, tau in enumerate(self.grid):
            u = (vecs * np.exp(-1j * model.eigenvalues * tau)) @ vecs_h
            j = 0
            for axis0, space in zip(self.axes, self.spaces):
                d = minus_rows(u, space, minus)
                # conj(D) goes where the partner rows were
                d_bar = np.conjugate(d, out=minus[1, : len(d)])
                if axis0 in "iz":
                    np.matmul(d_bar[:, :h].T, d[:, :h], out=blocks[j])
                    np.matmul(d_bar[:, h:].T, d[:, h:], out=blocks[j + 1])
                    j += 2
                    continue
                g01 = np.matmul(d_bar[:, :h].T, d[:, h:], out=blocks[j])
                if axis0 == "x":
                    g01 += g01.conj().T
                else:
                    np.subtract(g01.conj().T, g01, out=g01)
                    g01 *= 1j
                j += 1
            pack_hermitian(blocks, out=heis)
            heis[:, h:] *= 2.0
            values = np.add.reduceat((packed @ heis.T) * weights, self.starts, axis=1)
            out[:, :, m] = (values + identity).T
        return out

    def _eigenbasis(self, packed: np.ndarray, s: np.ndarray) -> np.ndarray:
        model = self.model
        h = model.dim // 2
        vecs = model.eigenvectors
        v0, v1 = vecs[:h], vecs[h:]
        v0_h, v1_h = v0.conj().T, v1.conj().T
        if self.ops_eig_t is None:
            # V^dag O V = I - 2 W^dag W with W = B^dag V, transposed so an
            # elementwise product implements Tr[state * op].  Built
            # C-contiguous: with a transposed view of V^dag O V, a row took
            # 59 ms instead of 45 ms at N = 9 (appA read-outs, 2 cores).
            minus = np.empty((2, h, model.dim), dtype=complex)
            self.ops_eig_t = []
            for space in self.spaces:
                w = minus_rows(vecs, space, minus)
                self.ops_eig_t.append(np.eye(model.dim) - 2.0 * (w.T @ w.conj()))
        phases = np.exp(-1j * np.outer(self.grid, model.eigenvalues))  # (n_grid, dim)
        phases_ct = phases.conj().T
        axes = set(self.axes)
        out = np.empty((len(self.axes), len(s), len(self.grid)))
        for row, (s_k, packed_row) in enumerate(zip(s, packed)):
            rest = unpack_hermitian(packed_row)
            moved0, moved1 = rest @ v0, rest @ v1
            weighted = {}
            if axes & {"i", "z"}:
                p00, p11 = s_k * (v0_h @ moved0), (1.0 - s_k) * (v1_h @ moved1)
                weighted.update(i=p00 + p11, z=p00 - p11)
            if axes & {"x", "y"}:
                p01 = np.sqrt(s_k * (1.0 - s_k)) * (v0_h @ moved1)
                weighted.update(x=p01 + p01.conj().T, y=1j * (p01 - p01.conj().T))
            for o, (axis0, op_t) in enumerate(zip(self.axes, self.ops_eig_t)):
                # value[m] = sum_ab W[a,b] op[b,a] e^{-i(E_a - E_b) tau_m}
                tmp = (weighted[axis0] * op_t) @ phases_ct  # (dim, n_grid)
                out[o, row] = np.einsum("ma,am->m", phases, tmp).real
        return out


def minus_rows(u: np.ndarray, space, out: np.ndarray) -> np.ndarray:
    """D = B^dag u for ``space = pauli.minus_eigenspace(...)``.

    ``out`` holds two h x 2h buffers: D is written into the first rows of
    ``out[0]`` (one row per basis vector of B), and ``out[1]`` holds the
    partner rows of a non-diagonal string.
    """
    rows, partners, phases = space
    d, moved = out[0, : len(rows)], out[1, : len(rows)]
    np.take(u, rows, axis=0, out=d, mode="clip")
    if partners is not None:
        np.take(u, partners, axis=0, out=moved, mode="clip")
        moved *= phases[:, None]
        d -= moved
        d *= np.sqrt(0.5)
    return d


def _state_health(
    rest: np.ndarray, k: int, config: DriveConfig, scratch: np.ndarray | None = None
) -> tuple[float, float]:
    """Trace drift and Hermiticity residue of the running state at interval
    ``k``; raises ``DriveError`` naming the interval, its phase and the
    quantity when either exceeds its tolerance or is not finite.

    ``scratch``, at least 3 h**2 contiguous float64 entries for an h x h
    ``rest``, holds the residue's intermediates; it is allocated when not
    given.
    """
    h = len(rest)
    if scratch is None:
        scratch = np.empty(3 * h * h)
    skew = scratch[: 2 * h * h].view(complex).reshape(h, h)
    size = scratch[2 * h * h : 3 * h * h].reshape(h, h)
    np.conjugate(rest.T, out=skew)
    np.subtract(rest, skew, out=skew)
    np.abs(skew, out=size)
    drift = abs(float(np.trace(rest).real) - 1.0)
    herm = float(size.max())
    for name, value, tol in (
        ("trace drift", drift, TRACE_DRIFT_TOL),
        ("Hermiticity residue", herm, HERMITICITY_TOL),
    ):
        if not value <= tol:
            if k < config.n_washout:
                phase = "washout"
            else:
                phase = "train" if k < config.n_washout + config.n_train else "test"
            raise DriveError(
                f"running state broke at interval {k} ({phase}): "
                f"{name} {value:.3e} exceeds {tol:.0e}"
            )
    return drift, herm


def run_drive(
    config: DriveConfig,
    model: SpectralModel,
    readouts: list[PauliString | str],
    inputs: InputSequence,
) -> tuple[ReadoutRecord, StateEnsemble]:
    """Run the full drive and record every read-out on the virtual-time grid.

    Every interval advances ``rest`` through the Kraus blocks of the interval
    propagator; training/testing intervals also store ``rest``, and each full
    chunk of stored rests is read out on the whole grid at once.  The
    running state's trace and Hermiticity are checked every interval.
    """
    if len(inputs) != config.n_total:
        raise ValueError(
            f"input sequence length {len(inputs)} does not match the "
            f"configured {config.n_total} intervals"
        )
    s_values = np.asarray(inputs.values, dtype=float)
    if not np.all((s_values >= 0.0) & (s_values <= 1.0)):
        raise ValueError("input values must lie in [0, 1]")

    parsed = [as_pauli_string(op) for op in readouts]
    labels = [p.label() for p in parsed]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate read-out operators in {labels}")
    readout = _Readout(model, [split_qubit0(p, model.n) for p in parsed], config.grid)

    h = model.dim // 2
    u_in = chain_propagator(model, config.t_in)
    # Rows: K00, K10 (qubit 1 was |0>, weight s), then K01, K11 (weight 1 - s).
    kraus = np.concatenate([u_in[:, :h], u_in[:, h:]])
    del u_in
    kraus_h = kraus.reshape(4, h, h).conj().transpose(0, 2, 1).reshape(4 * h, h)
    g = model.eigenvectors[:, 0]
    rest = np.outer(g[:h], g[:h].conj()) + np.outer(g[h:], g[h:].conj())
    # Buffers of one step, reused: the blocks K_j rest, the same side by
    # side, and the next rest.  Until the Kraus products fill it, ``moved``
    # holds the health check's intermediates.
    moved = np.empty((4 * h, h), dtype=complex)
    side = np.empty((h, 4 * h), dtype=complex)
    spare = np.empty_like(rest)
    scratch = moved.reshape(-1).view(np.float64)

    n_rows = config.n_train + config.n_test
    record_values = np.zeros((len(parsed), n_rows, config.n_grid))
    # Without read-outs a chunk is never read, so one row suffices.
    chunk_rows = min(n_rows, CHUNK_BYTES // (8 * h * h)) if parsed else 1
    chunk = np.empty((max(1, chunk_rows), h * h))
    n_cap = min(config.tmi_cap, config.n_test)
    sample_rest = np.zeros((n_cap, h, h), dtype=complex)
    # Sums of s_k rest_k and (1 - s_k) rest_k over the testing intervals:
    # the qubit-1 blocks of the summed post-injection chain state.
    mean_packed = np.zeros((2, h * h))
    max_drift = max_herm = 0.0

    for k in range(config.n_total):
        s = float(s_values[k])
        drift, herm = _state_health(rest, k, config, scratch)
        max_drift, max_herm = max(max_drift, drift), max(max_herm, herm)

        row = k - config.n_washout
        if row >= 0:
            slot = row % len(chunk)
            packed = pack_hermitian(rest, out=chunk[slot])
            spot = row - config.n_train
            if spot >= 0:
                mean_packed[0] += s * packed
                mean_packed[1] += (1.0 - s) * packed
                if spot < n_cap:
                    sample_rest[spot] = rest
            if parsed and (slot == len(chunk) - 1 or row == n_rows - 1):
                record_values[:, row - slot : row + 1] = readout(
                    chunk[: slot + 1], s_values[k - slot : k + 1]
                )

        np.matmul(kraus, rest, out=moved)
        moved[: 2 * h] *= s
        moved[2 * h :] *= 1.0 - s
        np.copyto(side.reshape(h, 4, h), moved.reshape(4, h, h).transpose(1, 0, 2))
        rest, spare = np.matmul(side, kraus_h, out=spare), rest

    blocks = unpack_hermitian(mean_packed) / config.n_test
    chain_mean = np.zeros((model.dim, model.dim), dtype=complex)
    chain_mean[:h, :h] = blocks[0]
    chain_mean[h:, h:] = blocks[1]

    record = ReadoutRecord(
        operators=labels,
        grid=config.grid,
        values=record_values,
        n_train=config.n_train,
        n_test=config.n_test,
        first_step=config.n_washout,
        inputs=inputs,
    )
    ensemble = StateEnsemble(
        chain_mean=chain_mean,
        sample_inputs=s_values[config.n_washout + config.n_train :][:n_cap].copy(),
        sample_rest=sample_rest,
        max_trace_drift=max_drift,
        max_hermiticity_residue=max_herm,
    )
    return record, ensemble
