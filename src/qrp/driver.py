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

``rest`` is carried as its blocks on the rest sectors of qubits 2..N, which
follow the Hamiltonian's sector blocks (``SpectralModel``).
Where H conserves the chain parity there are two, the parity classes of
qubits 2..N: K00 and K11 keep that parity and K01 and K10 flip it, so the
Kraus blocks map each sector to one sector and ``rest`` stays block-diagonal.
Otherwise one sector holds everything.  Either way one loop runs.

Every read-out at every grid time is a fixed linear functional of
``rest``, so the loop only stores each recorded ``rest``, sector-packed as
each block's ``states.pack_hermitian`` numbers, concatenated, in chunks of
at most ``CHUNK_BYTES``.  ``_Readout`` evaluates a chunk in whichever of two
orders its operation counts favour: against packed Heisenberg blocks of the
operators, one real GEMM per grid time, or interval by interval in the
Hamiltonian eigenbasis, where evolution to a grid time is a diagonal phase.
Both work per sector: no path here builds a 2**N x 2**N matrix from the
blocks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .hamiltonian import SpectralModel
from .pauli import PauliString, as_pauli_string, minus_eigenspace, minus_rows
from .states import pack_hermitian

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
        lows = {"n_grid": 1, "n_washout": 0, "n_train": 2, "n_test": 2, "tmi_cap": 0}
        for name, low in lows.items():
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")

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

    Both are sector-packed like every stored rest (``SpectralModel.pack``).
    ``mean_packed`` holds the test means of s_k rest_k and (1 - s_k) rest_k:
    the qubit-1 blocks of the mean chain state (the off-diagonal ones
    vanish), and all that correlators (read-out rows s = 1 and s = 0) and
    OTOCs need.  Snapshots are the rests of the first testing
    intervals, at virtual time zero, next to their inputs, from which
    entropy diagnostics rebuild any reduced state exactly.  The health
    figures are the running state's largest trace drift and Hermiticity
    residue over the whole drive.
    """

    mean_packed: np.ndarray  # (2, packed length), real
    sample_inputs: np.ndarray
    sample_packed: np.ndarray  # (n_samples, packed length), real
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


def _sector_spaces(chain: PauliString, model: SpectralModel) -> list:
    """``minus_eigenspace`` rows of a chain string, per chain sector, in the
    sector's own basis, so that ``minus_rows(u_q, spaces[q], ...)`` gives the
    rows of D = B^dag U that a propagator block u_q feeds.

    A string that keeps the sector has basis vectors inside one sector each.
    One that moves it pairs a state of each sector in every basis vector, so
    every sector sees every vector, as one row scaled by its coefficient;
    the rows of all sectors stay aligned.
    """
    rows, partners, phases = minus_eigenspace(chain, model.n)
    local, sector = model.local, model.sector_of(rows)
    spaces = []
    for q in range(model.count):
        mine = sector == q
        if model.shift(chain):
            coef = np.where(mine, 1.0, -phases) * np.sqrt(0.5)
            spaces.append((np.where(mine, local[rows], local[partners]), None, coef))
        elif partners is None:
            spaces.append((local[rows[mine]], None, None))
        else:
            spaces.append((local[rows[mine]], local[partners[mine]], phases[mine]))
    return spaces


def _minus_blocks(
    model: SpectralModel, chain: PauliString
) -> tuple[int, list[np.ndarray]]:
    """D = B^dag V for a chain Pauli string O, B a basis of its -1
    eigenspace (``pauli.minus_eigenspace``) and V the eigenvectors, as the
    shift of O (``SpectralModel.shift``) and, per sector q, D_q = B^dag V_q,
    the row gather of half the size that sector q feeds (``_sector_spaces``).
    """
    spaces = _sector_spaces(chain, model)
    return model.shift(chain), [
        minus_rows(vecs, space, np.empty((2, len(space[0]), len(vecs)), complex))
        for vecs, space in zip(model.vectors, spaces)
    ]


def _eigenbasis_blocks(
    model: SpectralModel, chain: PauliString
) -> tuple[int, list[np.ndarray]]:
    """V^dag O V for a chain Pauli string O, V the eigenvectors, as the
    shift of O (``SpectralModel.shift``) and, per sector q, its block from
    sector q to sector q + shift in the sectors' own eigenbases.

    O = I - 2 B B^dag, so the block is delta I - 2 D_(q+shift)^dag D_q
    (``_minus_blocks``).  Every block is Hermitian where the shift is 0.
    """
    shift, d = _minus_blocks(model, chain)
    blocks = []
    for q, d_q in enumerate(d):
        op = d[model.step(q, shift)].conj().T @ d_q
        op *= -2.0
        if not shift:
            op.flat[:: len(op) + 1] += 1.0
        blocks.append(op)
    return shift, blocks


def _eigenbasis_states(model: SpectralModel, rows, axes):
    """Per row (s, rest blocks), the weighted states W_a(s, rest) of
    ``_Readout`` for the qubit-0 axes a in ``axes``, in the eigenbasis: per
    chain sector c, the block from c to c + 1 for x and y, and that of c for
    i and z.  They are built from P00_c = V_c0^dag rest_c V_c0, P11_c =
    V_c1^dag rest_(c+1) V_c1 and P01_c = V_(c+1)0^dag rest_(c+1) V_c1, with
    V_c0 and V_c1 the rows of chain sector c where qubit 1 is 0 and 1.  Only
    the halves of nonzero weight are rotated: a test-mean row has s = 1 or 0.
    """
    halves = []  # per chain sector: V_c0, V_c0^dag, V_c1, V_c1^dag
    for c, vecs in enumerate(model.vectors):
        low, high = model.halves(c)
        halves.append((vecs[low], vecs[low].conj().T, vecs[high], vecs[high].conj().T))
    zeros = [0.0] * model.count
    for s, rest in rows:
        moved = None  # rest_(c+1) V_c1 per chain sector c
        if s < 1.0:
            moved = [rest[model.step(c)] @ v[2] for c, v in enumerate(halves)]
        weighted = dict(x=zeros, y=zeros)
        if set(axes) & {"i", "z"}:
            p00 = p11 = zeros
            if s > 0.0:
                p00 = [s * (v[1] @ (r @ v[0])) for r, v in zip(rest, halves)]
            if s < 1.0:
                p11 = [(1.0 - s) * (v[3] @ m) for v, m in zip(halves, moved)]
            if "i" in axes:
                weighted["i"] = [a + b for a, b in zip(p00, p11)]
            if "z" in axes:
                weighted["z"] = [a - b for a, b in zip(p00, p11)]
        if set(axes) & {"x", "y"} and 0.0 < s < 1.0:
            c_s = np.sqrt(s * (1.0 - s))
            p01 = [c_s * (halves[model.step(c)][1] @ m) for c, m in enumerate(moved)]
            back = [p01[model.step(c)].conj().T for c in range(model.count)]
            weighted["x"] = [a + b for a, b in zip(p01, back)]
            weighted["y"] = [1j * (a - b) for a, b in zip(p01, back)]
        yield weighted


def _heisenberg_is_cheaper(
    rows: int, sizes: list[int], axes: list[str], n_grid: int
) -> bool:
    """Whether the Heisenberg order reads ``rows`` stored rests out with
    fewer real multiply-adds than the eigenbasis order, for chain sectors of
    ``sizes`` (d) basis states.

    Heisenberg: U(tau) per sector and grid time (d**3 complex), products of
    (d / 2)**3 per block, sector and grid time, then the packed length
    (the sum of (d / 2)**2) per block, grid time and row.  Eigenbasis: per
    row and sector, the weighted states in the eigenbasis (d**3 / 4 plus
    d**3 for axes i/z and d**3 / 2 for x/y), then d**2 complex per
    operator, sector and grid time.
    """
    cubes = sum(d**3 for d in sizes)
    squares = sum(d**2 for d in sizes)
    n_blocks = sum(2 if axis in "iz" else 1 for axis in axes)
    heisenberg = 4 * n_grid * cubes * (1 + n_blocks / 8)
    heisenberg += rows * n_grid * n_blocks * squares / 4
    state = cubes / 4
    state += cubes if {"i", "z"} & set(axes) else 0
    state += cubes / 2 if {"x", "y"} & set(axes) else 0
    eigenbasis = 4 * rows * (state + len(axes) * n_grid * squares)
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

    ``rest`` is block-diagonal on the rest sectors (``SpectralModel``), so
    only the sector-diagonal parts of the X blocks count.  With two sectors,
    X00 and X11 of a parity-odd O and X01 of a parity-even one have none:
    those read-outs are exactly 0 and are not evaluated.

    The Heisenberg order writes O = I - 2 B B^dag with B a basis of the -1
    eigenspace of O (``pauli.minus_eigenspace``) and D = B^dag U(tau), an
    h x 2h matrix with column halves D_0, D_1.  As U(tau) is unitary,
    X_ab = delta_ab I - 2 D_a^dag D_b: the identity part contributes
    Tr[rest], and only the products G_ab = D_a^dag D_b are packed.  U(tau)
    is built per chain sector, and so is D (``_sector_spaces``): the columns
    of chain sector q where qubit 1 is 0 meet rest sector q, and those where
    it is 1 rest sector q + 1.  The eigenbasis order traces each row's
    weighted states (``_eigenbasis_states``) against the operators' blocks
    (``_eigenbasis_blocks``), sector by sector.
    """

    def __init__(
        self, model: SpectralModel, split: list[tuple[str, PauliString]], grid
    ):
        self.model = model
        self.grid = grid
        # X00 and X11 keep the sector, X01 moves it by one; the operators
        # evaluated are those that a block-diagonal rest can see.
        self.n_operators = len(split)
        self.kept = [
            o
            for o, (axis0, chain) in enumerate(split)
            if model.step(model.shift(chain), axis0 in "xy") == 0
        ]
        self.axes = [split[o][0] for o in self.kept]
        self.chains = [split[o][1] for o in self.kept]
        self.spaces = [_sector_spaces(chain, model) for chain in self.chains]
        self.ops_eig_t: list[tuple[int, list[np.ndarray]]] | None = None
        # Column j of the per-row weights goes with block j; ``starts`` marks
        # the first block of each operator.
        self.kinds = []
        for axis0 in self.axes:
            self.kinds += [axis0 + "0", axis0 + "1"] if axis0 in "iz" else [axis0]
        self.starts = np.cumsum([0] + [2 if a in "iz" else 1 for a in self.axes])[:-1]
        # Where each sector's diagonal sits in a packed row, and the factor
        # that makes a dot product a trace.
        self.diagonals = [
            slice(segment.start, segment.start + len(rows))
            for segment, rows in zip(model.segments, model.rests)
        ]
        self.scale = np.full(model.offsets[-1], 2.0)
        for diagonal in self.diagonals:
            self.scale[diagonal] = 1.0

    def __call__(self, packed: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Values (n_operators, rows, n_grid) for packed rests and inputs."""
        out = np.zeros((self.n_operators, len(s), len(self.grid)))
        if not self.axes:
            return out
        sizes = [len(rows) for rows in self.model.rows]
        if _heisenberg_is_cheaper(len(s), sizes, self.axes, len(self.grid)):
            self._heisenberg(packed, s, out)
        else:
            self._eigenbasis(packed, s, out)
        return out

    def _block_weights(self, s: np.ndarray) -> np.ndarray:
        """Per-row weights of the packed G blocks: those of the X blocks
        above, times the -2 of X_ab = delta_ab I - 2 G_ab."""
        c = -2.0 * np.sqrt(s * (1.0 - s))
        columns = {"i0": -2.0 * s, "i1": 2.0 * s - 2.0, "z0": -2.0 * s,
                   "z1": 2.0 - 2.0 * s, "x": c, "y": c}
        return np.stack([columns[kind] for kind in self.kinds], axis=1)

    def _heisenberg(self, packed: np.ndarray, s: np.ndarray, out: np.ndarray):
        model = self.model
        weights = self._block_weights(s)
        # Tr[rest] times the identity parts: s + (1 - s) for axis i,
        # s - (1 - s) for z, none for x and y.
        traces = sum(packed[:, diagonal].sum(axis=1) for diagonal in self.diagonals)
        parts = {"i": traces, "z": (2.0 * s - 1.0) * traces, "x": 0.0 * s, "y": 0.0 * s}
        identity = np.stack([parts[axis0] for axis0 in self.axes], axis=1)
        n = [len(rows) for rows in model.rests]
        blocks = [np.empty((len(self.kinds), m, m), dtype=complex) for m in n]
        heis = np.empty((len(self.kinds), len(self.scale)))
        minus = [
            np.empty((2, max(len(sp[c][0]) for sp in self.spaces), len(vecs)), complex)
            for c, vecs in enumerate(model.vectors)
        ]
        for m, tau in enumerate(self.grid):
            us = model.propagators(tau)
            j = 0
            for axis0, spaces in zip(self.axes, self.spaces):
                d, d_bar = [], []
                for u, space, buf in zip(us, spaces, minus):
                    d.append(minus_rows(u, space, buf))
                    # conj(D) goes where the partner rows were
                    d_bar.append(np.conjugate(d[-1], out=buf[1, : len(d[-1])]))
                if axis0 in "iz":
                    for c in range(model.count):
                        low, high = model.halves(c)
                        up = blocks[model.step(c)][j + 1]
                        np.matmul(d_bar[c][:, low].T, d[c][:, low], out=blocks[c][j])
                        np.matmul(d_bar[c][:, high].T, d[c][:, high], out=up)
                    j += 2
                    continue
                for a in range(model.count):
                    b = model.step(a)
                    low, high = model.halves(a)[0], model.halves(b)[1]
                    g01 = np.matmul(d_bar[a][:, low].T, d[b][:, high], out=blocks[a][j])
                    if axis0 == "x":
                        g01 += g01.conj().T
                    else:
                        np.subtract(g01.conj().T, g01, out=g01)
                        g01 *= 1j
                j += 1
            for sector_blocks, segment in zip(blocks, model.segments):
                pack_hermitian(sector_blocks, out=heis[:, segment])
            heis *= self.scale
            values = np.add.reduceat((packed @ heis.T) * weights, self.starts, axis=1)
            out[self.kept, :, m] = (values + identity).T

    def _eigenbasis(self, packed: np.ndarray, s: np.ndarray, out: np.ndarray):
        model = self.model
        if self.ops_eig_t is None:
            # Per operator, its shift and the conjugates of its blocks: for
            # Hermitian V^dag O V the transposes of the blocks back, so an
            # elementwise product implements Tr[state * op].  Taken in place
            # they stay C-contiguous; with a transposed view a row took 59 ms
            # instead of 45 ms at N = 9 (appA read-outs, 2 cores).
            self.ops_eig_t = []
            for chain in self.chains:
                shift, blocks = _eigenbasis_blocks(model, chain)
                self.ops_eig_t.append((shift, [np.conj(op, out=op) for op in blocks]))
        phases = [np.exp(-1j * np.outer(self.grid, e)) for e in model.energies]
        phases_ct = [p.conj().T for p in phases]
        rows = zip(s, map(model.unpack, packed))
        for row, weighted in enumerate(_eigenbasis_states(model, rows, self.axes)):
            for o, (axis0, (shift, ops_t)) in enumerate(zip(self.axes, self.ops_eig_t)):
                # value[m] = sum_ab W[a,b] op[b,a] e^{-i(E_a - E_b) tau_m}, per
                # sector c of b (a is in sector c + shift)
                terms = []
                for c, (state, op_t) in enumerate(zip(weighted[axis0], ops_t)):
                    tmp = (state * op_t) @ phases_ct[c]  # (d of a, n_grid)
                    rows_phases = phases[model.step(c, shift)]
                    terms.append(np.einsum("ma,am->m", rows_phases, tmp))
                out[self.kept[o], row] = sum(terms[1:], terms[0]).real


def _state_health(
    rest: list[np.ndarray], k: int, config: DriveConfig, scratch: np.ndarray
) -> tuple[float, float]:
    """Trace drift and Hermiticity residue of the running state, given as its
    sector blocks, at interval ``k``; raises ``DriveError`` naming the
    interval, its phase and the quantity when either exceeds its tolerance
    or is not finite.

    ``scratch``, at least 3 h**2 contiguous float64 entries for the largest
    h x h block, holds the residue's intermediates.
    """
    herm = 0.0
    for block in rest:
        h = len(block)
        skew = scratch[: 2 * h * h].view(complex).reshape(h, h)
        size = scratch[2 * h * h : 3 * h * h].reshape(h, h)
        np.conjugate(block.T, out=skew)
        np.subtract(block, skew, out=skew)
        np.abs(skew, out=size)
        herm = max(herm, float(np.max(size, initial=0.0)))
    drift = abs(sum(float(np.trace(block).real) for block in rest) - 1.0)
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

    # Rest sector a has n[a] states; chain sector a holds it with qubit 1 = 0
    # and sector a + 1 with qubit 1 = 1 (``SpectralModel``), so the first n[a]
    # rows and columns of the chain-sector block u[a] are those where qubit 1
    # is 0.
    n = [len(rows) for rows in model.rests]
    u_in = model.propagators(config.t_in)
    weighted_s = [len(u) for u in u_in]
    # Per source sector a, the rows K00, K10 (qubit 1 was |0>, weight s:
    # the first ``weighted_s[a]``), then K01, K11 (weight 1 - s), landing in
    # sectors a, a+1, a+1, a.
    kraus = []
    for a in range(model.count):
        b = model.step(a)
        low, high = model.halves(a)[0], model.halves(b)[1]
        kraus.append(np.concatenate([u_in[a][:, low], u_in[b][:, high]]))
    del u_in
    # Per target sector t, the four terms K rest K^dag that land there, in
    # the order K00, K10, K01, K11: (source sector, rows of its Kraus stack).
    terms = []
    for t in range(model.count):
        p = model.step(t, -1)
        terms.append([
            (t, slice(0, n[t])),
            (p, slice(n[p], n[p] + n[t])),
            (p, slice(n[p] + n[t], n[p] + 2 * n[t])),
            (t, slice(n[t] + 2 * n[model.step(t)], None)),
        ])
    kraus_h = [
        np.concatenate([kraus[a][rows].conj().T for a, rows in terms[t]])
        for t in range(model.count)
    ]
    # The ground state: column 0 of the sector with the lowest energy (the
    # first on a tie), zero on every other chain state.
    q = int(np.argmin([energies[0] for energies in model.energies]))
    g = np.zeros(model.dim, dtype=complex)
    g[model.rows[q]] = model.vectors[q][:, 0]
    h = model.dim // 2
    rest = [
        np.outer(g[rows], g[rows].conj()) + np.outer(g[h + rows], g[h + rows].conj())
        for rows in model.rests
    ]
    # Buffers of one step, reused: per sector the blocks K_j rest, the
    # terms landing there side by side, and the next rest.  Until the Kraus
    # products fill it, ``moved[0]`` holds the health check's intermediates.
    moved = [np.empty((len(k), n[a]), dtype=complex) for a, k in enumerate(kraus)]
    side = [np.empty((n[t], len(kh)), dtype=complex) for t, kh in enumerate(kraus_h)]
    spare = [np.empty_like(block) for block in rest]
    scratch = moved[0].reshape(-1).view(np.float64)
    width = model.offsets[-1]

    n_rows = config.n_train + config.n_test
    record_values = np.zeros((len(parsed), n_rows, config.n_grid))
    # Without read-outs a chunk is never read, so one row suffices.
    chunk_rows = min(n_rows, CHUNK_BYTES // (8 * width)) if parsed else 1
    chunk = np.empty((max(1, chunk_rows), width))
    n_cap = min(config.tmi_cap, config.n_test)
    sample_packed = np.zeros((n_cap, width))
    # Sums of s_k rest_k and (1 - s_k) rest_k over the testing intervals,
    # averaged once the drive ends.
    mean_packed = np.zeros((2, width))
    max_drift = max_herm = 0.0

    for k in range(config.n_total):
        s = float(s_values[k])
        drift, herm = _state_health(rest, k, config, scratch)
        max_drift, max_herm = max(max_drift, drift), max(max_herm, herm)

        row = k - config.n_washout
        if row >= 0:
            slot = row % len(chunk)
            packed = model.pack(rest, out=chunk[slot])
            spot = row - config.n_train
            if spot >= 0:
                mean_packed[0] += s * packed
                mean_packed[1] += (1.0 - s) * packed
                if spot < n_cap:
                    sample_packed[spot] = packed
            if parsed and (slot == len(chunk) - 1 or row == n_rows - 1):
                record_values[:, row - slot : row + 1] = readout(
                    chunk[: slot + 1], s_values[k - slot : k + 1]
                )

        for a in range(model.count):
            np.matmul(kraus[a], rest[a], out=moved[a])
            moved[a][: weighted_s[a]] *= s
            moved[a][weighted_s[a] :] *= 1.0 - s
        for t in range(model.count):
            column = 0
            for a, rows in terms[t]:
                side[t][:, column : column + n[a]] = moved[a][rows]
                column += n[a]
            np.matmul(side[t], kraus_h[t], out=spare[t])
        rest, spare = spare, rest

    mean_packed /= config.n_test

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
        mean_packed=mean_packed,
        sample_inputs=s_values[config.n_washout + config.n_train :][:n_cap].copy(),
        sample_packed=sample_packed,
        max_trace_drift=max_drift,
        max_hermiticity_residue=max_herm,
    )
    return record, ensemble
