"""Successive-quench drive: washout, training, and testing phases.

Every ``t_in`` an input value is injected on qubits (0, 1) and the chain then
evolves freely; read-out expectations are sampled on a virtual-time grid
``tau_m = m * t_in / n_grid`` inside each training/testing interval.

The loop never materializes the full (N+1)-qubit register.  Because qubit 0
is detached from the dynamics, the running state is carried as the pair
``(s_k, rho_rest)``: the last injected value plus the reduced state of qubits
2..N.  Expectations of an operator ``sigma^a_0 (x) O_chain`` reduce to chain
traces against an a-dependent weighting of ``rho_rest`` (see
``_weighted_chain_state``), and the chain trace itself is evaluated in the
Hamiltonian eigenbasis where evolution to each grid time is a diagonal phase.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .hamiltonian import SpectralModel, chain_propagator
from .pauli import PauliString, as_pauli_string, build_dense

TRACE_DRIFT_TOL = 1e-6


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
    """

    chain_mean: np.ndarray  # (2**N, 2**N)
    sample_inputs: np.ndarray
    sample_rest: np.ndarray  # (n_samples, 2**(N-1), 2**(N-1))
    max_imag_residue: float = 0.0

    @property
    def n_samples(self) -> int:
        return len(self.sample_inputs)


def _trace_out_msb(mat: np.ndarray) -> np.ndarray:
    """Partial trace over the most significant qubit of a register matrix."""
    half = mat.shape[0] // 2
    return mat[:half, :half] + mat[half:, half:]


def _weighted_chain_state(axis0: str, s: float, rest: np.ndarray) -> np.ndarray:
    """Chain matrix whose trace against O_chain(tau) gives the full
    expectation of sigma^axis0_0 (x) O_chain.

    The post-injection register state is |psi_in(s)><psi_in(s)| (x) rest with
    |psi_in> = sqrt(s)|00> + sqrt(1-s)|11>, and qubit 0 never evolves, so
    contracting it out analytically leaves these four chain-level weightings.
    """
    h = rest.shape[0]
    out = np.zeros((2 * h, 2 * h), dtype=complex)
    if axis0 == "i":
        out[:h, :h] = s * rest
        out[h:, h:] = (1.0 - s) * rest
    elif axis0 == "z":
        out[:h, :h] = s * rest
        out[h:, h:] = -(1.0 - s) * rest
    elif axis0 == "x":
        c = np.sqrt(s * (1.0 - s))
        out[:h, h:] = c * rest
        out[h:, :h] = c * rest
    elif axis0 == "y":
        c = 1j * np.sqrt(s * (1.0 - s))
        out[:h, h:] = c * rest
        out[h:, :h] = -c * rest
    else:  # pragma: no cover - guarded by the parser
        raise ValueError(f"unknown qubit-0 axis {axis0!r}")
    return out


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


def run_drive(
    config: DriveConfig,
    model: SpectralModel,
    readouts: list[PauliString | str],
    inputs: InputSequence,
) -> tuple[ReadoutRecord, StateEnsemble]:
    """Run the full drive and record every read-out on the virtual-time grid.

    Washout intervals advance the state with one precomputed full-interval
    unitary and record nothing; training/testing intervals additionally
    evaluate every read-out at each grid point.
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
    split = [split_qubit0(p, model.n) for p in parsed]

    n_chain_dim = model.dim
    vecs = model.eigenvectors
    vecs_h = vecs.conj().T
    energies = model.eigenvalues

    # Heisenberg dynamics enters only through eigenbasis phases on the grid.
    grid = config.grid
    phase_grid = np.exp(-1j * np.outer(grid, energies))  # (n_grid, dim)
    phase_grid_ct = phase_grid.conj().T
    phase_in = np.exp(-1j * energies * config.t_in)
    u_in = chain_propagator(model, config.t_in)

    # Group read-outs by their qubit-0 axis; each group shares one weighted
    # chain state per step.  Chain parts are pre-rotated to the eigenbasis.
    groups: dict[str, list[int]] = {}
    for idx, (axis0, _) in enumerate(split):
        groups.setdefault(axis0, []).append(idx)
    ops_eig: dict[str, np.ndarray] = {}
    for axis0, indices in groups.items():
        dense = [vecs_h @ build_dense(split[i][1], model.n) @ vecs for i in indices]
        # Transposed so a plain elementwise product implements Tr[state * op].
        ops_eig[axis0] = np.array([m.T for m in dense])

    n_rows = config.n_train + config.n_test
    record_values = np.zeros((len(parsed), n_rows, config.n_grid))
    max_imag = 0.0

    half = n_chain_dim // 2
    g = model.eigenvectors[:, 0]
    rest = _trace_out_msb(np.outer(g, g.conj()))

    chain_mean = np.zeros((n_chain_dim, n_chain_dim), dtype=complex)
    n_cap = min(config.tmi_cap, config.n_test)
    sample_inputs = np.zeros(n_cap)
    sample_rest = np.zeros((n_cap, half, half), dtype=complex)

    for k in range(config.n_total):
        s = float(s_values[k])
        sigma = _weighted_chain_state("i", s, rest)

        drift = abs(np.trace(sigma).real - 1.0)
        if drift > TRACE_DRIFT_TOL or not np.isfinite(drift):
            herm = float(np.max(np.abs(sigma - sigma.conj().T)))
            raise DriveError(
                f"state invariant violated at interval {k}: trace drift "
                f"{drift:.3e}, hermiticity residue {herm:.3e}"
            )

        if k < config.n_washout:
            rest = _trace_out_msb(u_in @ sigma @ u_in.conj().T)
            continue

        row = k - config.n_washout
        if row >= config.n_train:
            chain_mean += sigma
            spot = row - config.n_train
            if spot < n_cap:
                sample_inputs[spot] = s
                sample_rest[spot] = rest

        sigma_eig = vecs_h @ sigma @ vecs
        for axis0, indices in groups.items():
            if axis0 == "i":
                weighted = sigma_eig
            else:
                weighted = vecs_h @ _weighted_chain_state(axis0, s, rest) @ vecs
            # value[o, m] = sum_ab weighted[a,b] op[b,a] e^{-i(E_a - E_b) tau_m}
            prod = weighted[None, :, :] * ops_eig[axis0]
            tmp = prod @ phase_grid_ct  # (n_ops, dim, n_grid)
            vals = np.einsum("ma,oam->om", phase_grid, tmp)
            max_imag = max(max_imag, float(np.max(np.abs(vals.imag))))
            record_values[indices, row, :] = vals.real

        evolved_eig = (phase_in[:, None] * sigma_eig) * phase_in.conj()[None, :]
        rest = _trace_out_msb(vecs @ evolved_eig @ vecs_h)

    chain_mean /= config.n_test

    record = ReadoutRecord(
        operators=labels,
        grid=grid,
        values=record_values,
        n_train=config.n_train,
        n_test=config.n_test,
        first_step=config.n_washout,
        inputs=inputs,
    )
    ensemble = StateEnsemble(
        chain_mean=chain_mean,
        sample_inputs=sample_inputs,
        sample_rest=sample_rest,
        max_imag_residue=max_imag,
    )
    return record, ensemble
