"""Simulator and experiment toolkit for operator-resolved information
probing of a driven Ising chain.

A register of N+1 qubits (a detached reference qubit 0 plus chain qubits
1..N) is driven by sequential quench inputs; linear read-outs trained on
single-operator expectations estimate past inputs, and their performance maps
where the injected information resides.  Comparison diagnostics (two-time
correlations, out-of-time-order correlators, tripartite mutual information)
run on the same drive.
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    TaskSpec,
    build_config,
    default_readouts,
    parse_config,
)
from .diagnostics import (
    OtocSpec,
    TmiSpec,
    correlation_curve,
    dynamical_correlation,
    otoc,
    otoc_curve,
    tmi,
    tmi_curve,
)
from .driver import (
    DriveConfig,
    DriveError,
    InputSequence,
    ReadoutRecord,
    StateEnsemble,
    generate_inputs,
    run_drive,
)
from .experiment import (
    PRESET_NAMES,
    RunPlan,
    plan_runs,
    replay_manifest,
    run_experiment,
)
from .hamiltonian import (
    CHAOTIC,
    FREE_FERMION,
    PERTURBED,
    IsingParams,
    SpectralModel,
    build_hamiltonian,
    chain_propagator,
    diagonalize,
    ground_state,
    spectral_model,
)
from .pauli import (
    OperatorLabelError,
    PauliString,
    build_dense,
    parse_operator_label,
)
from .regression import (
    DeviationBins,
    PerformanceCurve,
    data_deviation,
    r2_score,
    stm_curve,
    train_weights,
)
from .states import (
    input_state,
    partial_trace,
    von_neumann_entropy,
)
from .version import __version__

__all__ = [
    "CHAOTIC",
    "ConfigError",
    "DeviationBins",
    "DriveConfig",
    "DriveError",
    "ExperimentConfig",
    "FREE_FERMION",
    "InputSequence",
    "IsingParams",
    "OperatorLabelError",
    "OtocSpec",
    "PERTURBED",
    "PRESET_NAMES",
    "PauliString",
    "PerformanceCurve",
    "ReadoutRecord",
    "RunPlan",
    "SpectralModel",
    "StateEnsemble",
    "TaskSpec",
    "TmiSpec",
    "__version__",
    "build_config",
    "build_dense",
    "build_hamiltonian",
    "chain_propagator",
    "correlation_curve",
    "data_deviation",
    "default_readouts",
    "diagonalize",
    "dynamical_correlation",
    "generate_inputs",
    "ground_state",
    "input_state",
    "otoc",
    "otoc_curve",
    "parse_config",
    "parse_operator_label",
    "partial_trace",
    "plan_runs",
    "r2_score",
    "replay_manifest",
    "run_drive",
    "run_experiment",
    "spectral_model",
    "stm_curve",
    "tmi",
    "tmi_curve",
    "train_weights",
    "von_neumann_entropy",
]
