"""Simulator and experiment toolkit for operator-resolved information
probing of a driven Ising chain.

A register of N+1 qubits (a detached reference qubit 0 plus chain qubits
1..N) is driven by sequential quench inputs; linear read-outs trained on
single-operator expectations estimate past inputs, and their performance maps
where the injected information resides.  Comparison diagnostics (two-time
correlations, out-of-time-order correlators, tripartite mutual information)
run on the same drive.
"""

from .config import ConfigError, ExperimentConfig, TaskSpec, build_config, parse_config
from .diagnostics import OtocSpec, TmiSpec, correlation_curve, otoc_curve, tmi_curve
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
from .hamiltonian import IsingParams, SpectralModel, spectral_model
from .pauli import OperatorLabelError, PauliString
from .regression import PerformanceCurve, stm_curve
from .version import __version__

# The names the README, the CLI and the benchmark reach as ``qrp.<name>``,
# and the classes of what those calls return or raise.
__all__ = [
    "ConfigError",
    "DriveConfig",
    "DriveError",
    "ExperimentConfig",
    "InputSequence",
    "IsingParams",
    "OperatorLabelError",
    "OtocSpec",
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
    "correlation_curve",
    "generate_inputs",
    "otoc_curve",
    "parse_config",
    "plan_runs",
    "replay_manifest",
    "run_drive",
    "run_experiment",
    "spectral_model",
    "stm_curve",
    "tmi_curve",
]
