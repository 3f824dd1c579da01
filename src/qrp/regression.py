"""Linear read-out training and scoring for the delayed-estimation task.

For one read-out operator, one grid time tau, and one delay d, a two-parameter
model ``y = w_o * <O> + w_c`` is fitted on the training intervals against the
d-step-delayed input and scored on the testing intervals with the squared
correlation between prediction and target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import InputSequence, ReadoutRecord

VAR_FLOOR = 1e-14
SVD_RCOND = 1e-12


def train_weights(x_train: np.ndarray, y_train: np.ndarray) -> tuple[float, float]:
    """Minimum-norm least-squares fit of ``y = w_o * x + w_c``.

    Solved by SVD with singular values below ``SVD_RCOND`` times the largest
    treated as zero, so rank-deficient designs (constant read-outs) return the
    minimum-norm solution instead of blowing up.
    """
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    if x_train.shape != y_train.shape or x_train.ndim != 1:
        raise ValueError(
            f"x and y must be 1D of equal length, got {x_train.shape} and {y_train.shape}"
        )
    if len(x_train) < 2:
        raise ValueError("need at least 2 training samples")
    design = np.column_stack([x_train, np.ones_like(x_train)])
    solution, _, _, _ = np.linalg.lstsq(design, y_train, rcond=SVD_RCOND)
    return float(solution[0]), float(solution[1])


def r2_score(y_pred: np.ndarray, y_target: np.ndarray) -> float:
    """Squared correlation cov^2 / (var * var) with population (1/n) moments.

    Returns 0 when either sequence is (numerically) constant: a constant
    output carries no information about the target.  Rounding that lifts an
    exactly affine pair above 1 is clamped to 1.
    """
    y_pred = np.asarray(y_pred, dtype=float)
    y_target = np.asarray(y_target, dtype=float)
    if y_pred.shape != y_target.shape or y_pred.ndim != 1:
        raise ValueError(
            f"length mismatch: {y_pred.shape} vs {y_target.shape}"
        )
    if len(y_pred) < 2:
        raise ValueError("need at least 2 samples")
    dp = y_pred - y_pred.mean()
    dt = y_target - y_target.mean()
    var_p = float(np.mean(dp * dp))
    var_t = float(np.mean(dt * dt))
    if var_p < VAR_FLOOR or var_t < VAR_FLOOR:
        return 0.0
    cov = float(np.mean(dp * dt))
    return min(cov * cov / (var_p * var_t), 1.0)


@dataclass
class PerformanceCurve:
    """Estimation performance of one read-out at one delay over the grid."""

    operator: str
    delay: int
    taus: np.ndarray
    r2: np.ndarray
    w_o: np.ndarray
    w_c: np.ndarray


def stm_curve(
    record: ReadoutRecord,
    operator: str,
    delay: int,
    inputs: InputSequence | None = None,
) -> PerformanceCurve:
    """Train per grid time on the training rows, score on the testing rows.

    Targets are the inputs ``delay`` intervals earlier; rows whose delayed
    index falls before the recorded range draw from the washout portion of
    the persisted sequence.
    """
    if inputs is None:
        inputs = record.inputs
    if delay < 0:
        raise ValueError(f"delay must be >= 0, got {delay}")
    if delay > record.first_step:
        raise ValueError(
            f"delay {delay} reaches before the input sequence "
            f"(washout has {record.first_step} steps)"
        )
    x_train = record.train_values(operator)
    x_test = record.test_values(operator)
    s = np.asarray(inputs.values, dtype=float)

    k_train = record.first_step + np.arange(record.n_train)
    k_test = record.first_step + record.n_train + np.arange(record.n_test)
    y_train = s[k_train - delay]
    y_test = s[k_test - delay]

    n_grid = len(record.grid)
    r2 = np.zeros(n_grid)
    w_o = np.zeros(n_grid)
    w_c = np.zeros(n_grid)
    for m in range(n_grid):
        w_o[m], w_c[m] = train_weights(x_train[:, m], y_train)
        y_pred = w_o[m] * x_test[:, m] + w_c[m]
        r2[m] = r2_score(y_pred, y_test)
    return PerformanceCurve(
        operator=operator,
        delay=delay,
        taus=record.grid.copy(),
        r2=r2,
        w_o=w_o,
        w_c=w_c,
    )


@dataclass
class DeviationBins:
    """Windowed statistics behind the data-deviation criterion.

    Window m collects samples with |correlation| in [m/M, (m+1)/M); samples
    at exactly 1 go to the last window.
    """

    n_windows: int
    counts: np.ndarray
    means: np.ndarray  # NaN where the window is empty
    sq_dev: np.ndarray

    @property
    def total(self) -> float:
        return float(self.sq_dev.sum())


def data_deviation(
    correlations: np.ndarray,
    r2_values: np.ndarray,
    n_windows: int = 4000,
) -> tuple[float, DeviationBins]:
    """Total squared deviation of r2 from its per-window mean.

    Quantifies how far the (|correlation|, r2) samples are from a one-to-one
    correspondence: 0 means r2 is a function of |correlation| alone at the
    window resolution.
    """
    correlations = np.asarray(correlations, dtype=float).ravel()
    r2_values = np.asarray(r2_values, dtype=float).ravel()
    if correlations.shape != r2_values.shape:
        raise ValueError("correlations and r2 values must have equal lengths")
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if correlations.size and (correlations.min() < 0 or correlations.max() > 1):
        raise ValueError("correlation moduli must lie in [0, 1]")

    idx = np.minimum((correlations * n_windows).astype(int), n_windows - 1)
    counts = np.bincount(idx, minlength=n_windows).astype(int)
    sums = np.bincount(idx, weights=r2_values, minlength=n_windows)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    dev = r2_values - means[idx]
    sq_dev = np.bincount(idx, weights=dev * dev, minlength=n_windows)
    bins = DeviationBins(
        n_windows=n_windows, counts=counts, means=means, sq_dev=sq_dev
    )
    return bins.total, bins
