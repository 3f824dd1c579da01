"""Linear read-out training and scoring for the delayed-estimation task.

For one read-out operator, one grid time tau, and one delay d, a two-parameter
model ``y = w_o * <O> + w_c`` is fitted on the training intervals against the
d-step-delayed input and scored on the testing intervals with the squared
correlation between prediction and target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import ReadoutRecord

VAR_FLOOR = 1e-14
SVD_RCOND = 1e-12


def _sample_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays of samples, each 1-D (n,) or columns (n, G), as contiguous
    rows (n,) or (G, n), so that every sum runs along a contiguous axis as it
    does for a single sequence."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2) or len(a) != len(b):
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.ndim == b.ndim == 2 and a.shape != b.shape:
        raise ValueError(f"column mismatch: {a.shape} vs {b.shape}")
    if len(a) < 2:
        raise ValueError("need at least 2 samples")
    return np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)


def _scalar_or_array(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.ndim == 0 else values


def train_weights(
    x_train: np.ndarray, y_train: np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Minimum-norm least-squares fit of ``y = w_o * x + w_c``.

    Solved by SVD with singular values at or below ``SVD_RCOND`` times the
    largest treated as zero, so rank-deficient designs (constant read-outs)
    return the minimum-norm solution instead of blowing up.  ``x`` and ``y``
    are each 1-D (n,) or columns (n, G); with columns, each is fitted on its
    own in one batched SVD and ``(w_o, w_c)`` are arrays of length G.
    """
    x, y = _sample_rows(x_train, y_train)
    # (..., n, 2) designs, each stored column by column as LAPACK takes it
    design = np.stack([x, np.ones_like(x)], axis=-2).swapaxes(-1, -2)
    u, sv, vh = np.linalg.svd(design, full_matrices=False)
    kept = sv > SVD_RCOND * sv[..., :1]
    projected = (y[..., None, :] @ u)[..., 0, :]
    scaled = np.divide(projected, sv, out=np.zeros_like(projected), where=kept)
    solution = np.einsum("...kj,...k->...j", vh, scaled)
    return _scalar_or_array(solution[..., 0]), _scalar_or_array(solution[..., 1])


def r2_score(y_pred: np.ndarray, y_target: np.ndarray) -> float | np.ndarray:
    """Squared correlation cov^2 / (var * var) with population (1/n) moments.

    Returns 0 when either sequence is (numerically) constant: a constant
    output carries no information about the target.  Rounding that lifts an
    exactly affine pair above 1 is clamped to 1.  Either argument may be
    columns (n, G); then each column is scored and the result is an array.
    """
    pred, target = _sample_rows(y_pred, y_target)
    dp = pred - pred.mean(axis=-1, keepdims=True)
    dt = target - target.mean(axis=-1, keepdims=True)
    var_p = np.mean(dp * dp, axis=-1)
    var_t = np.mean(dt * dt, axis=-1)
    cov = np.mean(dp * dt, axis=-1)
    constant = (var_p < VAR_FLOOR) | (var_t < VAR_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.minimum(cov * cov / (var_p * var_t), 1.0)
    return _scalar_or_array(np.where(constant, 0.0, r2))


@dataclass
class PerformanceCurve:
    """Estimation performance of one read-out at one delay over the grid."""

    operator: str
    delay: int
    taus: np.ndarray
    r2: np.ndarray
    w_o: np.ndarray
    w_c: np.ndarray


def stm_curve(record: ReadoutRecord, operator: str, delay: int) -> PerformanceCurve:
    """Train per grid time on the training rows, score on the testing rows.

    Targets are the inputs ``delay`` intervals earlier; rows whose delayed
    index falls before the recorded range draw from the washout portion of
    the record's input sequence.
    """
    if delay < 0:
        raise ValueError(f"delay must be >= 0, got {delay}")
    if delay > record.first_step:
        raise ValueError(
            f"delay {delay} reaches before the input sequence "
            f"(washout has {record.first_step} steps)"
        )
    x_train = record.train_values(operator)
    x_test = record.test_values(operator)
    s = np.asarray(record.inputs.values, dtype=float)

    k_train = record.first_step + np.arange(record.n_train)
    k_test = record.first_step + record.n_train + np.arange(record.n_test)
    y_train = s[k_train - delay]
    y_test = s[k_test - delay]

    w_o, w_c = train_weights(x_train, y_train)
    r2 = r2_score(w_o * x_test + w_c, y_test)
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
