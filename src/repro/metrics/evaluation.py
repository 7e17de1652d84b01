"""Evaluation metrics (paper §6.1).

Precision ``P_i``, relative expert effort ``E_i``, percentage of precision
improvement ``R_i``, plus the correlation and curve utilities the
experiments use (uncertainty–precision correlation of Appendix B,
effort-at-precision summaries, curve averaging across runs).
"""

from __future__ import annotations

import numpy as np

from repro.utils.checks import check_fraction


def precision(assignment: np.ndarray, gold: np.ndarray) -> float:
    """Fraction of objects whose assigned label matches gold (``P_i``)."""
    assignment = np.asarray(assignment)
    gold = np.asarray(gold)
    if assignment.shape != gold.shape:
        raise ValueError(
            f"assignment shape {assignment.shape} != gold shape {gold.shape}")
    if assignment.size == 0:
        return 1.0
    return float(np.mean(assignment == gold))


def precision_improvement(current: float, initial: float) -> float:
    """``R_i = (P_i − P_0) / (1 − P_0)`` (1.0 when ``P_0`` is already 1)."""
    current = check_fraction(current, "current")
    initial = check_fraction(initial, "initial")
    if initial >= 1.0:
        return 1.0
    return (current - initial) / (1.0 - initial)


def relative_effort(n_validations: int, n_objects: int) -> float:
    """``E_i = i / n``."""
    if n_objects <= 0:
        raise ValueError(f"n_objects must be > 0, got {n_objects}")
    return n_validations / n_objects


def uncertainty_precision_correlation(uncertainties: np.ndarray,
                                      precisions: np.ndarray) -> float:
    """Pearson correlation between uncertainty and precision (Appendix B).

    The paper reports −0.9461 across a synthetic sweep; strongly negative
    correlation certifies uncertainty as a truthful proxy for correctness.
    """
    uncertainties = np.asarray(uncertainties, dtype=float)
    precisions = np.asarray(precisions, dtype=float)
    if uncertainties.shape != precisions.shape:
        raise ValueError("uncertainty and precision arrays must align")
    if uncertainties.size < 2:
        return float("nan")
    if np.allclose(uncertainties, uncertainties[0]) or \
            np.allclose(precisions, precisions[0]):
        return float("nan")
    # Imported here, not at module scope: the validation loop imports this
    # module but never calls this function, and ``scipy.stats`` loads
    # hundreds of scipy modules (tests/test_import_footprint.py).
    from scipy import stats
    return float(stats.pearsonr(uncertainties, precisions).statistic)


def interpolate_curve(efforts: np.ndarray,
                      values: np.ndarray,
                      grid: np.ndarray) -> np.ndarray:
    """Resample a (monotone-effort) curve onto a common effort grid.

    Validation runs differ in length, so averaging across repetitions
    requires a shared x-axis; values are step-interpolated (previous value
    carries forward) which matches how precision evolves between
    validations.
    """
    efforts = np.asarray(efforts, dtype=float)
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if efforts.size == 0:
        return np.full(grid.shape, np.nan)
    indices = np.searchsorted(efforts, grid, side="right") - 1
    indices = np.clip(indices, 0, efforts.size - 1)
    return values[indices]


def average_curves(curves: list[tuple[np.ndarray, np.ndarray]],
                   grid: np.ndarray) -> np.ndarray:
    """Mean of several (effort, value) curves on a common grid."""
    if not curves:
        raise ValueError("no curves to average")
    stacked = np.vstack([
        interpolate_curve(efforts, values, grid)
        for efforts, values in curves
    ])
    return np.nanmean(stacked, axis=0)


def area_under_curve(efforts: np.ndarray, values: np.ndarray) -> float:
    """Trapezoidal area under an effort/value curve.

    A single-number summary of guidance effectiveness: higher
    precision-vs-effort AUC means better use of a validation budget.
    """
    efforts = np.asarray(efforts, dtype=float)
    values = np.asarray(values, dtype=float)
    if efforts.size < 2:
        return float("nan")
    return float(np.trapezoid(values, efforts))
