"""Aggregation and rank correlation over metric series.

Aggregation reports mean and sample (n-1) standard deviation over the
finite values of a series; +inf sentinels (perfect-match PSNR) are
counted separately, never averaged. Rank correlation assigns average
ranks to ties, making the coefficient exactly invariant under strictly
increasing transforms of either series.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AllSentinels, LengthMismatch, ZeroRankVariance
from .volume import _frozen_array


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Rank correlations of row series against column series."""

    row_names: tuple[str, ...]
    col_names: tuple[str, ...]
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.shape != (len(self.row_names), len(self.col_names)):
            raise ValueError("rho shape must be (rows, cols)")
        finite = rho[np.isfinite(rho)]
        if finite.size and np.max(np.abs(finite)) > 1.0 + 1e-12:
            raise ValueError("correlations must lie in [-1, 1]")
        object.__setattr__(self, "rho", _frozen_array(rho))
        object.__setattr__(self, "row_names", tuple(self.row_names))
        object.__setattr__(self, "col_names", tuple(self.col_names))


def _values(series: Sequence[float] | np.ndarray) -> np.ndarray:
    return np.asarray(series, dtype=np.float64).reshape(-1)


def mean_std(series: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """(mean, sample std) over the finite values of a series.

    The n-1 denominator matches the usual reporting convention for small
    per-site samples; a single finite value gets std 0.
    """
    values = _values(series)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise AllSentinels("series has no finite value")
    mean = float(np.mean(finite))
    std = 0.0 if finite.size == 1 else float(np.std(finite, ddof=1))
    return mean, std


def sentinel_count(series: Sequence[float] | np.ndarray) -> int:
    values = _values(series)
    return int(np.size(values) - np.count_nonzero(np.isfinite(values)))


def rank_average_ties(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    order = np.argsort(a, kind="stable")
    s = a[order]
    # each tie group spans sorted positions first..last; NaN ties nothing
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    last = np.r_[first[1:], a.size] - 1
    ranks = np.empty(a.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def spearman(
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
) -> float:
    """Rank correlation with average-rank ties; sentinel pairs dropped."""
    xv, yv = _values(x), _values(y)
    if xv.size != yv.size:
        raise LengthMismatch(f"series lengths differ: {xv.size} vs {yv.size}")
    if xv.size < 3:
        raise LengthMismatch(f"need at least 3 pairs, got {xv.size}")
    keep = np.isfinite(xv) & np.isfinite(yv)
    xv, yv = xv[keep], yv[keep]
    if xv.size < 3:
        raise LengthMismatch(f"only {xv.size} finite pairs remain after dropping sentinels")
    rx = rank_average_ties(xv)
    ry = rank_average_ties(yv)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = float(np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))
    if denom == 0.0:
        raise ZeroRankVariance("one series is entirely tied")
    return float(np.sum(dx * dy) / denom)


def correlation_matrix(
    rows: Mapping[str, Sequence[float] | np.ndarray],
    cols: Mapping[str, Sequence[float] | np.ndarray],
) -> CorrelationMatrix:
    """Rank correlation of each row series against each column series.

    The matrix's rows and columns are named by the keys of ``rows`` and
    ``cols``, in their order. Undefined cells (all-tied series) are NaN.
    """
    rho = np.full((len(rows), len(cols)), np.nan)
    for i, r in enumerate(rows.values()):
        for j, c in enumerate(cols.values()):
            try:
                rho[i, j] = spearman(r, c)
            except ZeroRankVariance:
                pass
    return CorrelationMatrix(row_names=tuple(rows), col_names=tuple(cols), rho=rho)
