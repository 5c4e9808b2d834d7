"""Foreground intensity distributions.

Every metric in this package works on the voxels that survive background
removal. The default policy keeps strictly positive intensities, which
is exact for skull-stripped data where background is literal zero; an
explicit mask overrides it for anything else.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import DimsMismatch, EmptyForeground, InvalidRange
from .volume import LabelVolume, VoxelGrid, _frozen_array

DEFAULT_BINS = 4096
DEFAULT_EXACT_CAP = 2 ** 24  # samples; above this the binned path kicks in

WdMode = Literal["auto", "exact", "binned"]


@dataclass(frozen=True)
class ForegroundPolicy:
    """How to decide which voxels are tissue.

    ``threshold`` mode keeps voxels with intensity strictly greater than
    ``threshold``; ``explicit-mask`` mode keeps voxels whose mask label
    is nonzero.
    """

    mode: Literal["threshold", "explicit-mask"] = "threshold"
    threshold: float = 0.0
    mask: LabelVolume | None = None

    def __post_init__(self):
        if self.mode not in ("threshold", "explicit-mask"):
            raise ValueError(f"unknown foreground mode {self.mode!r}")
        if not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")
        if self.mode == "explicit-mask" and self.mask is None:
            raise ValueError("explicit-mask mode requires a mask")


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sorted intensity samples with positive weights summing to 1."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if values.size < 1:
            raise ValueError("distribution needs at least one sample")
        if values.size != weights.size:
            raise ValueError("values and weights must have equal length")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        if values.size > 1 and np.any(np.diff(values) < 0):
            raise ValueError("values must be nondecreasing")
        if np.any(weights <= 0) or not np.isfinite(weights).all():
            raise ValueError("weights must be positive and finite")
        total = float(np.sum(weights))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "weights", _frozen_array(weights))

    @classmethod
    def from_samples(cls, samples: Sequence[float] | np.ndarray) -> "EmpiricalDistribution":
        """Equal-weight distribution of the given sample multiset."""
        values = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
        if values.size < 1:
            raise ValueError("distribution needs at least one sample")
        return cls(values, np.full(values.size, 1.0 / values.size))

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def support_min(self) -> float:
        return float(self.values[0])

    @property
    def support_max(self) -> float:
        return float(self.values[-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalDistribution):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self.weights, other.weights
        )


@dataclass(frozen=True, eq=False)
class Histogram:
    """Weighted counts over strictly ascending bin edges."""

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64).reshape(-1)
        counts = np.asarray(self.counts, dtype=np.float64).reshape(-1)
        if edges.size != counts.size + 1:
            raise ValueError("need exactly one more edge than count")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly ascending")
        if np.any(counts < 0) or not float(np.sum(counts)) > 0:
            raise ValueError("counts must be nonnegative with positive total")
        object.__setattr__(self, "edges", _frozen_array(edges))
        object.__setattr__(self, "counts", _frozen_array(counts))

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return np.array_equal(self.edges, other.edges) and np.array_equal(
            self.counts, other.counts
        )


def foreground_mask(grid: VoxelGrid, policy: ForegroundPolicy) -> np.ndarray:
    """Flat boolean mask of foreground voxels for a single-channel grid."""
    if grid.channel_count != 1:
        raise ValueError(
            "foreground extraction is single-channel; select a channel first"
        )
    if policy.mode == "threshold":
        return grid.values > policy.threshold
    mask = policy.mask
    if mask.dims != grid.dims:
        raise DimsMismatch(f"mask dims {mask.dims} != grid dims {grid.dims}")
    return mask.labels != 0


def extract_foreground(grid: VoxelGrid, policy: ForegroundPolicy) -> EmpiricalDistribution:
    """Sorted multiset of foreground intensities with uniform weights."""
    keep = foreground_mask(grid, policy)
    if not keep.any():
        raise EmptyForeground(
            "no voxel passes the foreground policy; wrong threshold or unusable image"
        )
    return EmpiricalDistribution.from_samples(grid.values[keep])


def to_histogram(
    dist: EmpiricalDistribution, bins: int, value_range: tuple[float, float]
) -> Histogram:
    """Bin a distribution into ``bins`` half-open bins over ``value_range``.

    Samples outside the range are clamped into the boundary bins; the
    final bin is closed so the upper edge belongs to it. Total weight is
    conserved.
    """
    lo, hi = float(value_range[0]), float(value_range[1])
    if bins < 1:
        raise InvalidRange(f"bins must be >= 1, got {bins}")
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise InvalidRange(f"need finite lo < hi, got ({lo!r}, {hi!r})")
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.searchsorted(edges, dist.values, side="right") - 1
    idx = np.clip(idx, 0, bins - 1)
    counts = np.bincount(idx, weights=dist.weights, minlength=bins)
    return Histogram(edges, counts)


def coarsen(
    dist: EmpiricalDistribution, bins: int, value_range: tuple[float, float]
) -> EmpiricalDistribution:
    """Binned approximation of ``dist``: mass concentrated at bin centers."""
    hist = to_histogram(dist, bins, value_range)
    keep = hist.counts > 0
    return EmpiricalDistribution(hist.centers[keep], hist.counts[keep])


def coarsen_jointly(
    dists: Iterable[EmpiricalDistribution],
    *,
    bins: int = DEFAULT_BINS,
    exact_cap: int = DEFAULT_EXACT_CAP,
    mode: WdMode = "auto",
) -> tuple[EmpiricalDistribution, ...]:
    """Apply the sample-cap policy to a group of distributions.

    In ``auto`` mode the distributions are binned over their joint range
    only when any of them exceeds ``exact_cap`` samples; ``exact`` forces
    raw samples and ``binned`` forces binning. Degenerate joint range
    (all mass on one value) is returned untouched, the distance code
    handles it.
    """
    dists = tuple(dists)
    if mode not in ("auto", "exact", "binned"):
        raise ValueError(f"unknown wd mode {mode!r}")
    if mode == "exact":
        return dists
    if mode == "auto" and all(d.n <= exact_cap for d in dists):
        return dists
    lo = min(d.support_min for d in dists)
    hi = max(d.support_max for d in dists)
    if not lo < hi:
        return dists
    return tuple(coarsen(d, bins, (lo, hi)) for d in dists)
