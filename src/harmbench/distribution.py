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

    Without a ``mask``, voxels with intensity strictly greater than
    ``threshold`` are kept; with one, voxels whose mask label is nonzero.
    """

    threshold: float = 0.0
    mask: LabelVolume | None = None

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sorted intensity samples with positive integer multiplicities."""

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        counts = np.asarray(self.counts).reshape(-1)
        if values.size < 1:
            raise ValueError("distribution needs at least one sample")
        if values.size != counts.size:
            raise ValueError("values and counts must have equal length")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        if values.size > 1 and np.any(np.diff(values) < 0):
            raise ValueError("values must be nondecreasing")
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        counts = counts.astype(np.int64, copy=False)
        if np.any(counts <= 0):
            raise ValueError("counts must be positive")
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "counts", _frozen_array(counts))

    @classmethod
    def from_samples(cls, samples: Sequence[float] | np.ndarray) -> "EmpiricalDistribution":
        """Unit-count distribution of the given sample multiset."""
        values = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
        return cls(values, np.ones(values.size, dtype=np.int64))

    @property
    def n(self) -> int:
        """Number of support points (entries of ``values``), not the total count."""
        return int(self.values.size)

    @property
    def weights(self) -> np.ndarray:
        """Probability of each support point, ``counts / counts.sum()``."""
        return self.counts / self.counts.sum()

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
            self.counts, other.counts
        )


def foreground_mask(grid: VoxelGrid, policy: ForegroundPolicy) -> np.ndarray:
    """Flat boolean mask of foreground voxels for a single-channel grid."""
    if grid.channel_count != 1:
        raise ValueError(
            "foreground extraction is single-channel; select a channel first"
        )
    if policy.mask is None:
        return grid.values > policy.threshold
    mask = policy.mask
    if mask.dims != grid.dims:
        raise DimsMismatch(f"mask dims {mask.dims} != grid dims {grid.dims}")
    return mask.labels != 0


def extract_foreground(grid: VoxelGrid, policy: ForegroundPolicy) -> EmpiricalDistribution:
    """Sorted multiset of foreground intensities, one count per voxel."""
    samples = grid.values[foreground_mask(grid, policy)]
    if not samples.size:
        raise EmptyForeground(
            "no voxel passes the foreground policy; wrong threshold or unusable image"
        )
    return EmpiricalDistribution.from_samples(samples)


def coarsen(
    dist: EmpiricalDistribution, bins: int, value_range: tuple[float, float]
) -> EmpiricalDistribution:
    """Binned approximation of ``dist``: each bin's count at its center.

    Bins are half-open over ``value_range`` and the last one is closed,
    so the upper edge belongs to it; samples outside the range are
    clamped into the boundary bins. Empty bins are dropped and the total
    count is conserved exactly.
    """
    lo, hi = float(value_range[0]), float(value_range[1])
    if bins < 1:
        raise InvalidRange(f"bins must be >= 1, got {bins}")
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise InvalidRange(f"need finite lo < hi, got ({lo!r}, {hi!r})")
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.clip(np.searchsorted(edges, dist.values, side="right") - 1, 0, bins - 1)
    # values are sorted, so each occupied bin is one run of idx
    occupied, first = np.unique(idx, return_index=True)
    centers = 0.5 * (edges[occupied] + edges[occupied + 1])
    return EmpiricalDistribution(centers, np.add.reduceat(dist.counts, first))


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
