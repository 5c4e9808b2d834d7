"""Foreground intensity distributions.

Every metric in this package works on the voxels that survive background
removal. The default policy keeps strictly positive intensities, which
is exact for skull-stripped data where background is literal zero; an
explicit mask overrides it for anything else.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyForeground
from .volume import LabelVolume, VoxelGrid, _frozen_array, real_values, require_same_grid


@dataclass(frozen=True)
class ForegroundPolicy:
    """How to decide which voxels are tissue.

    Without a ``mask``, voxels with intensity strictly greater than
    ``threshold`` are kept; with one, voxels whose mask label is nonzero,
    and the threshold, which it replaces, stays 0.
    """

    threshold: float = 0.0
    mask: LabelVolume | None = None

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")
        if self.mask is not None and self.threshold != 0.0:
            raise ValueError(
                f"a mask replaces the threshold, which must stay 0, got {self.threshold!r}"
            )


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sorted intensity samples in their own dtype, one entry per sample.

    Each sample has mass 1/``n``; a value that occurs k times is k
    entries. :meth:`from_samples` sorts unsorted samples first.
    """

    values: np.ndarray

    def __post_init__(self):
        values = real_values(self.values, "values")
        if values.size < 1:
            raise ValueError("distribution needs at least one sample")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        if np.any(values[1:] < values[:-1]):  # one byte per sample, not a float64 diff
            raise ValueError("values must be nondecreasing")
        object.__setattr__(self, "values", _frozen_array(values))

    @classmethod
    def from_samples(cls, samples: Sequence[float] | np.ndarray) -> "EmpiricalDistribution":
        """Distribution of the given sample multiset, in any order."""
        return cls(np.sort(real_values(samples, "samples")))

    @property
    def n(self) -> int:
        """Number of samples."""
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
        return np.array_equal(self.values, other.values)


# The float64 loop of ``>``, which casts the voxels in buffered chunks.
# Left to its promotion rules, numpy compares float32 voxels with a
# Python float in float32 (numpy 1.x does so for int16 voxels too), so
# a voxel of float32(0.1) would not pass a threshold of 0.1, nor an
# int16 5 one of 4.9999999.
_ABOVE_IN_FLOAT64 = (np.float64, np.float64, np.bool_)


def foreground_mask(grid: VoxelGrid, policy: ForegroundPolicy) -> np.ndarray:
    """Flat boolean mask of the foreground voxels of ``grid``.

    The threshold is compared in float64 whatever the grid's dtype,
    without a float64 copy of the grid. An explicit mask must share the
    grid's dims and spacing exactly, as stored: it selects voxel by voxel.
    """
    if policy.mask is None:
        return np.greater(grid.values, policy.threshold, signature=_ABOVE_IN_FLOAT64)
    require_same_grid(policy.mask, "mask", grid, "grid")
    return policy.mask.labels != 0


def extract_foreground(grid: VoxelGrid, policy: ForegroundPolicy) -> EmpiricalDistribution:
    """Sorted foreground intensities in the grid's dtype, one sample per voxel."""
    return _sorted_foreground(grid.values[foreground_mask(grid, policy)])  # a copy, sorted in place


class ForegroundSamples:
    """A threshold foreground gathered from a grid's voxels a piece at a time.

    ``add`` keeps the voxels of each piece that are above ``threshold``,
    compared as :func:`foreground_mask` compares them; ``result`` then
    sorts them all. Pieces that together are a grid's voxels, added in
    its order, give :func:`extract_foreground`'s distribution without the
    grid or its mask; so this is a sink of
    :func:`harmbench.nifti.scan_volume` for a file of one channel.
    """

    def __init__(self, threshold: float):
        self._threshold = threshold
        self._parts: list[np.ndarray] = []

    def add(self, values: np.ndarray) -> None:
        self._parts.append(values[np.greater(values, self._threshold, signature=_ABOVE_IN_FLOAT64)])

    def result(self) -> EmpiricalDistribution:
        samples = np.concatenate(self._parts)
        self._parts = []
        return _sorted_foreground(samples)


def _sorted_foreground(samples: np.ndarray) -> EmpiricalDistribution:
    """The distribution of foreground ``samples``, sorted in place."""
    if not samples.size:
        raise EmptyForeground(
            "no voxel passes the foreground policy; wrong threshold or unusable image"
        )
    samples.sort()
    return EmpiricalDistribution(samples)
