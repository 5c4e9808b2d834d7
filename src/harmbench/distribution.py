"""Foreground intensity distributions.

Every metric in this package works on the voxels that survive background
removal. The default policy keeps strictly positive intensities, which
is exact for skull-stripped data where background is literal zero; an
explicit mask overrides it for anything else.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    """Sorted intensity samples, in their own dtype, with positive integer multiplicities.

    ``total`` is the exact sum of the counts as a Python int, made once
    on construction: from the one count of a zero-stride view, else by
    an int64 sum, or a Python-int one where int64 could wrap.
    """

    values: np.ndarray
    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        values = real_values(self.values, "values")
        counts = np.asarray(self.counts).reshape(-1)
        if values.size < 1:
            raise ValueError("distribution needs at least one sample")
        if values.size != counts.size:
            raise ValueError("values and counts must have equal length")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        if np.any(values[1:] < values[:-1]):  # one byte per sample, not a float64 diff
            raise ValueError("values must be nondecreasing")
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        counts = counts.astype(np.int64, copy=False)
        repeated = counts.strides == (0,)  # one count, as unit counts are given
        if (counts[0] if repeated else counts.min()) <= 0:
            raise ValueError("counts must be positive")
        if repeated:
            # kept as the read-only view, which takes no memory per sample
            counts.flags.writeable = False
            total = int(counts[0]) * counts.size
        else:
            counts = _frozen_array(counts)
            if counts.size * int(counts.max()) < 2**63:
                total = int(counts.sum())
            else:
                total = sum(counts.tolist())
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)

    @classmethod
    def from_samples(cls, samples: Sequence[float] | np.ndarray) -> "EmpiricalDistribution":
        """Unit-count distribution of the given sample multiset."""
        values = np.sort(real_values(samples, "samples"))
        return cls(values, _unit_counts(values.size))

    @property
    def n(self) -> int:
        """Number of support points (entries of ``values``), not the total count."""
        return int(self.values.size)

    @property
    def weights(self) -> np.ndarray:
        """Probability of each support point, the counts over their exact total."""
        return self.counts / float(self.total)

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


def _unit_counts(n: int) -> np.ndarray:
    """``n`` counts of one, as a read-only zero-stride view."""
    return np.broadcast_to(np.int64(1), n)


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
    """Sorted multiset of foreground intensities in the grid's dtype, one count per voxel."""
    samples = grid.values[foreground_mask(grid, policy)]  # a copy, so sorted in place
    if not samples.size:
        raise EmptyForeground(
            "no voxel passes the foreground policy; wrong threshold or unusable image"
        )
    samples.sort()
    return EmpiricalDistribution(samples, _unit_counts(samples.size))

