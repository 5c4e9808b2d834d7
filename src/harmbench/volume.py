"""In-memory volume types shared by every metric.

A :class:`VoxelGrid` is an immutable 3-D scalar intensity volume with
physical voxel spacing; a :class:`LabelVolume` is its integer-labeled
segmentation counterpart. Values live in flat arrays in x-fastest order
(index ``i + nx*(j + ny*k)``). A grid, and a foreground distribution,
keeps the integer or float dtype it was given (:func:`real_values`), so
a loaded file and its foreground cost their own width per value, and
each metric widens to float64 only the values it reads. Labels keep
their integer dtype too, except that uint64 becomes int64.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimsMismatch, NonFiniteVoxel

Dims = tuple[int, int, int]
Spacing = tuple[float, float, float]


def real_values(values, what: str) -> np.ndarray:
    """``values`` flat, integers and floats in their own dtype, which arithmetic
    must widen (``float32 - 0.1`` is float32); complex raises, the rest is float64."""
    values = np.asarray(values).reshape(-1)
    if values.dtype.kind == "c":
        raise ValueError(f"{what} must be real, got dtype {values.dtype}")
    return values if values.dtype.kind in "iuf" else values.astype(np.float64)


def all_finite(values: np.ndarray) -> bool:
    """Whether no value is NaN or infinite: min and max carry any such value,
    without a mask the size of the array. Integers always are."""
    return values.dtype.kind != "f" or bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def require_same_grid(a, a_name: str, b, b_name: str) -> None:
    """:class:`DimsMismatch` unless ``a`` and ``b`` share dims and spacing exactly, as stored."""
    if (a.dims, a.spacing) != (b.dims, b.spacing):
        raise DimsMismatch(f"{a_name} {a.dims} at {a.spacing} mm != {b_name} {b.dims} at {b.spacing} mm")


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """3-D scalar intensity volume with voxel spacing in millimeters.

    ``values`` is flat and x-fastest, one value per voxel: a grid is one
    channel, and a multichannel file loads as one grid per channel.
    Values keep their dtype by :func:`real_values` and, if float, must
    be finite. Instances are immutable and safe to share across threads.
    """

    dims: Dims
    spacing: Spacing
    values: np.ndarray

    def __post_init__(self):
        nx, ny, nz = (int(d) for d in self.dims)
        if min(nx, ny, nz) < 1:
            raise ValueError(f"dims must be positive, got {self.dims!r}")
        spacing = tuple(float(s) for s in self.spacing)
        if any(not np.isfinite(s) or s <= 0 for s in spacing):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
        values = real_values(self.values, "voxel values")
        if values.size != nx * ny * nz:
            raise ValueError(f"values length {values.size} != nx*ny*nz = {nx * ny * nz}")
        if not all_finite(values):
            raise NonFiniteVoxel("voxel values must all be finite")
        object.__setattr__(self, "dims", (nx, ny, nz))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "values", _frozen_array(values))

    def as_array(self) -> np.ndarray:
        """The voxels as a read-only (nx, ny, nz) array."""
        return self.values.reshape(self.dims, order="F")

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoxelGrid):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.spacing == other.spacing
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Integer-labeled segmentation grid; label 0 is background.

    ``voxel_counts`` holds the voxel count of every nonzero label present,
    in ascending label order, counted once on construction.
    """

    dims: Dims
    spacing: Spacing
    labels: np.ndarray
    voxel_counts: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        nx, ny, nz = (int(d) for d in self.dims)
        if min(nx, ny, nz) < 1:
            raise ValueError(f"dims must be positive, got {self.dims!r}")
        spacing = tuple(float(s) for s in self.spacing)
        if any(not np.isfinite(s) or s <= 0 for s in spacing):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
        labels = np.asarray(self.labels).reshape(-1)
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        if labels.dtype == np.uint64:
            labels = labels.astype(np.int64)  # bincount refuses uint64
        if labels.size != nx * ny * nz:
            raise ValueError(f"labels length {labels.size} != nx*ny*nz = {nx * ny * nz}")
        counts = _count_labels(labels)
        object.__setattr__(self, "dims", (nx, ny, nz))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "labels", _frozen_array(labels))
        object.__setattr__(self, "voxel_counts", counts)

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelVolume):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.spacing == other.spacing
            and np.array_equal(self.labels, other.labels)
        )


@dataclass(frozen=True)
class LabelCounts:
    """The voxel count of every nonzero label of a segmentation, ascending
    by label, with its grid's dims and spacing: what anatomy preservation
    reads of a :class:`LabelVolume`, without the labels themselves."""

    dims: Dims
    spacing: Spacing
    voxel_counts: dict[int, int]

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz


# bincount's table holds one int64 per id up to the largest label. It is
# used while that table is no longer than the labels themselves or than
# 2**16 entries; sparse atlas ids in the millions would make it allocate
# gigabytes, so such a volume is counted by np.unique's sort instead.
_BINCOUNT_MIN_TABLE = 2 ** 16

# Voxels bincount takes at a time: it widens its input to intp, eight
# bytes a voxel, so whole it would copy a uint8 segmentation eightfold.
_COUNT_BLOCK = 2 ** 16


def _count_labels(labels: np.ndarray) -> dict[int, int]:
    """Voxel count of every nonzero label in ``labels``, ascending by label.

    Labels are bincounted in blocks of ``_COUNT_BLOCK`` voxels, or of the
    table's length where that is longer, so neither the widened copy nor
    the work of one block's table outgrows the block.
    """
    if labels.min() < 0:
        raise ValueError("labels must be nonnegative")
    top = int(labels.max())
    if top < max(labels.size, _BINCOUNT_MIN_TABLE):
        counts = np.zeros(top + 1, np.int64)
        step = max(_COUNT_BLOCK, top + 1)
        for start in range(0, labels.size, step):
            block = labels[start : start + step]
            # background is most of a segmentation; counting it would be most of the work
            part = np.bincount(block[block != 0])
            counts[: part.size] += part
        present = np.flatnonzero(counts)
        return dict(zip(present.tolist(), counts[present].tolist()))
    present, counts = np.unique(labels, return_counts=True)
    keep = present != 0
    return dict(zip(present[keep].tolist(), counts[keep].tolist()))
