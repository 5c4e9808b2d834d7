"""In-memory volume types shared by every metric.

A :class:`VoxelGrid` is an immutable 3-D scalar intensity volume with
physical voxel spacing; a :class:`LabelVolume` is its integer-labeled
segmentation counterpart. Values live in flat arrays in x-fastest order
(index ``i + nx*(j + ny*(k + nz*c))``). A grid keeps the integer or float
dtype it was given, so a loaded file costs its own width per voxel, and
each metric widens to float64 only the voxels it reads. Labels keep
their integer dtype too, except that uint64 becomes int64.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteVoxel

Dims = tuple[int, int, int]
Spacing = tuple[float, float, float]


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """3-D scalar intensity volume with voxel spacing in millimeters.

    ``values`` is flat, x-fastest, one ``nx*ny*nz`` block per channel.
    Integer and float arrays are kept in their own dtype (anything else
    becomes float64), so arithmetic on them must widen explicitly: under
    numpy's promotion rules ``float32 - 0.1`` stays float32. Float
    values must be finite. Instances are immutable and safe to share
    across threads.
    """

    dims: Dims
    spacing: Spacing
    values: np.ndarray
    channel_count: int = 1

    def __post_init__(self):
        nx, ny, nz = (int(d) for d in self.dims)
        if min(nx, ny, nz) < 1:
            raise ValueError(f"dims must be positive, got {self.dims!r}")
        if int(self.channel_count) < 1:
            raise ValueError(f"channel_count must be >= 1, got {self.channel_count!r}")
        spacing = tuple(float(s) for s in self.spacing)
        if any(not np.isfinite(s) or s <= 0 for s in spacing):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
        values = np.asarray(self.values).reshape(-1)
        if values.dtype.kind not in "iuf":
            values = values.astype(np.float64)
        expected = nx * ny * nz * int(self.channel_count)
        if values.size != expected:
            raise ValueError(
                f"values length {values.size} != nx*ny*nz*channels = {expected}"
            )
        # min and max carry any NaN or infinity, without a mask the size of the grid
        if values.dtype.kind == "f" and not (
            np.isfinite(values.min()) and np.isfinite(values.max())
        ):
            raise NonFiniteVoxel("voxel values must all be finite")
        object.__setattr__(self, "dims", (nx, ny, nz))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "channel_count", int(self.channel_count))

    @property
    def voxels_per_channel(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz

    def channel(self, c: int) -> "VoxelGrid":
        """Single-channel view of channel ``c``."""
        if not 0 <= c < self.channel_count:
            raise ValueError(
                f"channel {c} out of range for {self.channel_count}-channel grid"
            )
        n = self.voxels_per_channel
        return VoxelGrid(self.dims, self.spacing, self.values[c * n : (c + 1) * n])

    def as_array(self, channel: int = 0) -> np.ndarray:
        """Channel data as a read-only (nx, ny, nz) array."""
        n = self.voxels_per_channel
        block = self.values[channel * n : (channel + 1) * n]
        return block.reshape(self.dims, order="F")

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoxelGrid):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.spacing == other.spacing
            and self.channel_count == other.channel_count
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Integer-labeled segmentation grid; label 0 is background.

    ``legend`` maps every nonzero label that appears in ``labels`` to a
    structure name; without one, each such label is named ``label-<k>``.
    ``voxel_counts`` holds the voxel count of every nonzero label present,
    in ascending label order, counted once on construction.
    """

    dims: Dims
    spacing: Spacing
    labels: np.ndarray
    legend: dict[int, str] | None = None
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
        if self.legend is None:
            legend = {k: f"label-{k}" for k in counts}
        else:
            legend = _checked_legend(self.legend, counts)
        object.__setattr__(self, "dims", (nx, ny, nz))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "labels", _frozen_array(labels))
        object.__setattr__(self, "legend", legend)
        object.__setattr__(self, "voxel_counts", counts)

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz

    def as_array(self) -> np.ndarray:
        return self.labels.reshape(self.dims, order="F")

    def renamed(self, legend: dict[int, str]) -> "LabelVolume":
        """The same segmentation under ``legend``, which must name every
        nonzero label present; the labels are not validated or counted again."""
        out = copy.copy(self)
        object.__setattr__(out, "legend", _checked_legend(legend, self.voxel_counts))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelVolume):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.spacing == other.spacing
            and self.legend == other.legend
            and np.array_equal(self.labels, other.labels)
        )


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


def _checked_legend(legend: dict, counts: dict[int, int]) -> dict[int, str]:
    legend = {int(k): str(v) for k, v in dict(legend).items()}
    missing = [k for k in counts if k not in legend]
    if missing:
        raise ValueError(f"labels {missing} present in volume but absent from legend")
    return legend
