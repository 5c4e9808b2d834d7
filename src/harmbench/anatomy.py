"""Anatomy preservation from pre/post-harmonization segmentations.

The score for one structure is one minus the relative absolute change
of its physical volume between the input and the predicted image's
segmentation. A perfectly preserved structure scores 1; a structure
whose volume more than doubles goes negative. Scores are never clamped:
negative values are the diagnostic signal for severe hallucination.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoCommonStructures, ZeroInputVolume
from .volume import LabelVolume, VoxelGrid

_NOT_LABELS = "segmentation voxels must be nonnegative integers"


@dataclass(frozen=True)
class ApReport:
    """Per-structure preservation scores, by label, and their mean."""

    per_structure: dict[int, float]
    mean_ap: float


def as_label_volume(grid: VoxelGrid) -> LabelVolume:
    """Reinterpret an integer-valued grid as a segmentation."""
    values = grid.values
    if values.dtype.kind == "f":
        # Range first: casting a value outside int64 has no defined result.
        top = values.max()
        if values.min() < 0 or top >= 2.0 ** 63:
            raise ValueError(_NOT_LABELS)
        # the narrowest integer type holding the largest label
        labels = values.astype(np.min_scalar_type(int(top)))
        if not np.array_equal(labels, values):
            raise ValueError(_NOT_LABELS)
    elif values.min() < 0:
        raise ValueError(_NOT_LABELS)
    else:
        labels = values
    return LabelVolume(grid.dims, grid.spacing, labels)


def structure_volumes(seg: LabelVolume) -> dict[int, float]:
    """Physical volume in mm³ of every nonzero label present, by label."""
    voxel = seg.voxel_volume_mm3
    return {label: float(n) * voxel for label, n in seg.voxel_counts.items()}


def anatomy_preservation(
    seg_input: LabelVolume, seg_pred: LabelVolume, *, weighted: bool = False
) -> ApReport:
    """Volume-preservation score over the labels present in both segmentations.

    The mean is unweighted by default; ``weighted`` switches to weighting
    by input volume, which is never the default reporting convention.
    Differing grid dims are legal (volumes are physical) but usually a
    pipeline error, hence the warning.
    """
    if seg_input.dims != seg_pred.dims:
        warnings.warn(
            f"segmentation dims differ ({seg_input.dims} vs {seg_pred.dims}); "
            "volumes are still comparable but check the pipeline",
            stacklevel=2,
        )
    shared = sorted(seg_input.voxel_counts.keys() & seg_pred.voxel_counts.keys())
    if not shared:
        raise NoCommonStructures("segmentations share no nonzero label")

    vol_in = structure_volumes(seg_input)
    vol_pr = structure_volumes(seg_pred)

    per_structure: dict[int, float] = {}
    for label in shared:
        vi = vol_in[label]
        # every present label has voxels: only a voxel volume that underflows is zero
        if vi <= 0.0:
            raise ZeroInputVolume(f"label {label} has zero input volume")
        per_structure[label] = 1.0 - abs(vol_pr[label] - vi) / vi

    scores = list(per_structure.values())
    if weighted:
        input_volumes = [vol_in[label] for label in shared]
        total = sum(input_volumes)
        mean_ap = sum(s * v for s, v in zip(scores, input_volumes)) / total
    else:
        mean_ap = sum(scores) / len(scores)
    return ApReport(per_structure=per_structure, mean_ap=mean_ap)
