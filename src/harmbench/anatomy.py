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
class StructureVolume:
    label: int
    name: str
    volume_mm3: float


@dataclass(frozen=True)
class ApReport:
    """Per-structure preservation scores and their mean."""

    per_structure: dict[str, float]
    mean_ap: float


def as_label_volume(grid: VoxelGrid, legend: dict[int, str] | None = None) -> LabelVolume:
    """Reinterpret an integer-valued grid as a segmentation.

    Without a legend every distinct nonzero label becomes ``label-<k>``.
    A legend must name every nonzero label present; names of labels
    absent from the volume are dropped.
    """
    if grid.channel_count != 1:
        raise ValueError("label volumes are single-channel")
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
    seg = LabelVolume(grid.dims, grid.spacing, labels)
    if legend is None:
        return seg
    return seg.renamed({k: v for k, v in legend.items() if k in seg.voxel_counts})


def structure_volumes(seg: LabelVolume) -> list[StructureVolume]:
    """Physical volume of every legend structure, including empty ones."""
    voxel = seg.voxel_volume_mm3
    return [
        StructureVolume(
            label=label, name=name, volume_mm3=float(seg.voxel_counts.get(label, 0)) * voxel
        )
        for label, name in sorted(seg.legend.items())
    ]


def anatomy_preservation(
    seg_input: LabelVolume, seg_pred: LabelVolume, *, weighted: bool = False
) -> ApReport:
    """Volume-preservation score over the structures both segmentations share.

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
    shared = sorted(set(seg_input.legend) & set(seg_pred.legend))
    if not shared:
        raise NoCommonStructures("segmentations share no nonzero label")

    vol_in = {s.label: s.volume_mm3 for s in structure_volumes(seg_input)}
    vol_pr = {s.label: s.volume_mm3 for s in structure_volumes(seg_pred)}

    per_structure: dict[str, float] = {}
    input_volumes: list[float] = []
    for label in shared:
        vi = vol_in[label]
        if vi <= 0.0:
            raise ZeroInputVolume(
                f"structure {seg_input.legend[label]!r} has zero input volume"
            )
        per_structure[seg_input.legend[label]] = 1.0 - abs(vol_pr[label] - vi) / vi
        input_volumes.append(vi)

    scores = list(per_structure.values())
    if weighted:
        total = sum(input_volumes)
        mean_ap = sum(s * v for s, v in zip(scores, input_volumes)) / total
    else:
        mean_ap = sum(scores) / len(scores)
    return ApReport(per_structure=per_structure, mean_ap=mean_ap)
