"""Input datasets for the benchmark workloads, built from a seed.

Run as a child process of ``bench/run.py`` with the program's ``src``
directory on ``PYTHONPATH``::

    python3 bench/workloads.py phantom-full OUT_DIR SEED
    python3 bench/workloads.py dense-gtfree OUT_DIR SEED FIRST STEP

Both leave ``OUT_DIR/manifest.csv`` plus the volumes it names.
``dense-gtfree`` writes records FIRST, FIRST + STEP, ... so the caller
can split the writing across processes (the one with FIRST 0 writes the
manifest); the seed alone fixes every voxel.

The geometry of every workload is fixed and only the noise draws follow
the seed, so every seed costs the program the same amount of work.
"""
from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np

from harmbench import (
    PhantomSpec,
    SiteTransform,
    Sphere,
    VoxelGrid,
    generate_phantom,
    histogram_match,
    write_synthetic_dataset,
    write_volume,
)

MANIFEST_FIELDS = (
    "id", "input_path", "target_path", "pred_path", "gt_path",
    "seg_input_path", "seg_pred_path", "site_in", "site_out", "channel",
)

DENSE_EDGE = 160
DENSE_RECORDS = 4
DENSE_RADIUS = 35.2  # eight octant spheres: ~36% of the grid is foreground
DENSE_TARGET_SCALE = 1.02  # another subject: the target's foreground count differs
DENSE_PRED_SEG_SCALE = 1.01  # pred segmentation 1% wider in radius: ap ~0.969
DENSE_SITES = (
    SiteTransform(),
    SiteTransform(gain=1.6, bias=12.0, gamma=1.08),
)


def write_phantom_full(out_dir: Path, seed: int) -> Path:
    """The stock 3-site, 12-triplet, 128^3 dataset with gt and a shared seg."""
    return write_synthetic_dataset(out_dir, sites=3, n=12, size=128, seed=seed)


def _octant_spheres(scale: float) -> tuple[Sphere, ...]:
    lo, hi = DENSE_EDGE / 4, 3 * DENSE_EDGE / 4
    centers = [(x, y, z) for x in (lo, hi) for y in (lo, hi) for z in (lo, hi)]
    return tuple(
        Sphere(label, center, DENSE_RADIUS * scale, 30.0 + 12.0 * label, 5.0 + 0.5 * label)
        for label, center in enumerate(centers, start=1)
    )


def _dense_names(k: int) -> dict[str, str]:
    return {
        "input_path": f"input_{k:03d}.nii.gz",
        "target_path": f"target_{k:03d}.nii.gz",
        "pred_path": f"pred_{k:03d}.nii.gz",
        "seg_input_path": f"seg_input_{k:03d}.nii.gz",
        "seg_pred_path": f"seg_pred_{k:03d}.nii.gz",
    }


def write_dense_record(out_dir: Path, seed: int, k: int) -> None:
    """Volumes of dense-gtfree record ``k``: no gt, per-row segmentations."""
    dims = (DENSE_EDGE,) * 3
    site_in = k % len(DENSE_SITES)
    site_out = (site_in + 1) % len(DENSE_SITES)
    anatomy = seed * 1_000_003 + 2 * k
    spec_in = PhantomSpec(dims, anatomy, _octant_spheres(1.0), DENSE_SITES[site_in])
    grid_in, seg_in = generate_phantom(spec_in)
    grid_tg, _ = generate_phantom(
        PhantomSpec(dims, anatomy + 1, _octant_spheres(DENSE_TARGET_SCALE), DENSE_SITES[site_out])
    )
    _, seg_pr = generate_phantom(PhantomSpec(dims, anatomy, _octant_spheres(DENSE_PRED_SEG_SCALE)))
    grid_pr = histogram_match(grid_in, grid_tg)

    names = _dense_names(k)
    write_volume(grid_in, out_dir / names["input_path"])
    write_volume(grid_tg, out_dir / names["target_path"])
    write_volume(grid_pr, out_dir / names["pred_path"])
    for key, seg in (("seg_input_path", seg_in), ("seg_pred_path", seg_pr)):
        write_volume(VoxelGrid(dims, seg.spacing, seg.labels.astype(np.float64)), out_dir / names[key])


def write_dense_manifest(out_dir: Path) -> Path:
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=MANIFEST_FIELDS, lineterminator="\n")
        writer.writeheader()
        for k in range(DENSE_RECORDS):
            site_in = k % len(DENSE_SITES)
            writer.writerow({
                "id": f"dense-{k:03d}",
                **_dense_names(k),
                "gt_path": "",
                "site_in": chr(ord("A") + site_in),
                "site_out": chr(ord("A") + (site_in + 1) % len(DENSE_SITES)),
                "channel": "",
            })
    return manifest


def main(argv: list[str]) -> int:
    workload, out_dir, seed = argv[0], Path(argv[1]), int(argv[2])
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "phantom-full":
        write_phantom_full(out_dir, seed)
    elif workload == "dense-gtfree":
        first, step = int(argv[3]), int(argv[4])
        for k in range(first, DENSE_RECORDS, step):
            write_dense_record(out_dir, seed, k)
        if first == 0:
            write_dense_manifest(out_dir)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
