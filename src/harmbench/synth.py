"""Deterministic two-site phantoms and a histogram-matching baseline.

The phantom is a handful of non-overlapping noisy spheres on a zero
background, pushed through a monotone per-site intensity map
(gain * v**gamma + bias). Randomness comes from the counter-based
Philox bit generator keyed by the spec seed, so a fixed seed gives
byte-identical volumes run after run.

The bundled harmonizer is quantile matching: source foreground
intensities are remapped through the piecewise-linear composition of
the source CDF with the reference inverse CDF. It is monotone and never
touches background voxels, so it provably preserves anatomy, which is
exactly what makes it useful as a known-good fixture rather than a
model under test.
"""
from __future__ import annotations

import csv
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distribution import ForegroundPolicy, foreground_mask
from .errors import EmptyForeground, OverlappingStructures
from .nifti import write_volume
from .volume import LabelVolume, VoxelGrid

INTENSITY_FLOOR = 1e-3  # keeps foreground strictly positive through the site map
# Volumes ``write_synthetic_dataset`` has in flight on its writer pool while
# it renders the next phantom. Each holds its float64 grid and a float32
# copy until written; on two cores a third gained little speed for that.
_WRITES_IN_FLIGHT = 2


@dataclass(frozen=True)
class Sphere:
    """One noisy spherical structure: label, voxel-space geometry, N(mean, std)."""

    label: int
    center: tuple[float, float, float]
    radius: float
    mean: float
    std: float


@dataclass(frozen=True)
class SiteTransform:
    """Monotone intensity map v -> gain * v**gamma + bias applied to foreground."""

    gain: float = 1.0
    bias: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.gain <= 0 or self.gamma <= 0:
            raise ValueError("gain and gamma must be positive")

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.gain * np.power(v, self.gamma) + self.bias


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int]
    seed: int
    structures: tuple[Sphere, ...]
    site_transform: SiteTransform = SiteTransform()
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "structures", tuple(self.structures))
        if not 0 <= self.seed < 2 ** 128:
            raise ValueError(f"seed must be in [0, 2**128), the Philox key range, got {self.seed}")
        if not self.structures:
            raise ValueError("phantom needs at least one structure")
        for s in self.structures:
            if s.radius <= 0:
                raise ValueError(f"sphere radius must be positive, got {s.radius}")
            if s.label <= 0:
                raise ValueError("sphere labels must be positive")
            for c, d in zip(s.center, self.dims):
                if c - s.radius < 0 or c + s.radius > d - 1:
                    raise ValueError(f"sphere at {s.center} r={s.radius} leaves {self.dims}")


def _sphere_indices(dims: tuple[int, int, int], sphere: Sphere) -> np.ndarray:
    """Ascending flat (x-fastest) indices of the voxels with d² <= r².

    d² is computed only over the sphere's bounding box, padded by one
    voxel against rounding, with the same per-voxel arithmetic as over
    the whole grid, so the same voxels pass. The box is laid out
    (z, y, x): C-order ``nonzero`` then yields ascending flat indices.
    """
    r = sphere.radius
    starts, offsets = [], []
    for c, n in zip(sphere.center, dims):
        start = max(math.floor(c - r), 0)
        starts.append(start)
        offsets.append(np.arange(start, min(math.ceil(c + r) + 1, n), dtype=np.float64) - c)
    dx, dy, dz = offsets
    d2 = dx[None, None, :] ** 2 + dy[None, :, None] ** 2 + dz[:, None, None] ** 2
    k, j, i = np.nonzero(d2 <= r ** 2)
    nx, ny, _ = dims
    return (i + starts[0]) + nx * ((j + starts[1]) + ny * (k + starts[2]))


def _render(spec: PhantomSpec, labels: np.ndarray | None = None) -> VoxelGrid:
    """Intensity grid of ``spec``; each structure's label goes into ``labels`` if given.

    Structures are drawn in listed order from one Philox stream. Every
    structure voxel is at least INTENSITY_FLOOR > 0, so a voxel is taken
    exactly when its value is nonzero.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    values = np.zeros(math.prod(spec.dims))
    for s in spec.structures:
        inside = _sphere_indices(spec.dims, s)
        if values[inside].any():
            raise OverlappingStructures(f"sphere {s.label} overlaps an earlier structure")
        draws = rng.normal(s.mean, s.std, size=inside.size)
        # clamp before the power map so noninteger gamma stays defined
        draws = np.maximum(draws, INTENSITY_FLOOR)
        values[inside] = np.maximum(spec.site_transform.apply(draws), INTENSITY_FLOOR)
        if labels is not None:
            labels[inside] = s.label
    return VoxelGrid(spec.dims, spec.spacing, values)


def generate_phantom(spec: PhantomSpec) -> tuple[VoxelGrid, LabelVolume]:
    """Render a phantom: (intensity grid, matching label volume).

    The raw anatomy depends only on (seed, dims, structures); two specs
    that differ only in site_transform share identical underlying draws.
    """
    labels = np.zeros(math.prod(spec.dims), dtype=np.int64)
    grid = _render(spec, labels)
    return grid, LabelVolume(spec.dims, spec.spacing, labels)


def histogram_match(
    source: VoxelGrid,
    reference: VoxelGrid,
    policy: ForegroundPolicy = ForegroundPolicy(),
) -> VoxelGrid:
    """Remap source foreground intensities onto the reference distribution.

    The map sends each source intensity to the reference quantile of its
    own source quantile (piecewise-linear between observed reference
    values), so it is monotone: intensity rank order survives. Background
    voxels pass through untouched.
    """
    src_fg = foreground_mask(source, policy)
    ref_fg = foreground_mask(reference, policy)
    if not src_fg.any() or not ref_fg.any():
        raise EmptyForeground("histogram matching needs foreground on both sides")

    # Either dtype gives the same unique inverse and counts, and interp
    # reads r_values as float64; only the output must be widened.
    src = source.values[src_fg]
    ref = reference.values[ref_fg]
    s_values, s_inverse, s_counts = np.unique(src, return_inverse=True, return_counts=True)
    r_values, r_counts = np.unique(ref, return_counts=True)
    s_quantiles = np.cumsum(s_counts) / src.size
    r_quantiles = np.cumsum(r_counts) / ref.size
    mapped_unique = np.interp(s_quantiles, r_quantiles, r_values)

    out = source.values.astype(np.float64)
    out[src_fg] = mapped_unique[s_inverse]
    return VoxelGrid(source.dims, source.spacing, out)


# --------------------------------------------------------------- dataset


def _site_transform(site: int) -> SiteTransform:
    if site == 0:
        return SiteTransform()
    return SiteTransform(gain=1.0 + 0.6 * site, bias=12.0 * site, gamma=1.0 + 0.08 * site)


def _site_name(site: int) -> str:
    return chr(ord("A") + site)


def _structures(dims: tuple[int, int, int], radius_scale: float = 1.0) -> tuple[Sphere, ...]:
    nx, ny, nz = dims
    # two tissue-like blobs, scaled to the grid, never overlapping
    return (
        Sphere(1, (0.36 * nx, 0.5 * ny, 0.5 * nz), 0.16 * min(dims) * radius_scale, 60.0, 6.0),
        Sphere(2, (0.70 * nx, 0.5 * ny, 0.5 * nz), 0.11 * min(dims) * radius_scale, 100.0, 8.0),
    )


def write_synthetic_dataset(
    out_dir: str | Path,
    *,
    sites: int = 2,
    n: int = 10,
    seed: int = 42,
    size: int = 64,
) -> Path:
    """Write a ready-to-evaluate phantom dataset and return the manifest path.

    Each triplet k flows from site s to site s+1 (round robin): the input
    and its ground truth share one anatomy rendered under the two site
    maps, the target is an independent anatomy under the output site map,
    and the prediction is the input quantile-matched to the target. One
    shared label volume serves as both segmentations because the matcher
    never moves a voxel across the foreground boundary.

    Volumes are compressed and written on a small pool, at most
    ``_WRITES_IN_FLIGHT`` at a time, while this thread renders the next
    phantom. Every random draw stays on this thread, so the bytes do not
    depend on the timing. The first failed write raises its ``IoFailure``
    once every started write has finished, and no manifest is written.
    A setting no dataset can use (fewer than 2 sites, fewer than 1
    triplet, a seed whose anatomy seeds leave the Philox key range
    [0, 2**128), a size the structures do not fit) raises
    ``ValueError`` before ``out_dir`` is created.
    """
    if sites < 2:
        raise ValueError(f"need at least 2 sites, got {sites}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def anatomy_seed(k: int, role: int) -> int:
        return seed * 1_000_003 + 2 * k + role

    # Building the specs checks the geometry and the seeds, the first
    # and the largest, before anything is written.
    dims = (size, size, size)
    first = PhantomSpec(dims, anatomy_seed(0, 0), _structures(dims))
    structures = first.structures
    PhantomSpec(dims, anatomy_seed(n - 1, 1), structures)
    # the target is a different "subject": slightly larger structures, so
    # its foreground count differs and matching actually interpolates
    target_structures = PhantomSpec(
        dims, first.seed, _structures(dims, radius_scale=1.06)
    ).structures
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = ForegroundPolicy()

    seg_name = "seg.nii.gz"
    rows = []
    with ThreadPoolExecutor(_WRITES_IN_FLIGHT) as pool:
        in_flight = deque()

        def write(grid: VoxelGrid, name: str) -> None:
            """Write ``grid`` on the pool, first waiting for the oldest write
            when the cap is reached; a failed write raises here."""
            if len(in_flight) == _WRITES_IN_FLIGHT:
                in_flight.popleft().result()
            in_flight.append(pool.submit(write_volume, grid, out_dir / name))

        # record 0's input anatomy, at site 0's identity map
        grid_in, seg = generate_phantom(first)
        write(VoxelGrid(dims, seg.spacing, seg.labels), seg_name)
        del seg
        for k in range(n):
            site_in = k % sites
            site_out = (site_in + 1) % sites
            t_in, t_out = _site_transform(site_in), _site_transform(site_out)
            names = {
                "input_path": f"input_{k:03d}.nii.gz",
                "target_path": f"target_{k:03d}.nii.gz",
                "pred_path": f"pred_{k:03d}.nii.gz",
                "gt_path": f"gt_{k:03d}.nii.gz",
            }

            if k:
                grid_in = _render(
                    PhantomSpec(dims, anatomy_seed(k, 0), structures, site_transform=t_in)
                )
            write(
                _render(PhantomSpec(dims, anatomy_seed(k, 0), structures, site_transform=t_out)),
                names["gt_path"],
            )
            grid_tg = _render(
                PhantomSpec(dims, anatomy_seed(k, 1), target_structures, site_transform=t_out)
            )
            grid_pr = histogram_match(grid_in, grid_tg, policy)
            write(grid_in, names["input_path"])
            write(grid_tg, names["target_path"])
            write(grid_pr, names["pred_path"])
            rows.append(
                {
                    "id": f"triplet-{k:03d}",
                    **names,
                    "seg_input_path": seg_name,
                    "seg_pred_path": seg_name,
                    "site_in": _site_name(site_in),
                    "site_out": _site_name(site_out),
                    "channel": "",
                }
            )
        for future in in_flight:
            future.result()

    manifest = out_dir / "manifest.csv"
    fieldnames = [
        "id", "input_path", "target_path", "pred_path", "gt_path",
        "seg_input_path", "seg_pred_path", "site_in", "site_out", "channel",
    ]
    with open(manifest, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return manifest
