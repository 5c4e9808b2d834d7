"""Classical full-reference quality metrics on paired volumes.

All four metrics are computed after background removal: the pair is
jointly min-max normalized by the minimum and maximum intensity found
on the union of the two foregrounds, errors are averaged over that same
union, and the structural similarity map is evaluated only at fully
interior windows whose center voxel is foreground.

The structural similarity uses a cubic uniform window (population
moments, every voxel in the window weighted equally). Absolute SSIM
numbers from tools using Gaussian-weighted 2-D windows will differ.
Only the bounding box of the valid window centres, grown by half a
window, is filtered, with one cumulative-sum difference per axis; the
values equal those of a whole-grid filter up to float rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import ForegroundPolicy, foreground_mask
from .errors import DegenerateRange, EmptyForeground
from .volume import VoxelGrid, require_same_grid

PSNR_PERFECT = math.inf  # sentinel for a zero-error pair; aggregation skips it


@dataclass(frozen=True)
class SsimParams:
    """Window size and stabilization constants for structural similarity.

    Images are normalized to [0, 1] before SSIM, so the dynamic range is 1
    and the constants are ``k1**2`` and ``k2**2``.
    """

    window: int = 7
    k1: float = 0.01
    k2: float = 0.03

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if not (0 < self.k1 < math.inf and 0 < self.k2 < math.inf):
            raise ValueError(f"k1 and k2 must be positive and finite, got {self.k1!r}, {self.k2!r}")

    @property
    def c1(self) -> float:
        return self.k1 ** 2

    @property
    def c2(self) -> float:
        return self.k2 ** 2


@dataclass(frozen=True)
class PairedMetricRow:
    ssim: float
    psnr_db: float
    mae: float
    mse: float


def _box_mean(x: np.ndarray, w: int) -> np.ndarray:
    """Mean of every full w*w*w window of ``x`` ('valid' mode): one
    cumulative-sum difference per axis, so each axis shrinks by w - 1."""
    for axis in range(x.ndim):
        c = np.cumsum(np.moveaxis(x, axis, 0), axis=0)
        s = c[w - 1 :].copy()
        s[1:] -= c[:-w]
        x = np.moveaxis(s, 0, axis)
    return x / float(w ** x.ndim)


def _ssim_mean(
    x: np.ndarray,
    y: np.ndarray,
    core: np.ndarray,
    lo: float,
    scale: float,
    params: SsimParams,
) -> float:
    """Mean local SSIM of ``(x - lo) / scale`` against ``(y - lo) / scale``
    over the windows centred on the voxels ``core`` marks.

    ``core`` covers the interior, the centres at least ``window // 2``
    from every grid edge, so each axis of ``x`` is ``window - 1`` longer
    than the same axis of ``core``. Those windows read only the bounding
    box of the marked centres grown by that margin; only that box is
    normalized and filtered.
    """
    w = params.window
    box, grown = [], []
    for axis in range(core.ndim):
        others = tuple(a for a in range(core.ndim) if a != axis)
        hit = np.flatnonzero(core.any(axis=others))
        start, stop = int(hit[0]), int(hit[-1]) + 1
        box.append(slice(start, stop))
        grown.append(slice(start, stop + w - 1))
    x = (x[tuple(grown)].astype(np.float64) - lo) / scale
    y = (y[tuple(grown)].astype(np.float64) - lo) / scale
    ux = _box_mean(x, w)
    uy = _box_mean(y, w)
    vx = _box_mean(x * x, w) - ux * ux
    vy = _box_mean(y * y, w) - uy * uy
    cov = _box_mean(x * y, w) - ux * uy
    c1, c2 = params.c1, params.c2
    ssim_map = ((2.0 * ux * uy + c1) * (2.0 * cov + c2)) / (
        (ux * ux + uy * uy + c1) * (vx + vy + c2)
    )
    return float(np.mean(ssim_map[core[tuple(box)]]))


def paired_metrics(
    pred: VoxelGrid,
    gt: VoxelGrid,
    policy: ForegroundPolicy = ForegroundPolicy(),
    params: SsimParams = SsimParams(),
) -> PairedMetricRow:
    """MAE, MSE, PSNR and SSIM of a prediction against its ground truth.

    A bit-identical pair returns (ssim=1, psnr=+inf sentinel, mae=0,
    mse=0). The union foreground is used rather than the intersection so
    tissue hallucinated over background is counted, not hidden. The two
    grids must share dims and spacing exactly, as stored: the metrics
    pair voxel with voxel.
    """
    require_same_grid(pred, "pred", gt, "gt")
    fg = foreground_mask(pred, policy) | foreground_mask(gt, policy)
    p = pred.values[fg].astype(np.float64)
    g = gt.values[fg].astype(np.float64)
    if not p.size:
        raise EmptyForeground("neither image has foreground under this policy")
    lo = min(float(p.min()), float(g.min()))
    hi = max(float(p.max()), float(g.max()))
    if not hi > lo:
        raise DegenerateRange("joint foreground min equals max; cannot normalize")

    scale = hi - lo
    diff = (p - lo) / scale - (g - lo) / scale
    mae = float(np.mean(np.abs(diff)))
    mse = float(np.mean(diff * diff))
    psnr_db = PSNR_PERFECT if mse == 0.0 else 10.0 * math.log10(1.0 / mse)

    w = params.window
    nx, ny, nz = pred.dims
    if min(nx, ny, nz) < w:
        raise ValueError(f"SSIM window {w} exceeds volume extent {pred.dims}")
    r = w // 2
    core = fg.reshape(pred.dims, order="F")[r : nx - r, r : ny - r, r : nz - r]
    if not core.any():
        raise EmptyForeground("no full window has a foreground center")
    ssim = _ssim_mean(pred.as_array(), gt.as_array(), core, lo, scale, params)

    return PairedMetricRow(ssim=ssim, psnr_db=psnr_db, mae=mae, mse=mse)
