"""Paired MAE/MSE/PSNR/SSIM against direct-formula oracles."""
import math

import numpy as np
import pytest

from harmbench.errors import DegenerateRange, DimsMismatch, EmptyForeground
from harmbench.reference import PSNR_PERFECT, SsimParams, paired_metrics
from harmbench.volume import VoxelGrid

from oracles import mae_mse_direct, ssim_per_window


def _grid(values, dims=(8, 8, 8)):
    return VoxelGrid(dims, (1, 1, 1), np.asarray(values, dtype=np.float64))


def _random_pair(seed, dims=(8, 8, 8), zero_frac=0.2):
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1] * dims[2]
    a = rng.uniform(0.5, 10.0, n)
    b = rng.uniform(0.5, 10.0, n)
    idx = rng.choice(n, size=int(zero_frac * n), replace=False)
    a[idx] = 0.0
    idx = rng.choice(n, size=int(zero_frac * n), replace=False)
    b[idx] = 0.0
    return _grid(a, dims), _grid(b, dims)


def _normalized_and_fg(pred, gt):
    fg = (pred.values > 0) | (gt.values > 0)
    lo = min(pred.values[fg].min(), gt.values[fg].min())
    hi = max(pred.values[fg].max(), gt.values[fg].max())
    return (pred.values - lo) / (hi - lo), (gt.values - lo) / (hi - lo), fg


def test_identity_pair_is_perfect():
    pred, _ = _random_pair(1)
    row = paired_metrics(pred, pred)
    assert row.mae == 0.0
    assert row.mse == 0.0
    assert row.ssim == 1.0
    assert row.psnr_db == PSNR_PERFECT and math.isinf(row.psnr_db)


def test_psnr_formula_at_known_mse():
    # mse 0.01 on a unit range must give exactly 20 dB
    assert 10.0 * math.log10(1.0 / 0.01) == pytest.approx(20.0, abs=1e-12)
    n = 1000
    values_gt = np.full(n, 2.0)
    values_gt[0] = 1.0  # anchors the joint foreground range to [1, 2]
    values_pred = values_gt.copy()
    values_pred[1:101] = 2.0 - np.sqrt(0.1)  # 100 voxels, normalized delta^2 = 0.1
    pred, gt = _grid(values_pred, (10, 10, 10)), _grid(values_gt, (10, 10, 10))
    row = paired_metrics(pred, gt)
    assert row.mse == pytest.approx(0.01, rel=1e-9)
    assert row.psnr_db == pytest.approx(20.0, abs=1e-6)


def test_constant_volumes_hit_closed_form_ssim():
    # both volumes constant on the foreground, normalized to 0 and 1:
    # every window is constant, local score collapses to C1/(1+C1)
    pred = _grid(np.full(8 ** 3, 2.0))
    gt = _grid(np.full(8 ** 3, 4.0))
    row = paired_metrics(pred, gt)
    c1 = (0.01 * 1.0) ** 2
    assert row.ssim == pytest.approx(c1 / (1.0 + c1), abs=1e-12)
    assert row.ssim == pytest.approx(9.999e-5, abs=1e-8)
    a, b, fg = _normalized_and_fg(pred, gt)
    want = ssim_per_window(
        a.reshape(pred.dims, order="F"),
        b.reshape(pred.dims, order="F"),
        _valid(pred, fg),
        7, c1, (0.03) ** 2,
    )
    assert row.ssim == pytest.approx(want, abs=1e-9)


def _valid(grid, fg, window=7):
    r = window // 2
    nx, ny, nz = grid.dims
    interior = np.zeros(grid.dims, dtype=bool)
    interior[r : nx - r, r : ny - r, r : nz - r] = True
    return interior & fg.reshape(grid.dims, order="F")


@pytest.mark.parametrize("seed", range(6))
def test_random_pairs_match_per_window_oracle(seed):
    pred, gt = _random_pair(seed + 100)
    row = paired_metrics(pred, gt)
    a, b, fg = _normalized_and_fg(pred, gt)
    mae_want, mse_want = mae_mse_direct(a, b, fg)
    assert row.mae == pytest.approx(mae_want, abs=1e-12)
    assert row.mse == pytest.approx(mse_want, abs=1e-12)
    assert row.psnr_db == pytest.approx(10 * math.log10(1 / mse_want), abs=1e-9)
    ssim_want = ssim_per_window(
        a.reshape(pred.dims, order="F"),
        b.reshape(pred.dims, order="F"),
        _valid(pred, fg),
        7,
        (0.01) ** 2,
        (0.03) ** 2,
    )
    assert row.ssim == pytest.approx(ssim_want, abs=1e-6)


def test_ssim_is_symmetric_exactly():
    pred, gt = _random_pair(7)
    assert paired_metrics(pred, gt).ssim == paired_metrics(gt, pred).ssim
    assert paired_metrics(pred, gt).mae == paired_metrics(gt, pred).mae


def test_union_foreground_catches_hallucinated_tissue():
    rng = np.random.default_rng(71)
    gt_values = np.zeros(8 ** 3)
    gt_values[:260] = rng.uniform(4.0, 6.0, 260)
    pred_values = gt_values.copy()
    pred_values[300:350] = 5.0  # tissue over gt background
    row = paired_metrics(_grid(pred_values), _grid(gt_values))
    assert row.mae > 0.0


def test_jensen_inequality_between_mae_and_mse():
    for seed in range(5):
        pred, gt = _random_pair(seed + 50)
        row = paired_metrics(pred, gt)
        assert row.mae ** 2 <= row.mse + 1e-15


def test_noise_monotonically_degrades_psnr():
    rng = np.random.default_rng(63)
    n = 10 ** 3
    base = rng.uniform(0.3, 0.7, n)
    base[0], base[1] = 0.01, 1.0  # range anchors noise never touches
    noise = rng.uniform(-1.0, 1.0, n)
    noise[:2] = 0.0
    psnrs = []
    for amplitude in (0.01, 0.05, 0.1, 0.2, 0.28):
        pred = np.clip(base + amplitude * noise, 0.005, 1.0)
        pred[0], pred[1] = 0.01, 1.0
        row = paired_metrics(_grid(pred, (10, 10, 10)), _grid(base, (10, 10, 10)))
        psnrs.append(row.psnr_db)
    assert all(a >= b for a, b in zip(psnrs, psnrs[1:]))


def test_dims_mismatch():
    with pytest.raises(DimsMismatch):
        paired_metrics(_grid(np.ones(8 ** 3)), _grid(np.ones(27), (3, 3, 3)))


def test_spacing_mismatch_names_both_grids():
    # same dims and voxels, but a 2 mm slice axis: voxel i of one is not voxel i of the other
    pred, _ = _random_pair(3)
    thick = VoxelGrid(pred.dims, (1, 1, 2), pred.values)
    with pytest.raises(DimsMismatch) as info:
        paired_metrics(thick, pred)
    assert str(info.value) == "pred (8, 8, 8) at (1.0, 1.0, 2.0) mm != gt (8, 8, 8) at (1.0, 1.0, 1.0) mm"
    with pytest.raises(DimsMismatch, match=r"^pred \(8, 8, 8\) at \(1.0, 1.0, 1.0\) mm != gt"):
        paired_metrics(pred, thick)


def test_empty_foreground():
    with pytest.raises(EmptyForeground):
        paired_metrics(_grid(np.zeros(8 ** 3)), _grid(np.zeros(8 ** 3)))


def test_degenerate_range():
    with pytest.raises(DegenerateRange):
        paired_metrics(_grid(np.full(8 ** 3, 3.0)), _grid(np.full(8 ** 3, 3.0)))


def test_window_larger_than_volume_rejected():
    with pytest.raises(ValueError, match="window"):
        paired_metrics(
            _grid(np.ones(27), (3, 3, 3)), _grid(np.full(27, 2.0), (3, 3, 3))
        )


def test_ssim_params_validation():
    with pytest.raises(ValueError):
        SsimParams(window=4)
    with pytest.raises(ValueError):
        SsimParams(window=1)
    with pytest.raises(ValueError):
        SsimParams(k1=0.0)
    params = SsimParams(window=5, k1=0.02, k2=0.05)
    assert params.c1 == 0.02 ** 2
    assert params.c2 == 0.05 ** 2


def test_custom_window_matches_oracle():
    pred, gt = _random_pair(200, dims=(6, 6, 6), zero_frac=0.0)
    params = SsimParams(window=5)
    row = paired_metrics(pred, gt, params=params)
    a, b, fg = _normalized_and_fg(pred, gt)
    interior = np.zeros(pred.dims, dtype=bool)
    interior[2:4, 2:4, 2:4] = True
    valid = interior & fg.reshape(pred.dims, order="F")
    want = ssim_per_window(
        a.reshape(pred.dims, order="F"),
        b.reshape(pred.dims, order="F"),
        valid,
        5,
        params.c1,
        params.c2,
    )
    assert row.ssim == pytest.approx(want, abs=1e-6)


# The SSIM filter reads only the bounding box of the valid window centres
# grown by half a window; these layouts put that box in different places
# of a grid several windows wide.
CROP_DIMS = (26, 28, 30)


def _corners(r, dims):
    # two small blobs in opposite corners: the box spans the whole interior
    fg = np.zeros(dims, dtype=bool)
    fg[: r + 2, : r + 2, : r + 2] = True
    fg[-r - 2 :, -r - 2 :, -r - 2 :] = True
    return fg


def _face_points(r, dims):
    # one valid centre at index r and one at n-1-r on every axis
    fg = np.zeros(dims, dtype=bool)
    mid = tuple(n // 2 for n in dims)
    for axis, n in enumerate(dims):
        for edge in (r, n - 1 - r):
            point = list(mid)
            point[axis] = edge
            fg[tuple(point)] = True
    return fg


def _single_centre(r, dims):
    # one interior voxel; everything else in the foreground is margin,
    # where no full window fits
    fg = np.ones(dims, dtype=bool)
    fg[tuple(slice(r, n - r) for n in dims)] = False
    fg[r + 1, dims[1] // 2, dims[2] - 2 - r] = True
    return fg


def _sparse_pair(fg, seed):
    rng = np.random.default_rng(seed)
    a, b = (np.where(fg, rng.uniform(0.5, 10.0, fg.shape), 0.0) for _ in range(2))
    return (_grid(v.ravel(order="F"), fg.shape) for v in (a, b))


@pytest.mark.parametrize("window", [3, 7, 9])
@pytest.mark.parametrize("layout", [_corners, _face_points, _single_centre])
def test_cropped_ssim_matches_per_window_oracle(layout, window):
    r = window // 2
    pred, gt = _sparse_pair(layout(r, CROP_DIMS), seed=window)
    params = SsimParams(window=window)
    row = paired_metrics(pred, gt, params=params)
    a, b, fg = _normalized_and_fg(pred, gt)
    want = ssim_per_window(
        a.reshape(pred.dims, order="F"),
        b.reshape(pred.dims, order="F"),
        _valid(pred, fg, window),
        window,
        params.c1,
        params.c2,
    )
    assert row.ssim == pytest.approx(want, abs=1e-6)


def test_cropped_ssim_identity_and_symmetry_exact():
    pred, gt = _sparse_pair(_corners(3, CROP_DIMS), seed=11)
    assert paired_metrics(pred, pred).ssim == 1.0
    assert paired_metrics(pred, gt).ssim == paired_metrics(gt, pred).ssim
