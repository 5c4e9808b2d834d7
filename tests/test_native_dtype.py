"""Metrics on native-dtype grids equal the same metrics on their float64 widening.

Loaded grids keep the file's dtype, so every metric must widen the
voxels it reads before any arithmetic: numpy computes ``float32 - 0.1``
and ``float32 > 0.1`` in float32. The thresholds below are not float32
values, and the grids hold the voxels next to them.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmbench.anatomy import as_label_volume
from harmbench.distribution import EmpiricalDistribution, ForegroundPolicy, extract_foreground
from harmbench.errors import HarmbenchError
from harmbench.reference import SsimParams, paired_metrics
from harmbench.synth import histogram_match
from harmbench.volume import VoxelGrid
from harmbench.wasserstein import nwd

THRESHOLDS = [0.0, 0.1, 0.3, 1.0 / 3.0, 4.9999999, -0.1]


def _voxels(rng, n, dtype, threshold, near_share, integral, nonnegative):
    """``n`` voxels of ``dtype``, about ``near_share`` of them at or next
    to ``threshold`` and the rest spread over the intensity range."""
    if dtype == np.float32:
        t = np.float32(threshold)
        near = [0.0, t, np.nextafter(t, np.float32(-1.0e9)), np.nextafter(t, np.float32(1.0e9))]
        far = rng.uniform(-5.0, 200.0, n)
    else:
        t = math.floor(threshold)
        near = [0, t - 1, t, t + 1, t + 2]
        far = rng.integers(-300, 301, n)
    values = np.where(rng.random(n) < near_share, rng.choice(np.array(near, dtype), n), far)
    if integral:
        values = np.round(values)
    if nonnegative:
        values = np.abs(values)
    return values.astype(dtype)


@st.composite
def grid_triplets(draw):
    """Three native grids of one shape and dtype, and a foreground threshold."""
    dims = tuple(draw(st.integers(3, 6)) for _ in range(3))
    n = dims[0] * dims[1] * dims[2]
    dtype = draw(st.sampled_from([np.float32, np.int16]))
    threshold = draw(st.sampled_from(THRESHOLDS))
    near_share = draw(st.sampled_from([0.0, 0.3, 0.9]))
    integral, nonnegative = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b, c = (
        VoxelGrid(
            dims, (1, 1, 1),
            _voxels(rng, n, dtype, threshold, near_share, integral, nonnegative),
        )
        for _ in "abc"
    )
    return a, b, c, threshold


def _widened(grid):
    return VoxelGrid(grid.dims, grid.spacing, grid.values.astype(np.float64))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (HarmbenchError, ValueError) as exc:
        return type(exc)


@given(grid_triplets())
@settings(max_examples=300, deadline=None)
def test_metrics_equal_on_native_and_widened_grids(case):
    a, b, c, threshold = case
    assert a.values.dtype != np.float64
    wa, wb, wc = _widened(a), _widened(b), _widened(c)
    policy = ForegroundPolicy(threshold=threshold)
    ssim = SsimParams(window=3)

    # the foregrounds keep the grid's dtype; W1 widens them block by block
    native = [_outcome(extract_foreground, g, policy) for g in (a, b, c)]
    widened = [_outcome(extract_foreground, g, policy) for g in (wa, wb, wc)]
    assert native == widened
    if all(isinstance(d, EmpiricalDistribution) for d in native):
        assert {d.values.dtype for d in native} == {a.values.dtype}
        assert _outcome(nwd, *native) == _outcome(nwd, *widened)
    assert _outcome(paired_metrics, a, b, policy, ssim) == _outcome(
        paired_metrics, wa, wb, policy, ssim
    )
    assert _outcome(as_label_volume, a) == _outcome(as_label_volume, wa)
    matched = _outcome(histogram_match, a, b, policy)
    assert matched == _outcome(histogram_match, wa, wb, policy)
    if isinstance(matched, VoxelGrid):
        assert matched.values.dtype == np.float64


def test_a_grid_keeps_its_dtype_and_refuses_complex_voxels():
    for dtype in (np.int16, np.uint8, np.float32, np.float64):
        assert VoxelGrid((2, 1, 1), (1, 1, 1), np.array([1, 2], dtype)).values.dtype == dtype
    assert VoxelGrid((2, 1, 1), (1, 1, 1), np.array([True, False])).values.dtype == np.float64
    with pytest.raises(ValueError, match=r"^voxel values must be real, got dtype complex128$"):
        VoxelGrid((1, 1, 1), (1, 1, 1), np.array([1 + 2j]))


def test_a_distribution_keeps_its_dtype_and_refuses_complex_values():
    for dtype in (np.int16, np.uint8, np.float32, np.float64):
        assert EmpiricalDistribution(np.array([1, 2], dtype)).values.dtype == dtype
        assert EmpiricalDistribution.from_samples(np.array([2, 1], dtype)).values.dtype == dtype
    assert EmpiricalDistribution(np.array([False, True])).values.dtype == np.float64
    with pytest.raises(ValueError, match=r"^values must be real, got dtype complex128$"):
        EmpiricalDistribution(np.array([1 + 2j]))
    with pytest.raises(ValueError, match=r"^samples must be real, got dtype complex128$"):
        EmpiricalDistribution.from_samples([1 + 2j])
