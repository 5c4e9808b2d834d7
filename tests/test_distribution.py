"""Foreground extraction and empirical distributions."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmbench.distribution import (
    EmpiricalDistribution,
    ForegroundPolicy,
    extract_foreground,
    foreground_mask,
)
from harmbench.errors import DimsMismatch, EmptyForeground
from harmbench.volume import LabelVolume, VoxelGrid


def _grid(values, dims=None):
    values = np.asarray(values, dtype=np.float64)
    if dims is None:
        dims = (values.size, 1, 1)
    return VoxelGrid(dims, (1, 1, 1), values)


def test_threshold_extraction_definition():
    dist = extract_foreground(_grid([0, 0, 2, 3]), ForegroundPolicy())
    np.testing.assert_array_equal(dist.values, [2.0, 3.0])
    assert dist.n == 2


def test_threshold_is_strict():
    dist = extract_foreground(_grid([1, 1, 2]), ForegroundPolicy(threshold=1.0))
    np.testing.assert_array_equal(dist.values, [2.0])


def test_all_zero_grid_is_empty_foreground():
    with pytest.raises(EmptyForeground):
        extract_foreground(_grid([0, 0, 0, 0]), ForegroundPolicy())


def test_extraction_count_matches_direct_scan():
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 1, 16 ** 3)
    values[rng.choice(16 ** 3, size=500, replace=False)] = 0.0
    zeros = int(np.sum(values == 0.0))
    dist = extract_foreground(_grid(values, (16, 16, 16)), ForegroundPolicy())
    assert dist.n == 16 ** 3 - zeros


def test_mask_mode_and_dims_check():
    grid = _grid([5, 0, 7, 0])
    mask = LabelVolume((4, 1, 1), (1, 1, 1), np.array([1, 0, 0, 2]))
    policy = ForegroundPolicy(mask=mask)
    dist = extract_foreground(grid, policy)
    np.testing.assert_array_equal(dist.values, [0.0, 5.0])  # masked-in, sorted
    bad = LabelVolume((2, 1, 1), (1, 1, 1), np.array([1, 1]))
    with pytest.raises(DimsMismatch):
        foreground_mask(grid, ForegroundPolicy(mask=bad))
    # same dims, another spacing: voxel i of the mask is not voxel i of the grid
    thick = LabelVolume((4, 1, 1), (1, 1, 2), np.array([1, 0, 0, 2]))
    with pytest.raises(DimsMismatch) as info:
        foreground_mask(grid, ForegroundPolicy(mask=thick))
    assert str(info.value) == "mask (4, 1, 1) at (1.0, 1.0, 2.0) mm != grid (4, 1, 1) at (1.0, 1.0, 1.0) mm"


def test_mask_with_a_threshold_is_rejected():
    # the mask replaces the threshold: one given beside it would be ignored
    mask = LabelVolume((4, 1, 1), (1, 1, 1), np.array([1, 0, 0, 2]))
    with pytest.raises(ValueError, match="must stay 0"):
        ForegroundPolicy(threshold=1.0, mask=mask)


@given(st.permutations(list(range(12))))
@settings(max_examples=100)
def test_extraction_is_order_independent(perm):
    base = np.array([0, 0, 0.5, 1.5, 2.5, 2.5, 3, 4, 5, 6, 7, 8], dtype=np.float64)
    a = extract_foreground(_grid(base), ForegroundPolicy())
    b = extract_foreground(_grid(base[perm]), ForegroundPolicy())
    assert a == b


@pytest.mark.parametrize("f", [lambda v: 2.0 * v, lambda v: v * v])
def test_monotone_maps_commute_with_extraction(f):
    rng = np.random.default_rng(9)
    values = np.concatenate([np.zeros(20), rng.uniform(0.1, 9, 80)])
    rng.shuffle(values)
    grid = _grid(values)
    mapped = extract_foreground(_grid(f(values)), ForegroundPolicy())
    np.testing.assert_array_equal(mapped.values, f(extract_foreground(grid, ForegroundPolicy()).values))


def test_distribution_invariants_enforced():
    with pytest.raises(ValueError, match="nondecreasing"):
        EmpiricalDistribution([2.0, 1.0])  # unsorted
    with pytest.raises(ValueError, match="finite"):
        EmpiricalDistribution([1.0, np.nan, 2.0])  # NaN compares as in order
    with pytest.raises(ValueError, match="at least one sample"):
        EmpiricalDistribution([])
    with pytest.raises(ValueError, match="at least one sample"):
        EmpiricalDistribution.from_samples([])


@given(
    st.sampled_from([np.float32, np.int16]),
    st.integers(1, 400),
    st.floats(-1.0, 1.0),
    st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_foreground_is_the_sorted_samples_in_the_grid_dtype_byte_for_byte(dtype, n, threshold, seed):
    """The foreground is the selected samples sorted in the grid's own
    dtype, byte for byte, and value for value the sorted float64
    widening: widening is exact and monotone. Signed zeros compare equal
    and either sort may order them either way, so the grids hold no -0.0."""
    rng = np.random.default_rng(seed)
    info = np.finfo(dtype) if dtype == np.float32 else np.iinfo(dtype)
    special = np.array([info.min, info.max, 0, 1, 2], dtype=dtype)
    if dtype == np.float32:
        special = np.append(special, [info.tiny, np.float32(0.1), np.nextafter(np.float32(0.1), 1)])
        spread = rng.uniform(-200.0, 200.0, n).astype(dtype)
    else:
        spread = rng.integers(info.min, info.max, n, endpoint=True).astype(dtype)
    values = np.where(rng.random(n) < 0.3, rng.choice(special, n), spread).astype(dtype)
    values[values == 0] = 0  # no -0.0
    grid = VoxelGrid((n, 1, 1), (1, 1, 1), values)
    policy = ForegroundPolicy(threshold=threshold)
    mask = foreground_mask(grid, policy)
    if not mask.any():
        return
    dist = extract_foreground(grid, policy)
    want = np.sort(values[mask])
    assert dist.values.dtype == dtype
    assert dist.values.tobytes() == want.tobytes()
    widened = np.sort(values[mask].astype(np.float64))
    assert dist.values.astype(np.float64).tobytes() == widened.tobytes()
    assert dist.n == want.size


def test_float32_foreground_makes_no_float64_copy():
    # the samples are gathered and sorted in float32: 4 bytes a sample,
    # plus the mask's one a voxel, where a float64 copy would add 8
    values = np.random.default_rng(9).uniform(1.0, 300.0, 10**6).astype(np.float32)
    grid = VoxelGrid((100, 100, 100), (1, 1, 1), values)
    tracemalloc.start()
    try:
        dist = extract_foreground(grid, ForegroundPolicy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.n == values.size and dist.values.dtype == np.float32
    assert peak < 8 * dist.n, f"peak {peak / dist.n:.2f} bytes per sample"
