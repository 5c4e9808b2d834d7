"""Foreground extraction and binning."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmbench.distribution import (
    EmpiricalDistribution,
    ForegroundPolicy,
    coarsen,
    coarsen_jointly,
    extract_foreground,
    foreground_mask,
)
from harmbench.errors import DimsMismatch, EmptyForeground, InvalidRange
from harmbench.volume import LabelVolume, VoxelGrid

from oracles import histogram_direct


def _grid(values, dims=None):
    values = np.asarray(values, dtype=np.float64)
    if dims is None:
        dims = (values.size, 1, 1)
    return VoxelGrid(dims, (1, 1, 1), values)


def test_threshold_extraction_definition():
    dist = extract_foreground(_grid([0, 0, 2, 3]), ForegroundPolicy())
    np.testing.assert_array_equal(dist.values, [2.0, 3.0])
    np.testing.assert_array_equal(dist.counts, [1, 1])
    np.testing.assert_array_equal(dist.weights, [0.5, 0.5])


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
    mask = LabelVolume((4, 1, 1), (1, 1, 1), np.array([1, 0, 0, 2]), {1: "a", 2: "b"})
    policy = ForegroundPolicy(mask=mask)
    dist = extract_foreground(grid, policy)
    np.testing.assert_array_equal(dist.values, [0.0, 5.0])  # masked-in, sorted
    bad = LabelVolume((2, 1, 1), (1, 1, 1), np.array([1, 1]), {1: "a"})
    with pytest.raises(DimsMismatch):
        foreground_mask(grid, ForegroundPolicy(mask=bad))


def test_multichannel_grid_rejected():
    grid = VoxelGrid((2, 1, 1), (1, 1, 1), np.arange(4.0), channel_count=2)
    with pytest.raises(ValueError, match="single-channel"):
        extract_foreground(grid, ForegroundPolicy())


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
        EmpiricalDistribution([2.0, 1.0], [1, 1])  # unsorted
    with pytest.raises(ValueError, match="positive"):
        EmpiricalDistribution([1.0, 2.0], [1, 0])  # zero count
    with pytest.raises(ValueError, match="integers"):
        EmpiricalDistribution([1.0, 2.0], [0.5, 0.5])  # float counts
    with pytest.raises(ValueError, match="equal length"):
        EmpiricalDistribution([1.0], [1, 1])  # length mismatch
    with pytest.raises(ValueError):
        EmpiricalDistribution([], [])


# ---------------------------------------------------------------- binning


def test_histogram_two_bins():
    dist = EmpiricalDistribution([0.0, 1.0], [1, 1])
    out = coarsen(dist, 2, (0.0, 2.0))
    np.testing.assert_array_equal(out.counts, [1, 1])
    np.testing.assert_array_equal(out.values, [0.5, 1.5])


def test_histogram_single_sample_single_nonzero_bin():
    dist = EmpiricalDistribution([3.3], [1])
    for bins in (1, 5, 64):
        out = coarsen(dist, bins, (0.0, 10.0))
        assert out.n == 1
        np.testing.assert_array_equal(out.counts, [1])


def test_histogram_upper_edge_belongs_to_last_bin():
    dist = EmpiricalDistribution([0.0, 2.0], [1, 1])
    out = coarsen(dist, 4, (0.0, 2.0))
    np.testing.assert_array_equal(out.values, [0.25, 1.75])
    np.testing.assert_array_equal(out.counts, [1, 1])


def test_histogram_clamps_outliers_to_boundary_bins():
    dist = EmpiricalDistribution([-10.0, 0.5, 99.0], [1, 1, 1])
    out = coarsen(dist, 2, (0.0, 1.0))
    # -10 clamps into bin [0, 0.5); 0.5 opens bin [0.5, 1.0); 99 clamps into it
    np.testing.assert_array_equal(out.values, [0.25, 0.75])
    np.testing.assert_array_equal(out.counts, [1, 2])


def test_histogram_uniform_counts_near_uniform():
    rng = np.random.default_rng(123)
    dist = EmpiricalDistribution.from_samples(rng.uniform(0, 1, 1000))
    out = coarsen(dist, 10, (0.0, 1.0))
    assert out.n == 10
    assert np.all(np.abs(out.counts - 100) < 50)


def test_histogram_matches_direct_counting_oracle():
    rng = np.random.default_rng(77)
    samples = rng.normal(5, 2, 400)
    dist = EmpiricalDistribution.from_samples(samples)
    out = coarsen(dist, 16, (0.0, 10.0))
    want = np.array(histogram_direct(dist.values, dist.counts, 16, 0.0, 10.0))
    centers = np.linspace(0.0, 10.0, 17)[:-1] + 10.0 / 32
    np.testing.assert_array_equal(out.counts, want[want > 0])
    np.testing.assert_allclose(out.values, centers[want > 0], atol=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=200), st.integers(1, 64))
@settings(max_examples=150)
def test_histogram_conserves_weight(samples, bins):
    dist = EmpiricalDistribution.from_samples(samples)
    out = coarsen(dist, bins, (-60.0, 60.0))
    assert out.counts.dtype == np.int64
    assert int(out.counts.sum()) == dist.n == len(samples)


def test_invalid_ranges():
    dist = EmpiricalDistribution([1.0], [1])
    with pytest.raises(InvalidRange):
        coarsen(dist, 0, (0.0, 1.0))
    with pytest.raises(InvalidRange):
        coarsen(dist, 4, (1.0, 1.0))
    with pytest.raises(InvalidRange):
        coarsen(dist, 4, (2.0, 1.0))


# ------------------------------------------------------------ cap policy


def test_coarsen_concentrates_mass_at_centers():
    dist = EmpiricalDistribution.from_samples([0.1, 0.1, 0.9])
    out = coarsen(dist, 2, (0.0, 1.0))
    np.testing.assert_array_equal(out.values, [0.25, 0.75])
    np.testing.assert_array_equal(out.counts, [2, 1])


def test_coarsen_jointly_auto_respects_cap():
    small = EmpiricalDistribution.from_samples(np.linspace(0, 1, 50))
    big = EmpiricalDistribution.from_samples(np.linspace(0, 1, 2000))
    out = coarsen_jointly((small, big), bins=8, exact_cap=100, mode="auto")
    assert out[0].n <= 8 and out[1].n <= 8
    untouched = coarsen_jointly((small, big), bins=8, exact_cap=10_000, mode="auto")
    assert untouched == (small, big)
    forced = coarsen_jointly((small,), bins=8, exact_cap=10_000, mode="binned")
    assert forced[0].n <= 8


def test_coarsen_jointly_exact_mode_never_bins():
    big = EmpiricalDistribution.from_samples(np.linspace(0, 1, 2000))
    assert coarsen_jointly((big,), bins=8, exact_cap=10, mode="exact") == (big,)


def test_coarsen_jointly_degenerate_range_passthrough():
    point = EmpiricalDistribution.from_samples([2.0, 2.0, 2.0])
    assert coarsen_jointly((point, point), bins=8, exact_cap=1, mode="binned") == (point, point)
