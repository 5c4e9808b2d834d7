"""Structure volumetry and the anatomy preservation score."""
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmbench.anatomy import (
    anatomy_preservation,
    as_label_volume,
    structure_volumes,
)
from harmbench.errors import NoCommonStructures, ZeroInputVolume
from harmbench.volume import _COUNT_BLOCK, LabelVolume, VoxelGrid, _count_labels

from oracles import label_counts_direct


def _seg(labels, dims=None, spacing=(1, 1, 1)):
    labels = np.asarray(labels, dtype=np.int64)
    if dims is None:
        dims = (labels.size, 1, 1)
    return LabelVolume(dims, spacing, labels)


def _cube_seg(n_labeled, total=1000, label=1, spacing=(1, 1, 1)):
    labels = np.zeros(total, dtype=np.int64)
    labels[:n_labeled] = label
    return _seg(labels, (10, 10, 10), spacing)


def test_counting_with_unit_spacing():
    seg = _seg([1, 1, 1, 1, 0, 0, 0, 0], (2, 2, 2))
    assert structure_volumes(seg) == {1: 4.0}


def test_counting_with_half_millimeter_spacing():
    seg = _seg([1, 1, 1, 1, 0, 0, 0, 0], (2, 2, 2), spacing=(0.5, 0.5, 0.5))
    (volume,) = structure_volumes(seg).values()
    assert volume == pytest.approx(0.5, abs=1e-15)


def test_volumes_match_per_label_scan_oracle():
    rng = np.random.default_rng(13)
    labels = rng.integers(0, 5, size=16 ** 3)
    seg = _seg(labels, (16, 16, 16), spacing=(0.7, 0.8, 0.9))
    counts = label_counts_direct(labels)
    voxel = 0.7 * 0.8 * 0.9
    for label, volume in structure_volumes(seg).items():
        assert volume == pytest.approx(counts.get(label, 0) * voxel, rel=1e-12)


def test_identity_preservation_is_exactly_one():
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 4, size=12 ** 3)
    seg = _seg(labels, (12, 12, 12))
    report = anatomy_preservation(seg, seg)
    assert all(v == 1.0 for v in report.per_structure.values())
    assert report.mean_ap == 1.0


def test_ten_percent_shrink_scores_point_nine():
    report = anatomy_preservation(_cube_seg(1000, 1000), _cube_seg(900, 1000))
    assert report.per_structure[1] == pytest.approx(0.9, abs=1e-12)


def test_mean_is_unweighted_average():
    # GM 0.95 (1000 -> 950), WM 0.99 (100 -> 99): unweighted mean 0.97
    labels_i = np.zeros(2000, dtype=np.int64)
    labels_i[:1000] = 1
    labels_i[1000:1100] = 2
    labels_p = np.zeros(2000, dtype=np.int64)
    labels_p[:950] = 1
    labels_p[1000:1099] = 2
    seg_i = LabelVolume((2000, 1, 1), (1, 1, 1), labels_i)
    seg_p = LabelVolume((2000, 1, 1), (1, 1, 1), labels_p)
    report = anatomy_preservation(seg_i, seg_p)
    assert report.per_structure[1] == pytest.approx(0.95, abs=1e-12)
    assert report.per_structure[2] == pytest.approx(0.99, abs=1e-12)
    assert report.mean_ap == pytest.approx(0.97, abs=1e-12)
    weighted = anatomy_preservation(seg_i, seg_p, weighted=True)
    assert weighted.mean_ap == pytest.approx((0.95 * 1000 + 0.99 * 100) / 1100, abs=1e-12)


def test_volume_doubling_goes_negative_unclamped():
    report = anatomy_preservation(_cube_seg(100), _cube_seg(250))
    assert report.per_structure[1] == pytest.approx(-0.5, abs=1e-12)


def test_growth_and_shrink_bounded_above_by_one():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a = int(rng.integers(1, 500))
        b = int(rng.integers(0, 500))
        report = anatomy_preservation(_cube_seg(a), _cube_seg(b))
        assert report.per_structure[1] <= 1.0
        if b > 2 * a:
            assert report.per_structure[1] < 0.0


def test_zero_input_volume_raises():
    # every present label has voxels, so only a voxel volume that
    # underflows to 0.0 (1e-360 mm³) makes an input volume zero
    spacing = (1e-120, 1e-120, 1e-120)
    seg_i = LabelVolume((4, 1, 1), spacing, np.array([0, 0, 0, 1]))
    seg_p = LabelVolume((4, 1, 1), spacing, np.array([2, 0, 0, 1]))
    assert seg_i.voxel_volume_mm3 == 0.0
    with pytest.raises(ZeroInputVolume):
        anatomy_preservation(seg_i, seg_p)


def test_structure_erased_from_the_prediction_is_not_scored():
    # label 2 is in the input only: the mean is label 1's AP alone
    seg_i = _seg([1, 1, 1, 1, 2, 2, 0, 0])
    seg_p = _seg([1, 1, 1, 0, 0, 0, 0, 0])
    report = anatomy_preservation(seg_i, seg_p)
    assert list(report.per_structure) == [1]
    assert report.mean_ap == report.per_structure[1] == 0.75
    assert anatomy_preservation(seg_i, seg_p, weighted=True).mean_ap == 0.75


def test_no_common_structures_raises():
    with pytest.raises(NoCommonStructures):
        anatomy_preservation(_cube_seg(10, label=1), _cube_seg(10, label=2))


def test_dims_mismatch_warns_but_compares_physical_volumes():
    seg_i = _seg([1] * 8, (2, 2, 2))
    seg_p = _seg([1] * 8 + [0] * 19, (3, 3, 3))
    with pytest.warns(UserWarning, match="dims differ"):
        report = anatomy_preservation(seg_i, seg_p)
    assert report.mean_ap == 1.0


@given(st.permutations([1, 2, 3]))
@settings(max_examples=30)
def test_relabeling_permutation_invariance(perm):
    rng = np.random.default_rng(29)
    labels = rng.integers(0, 4, size=10 ** 3)
    mapping = {0: 0, 1: perm[0], 2: perm[1], 3: perm[2]}
    relabeled = np.vectorize(mapping.get)(labels)
    seg_a = LabelVolume((10, 10, 10), (1, 1, 1), labels)
    seg_b = LabelVolume((10, 10, 10), (1, 1, 1), relabeled)
    report_a = anatomy_preservation(seg_a, seg_a)
    report_b = anatomy_preservation(seg_b, seg_b)
    assert {mapping[k]: v for k, v in report_a.per_structure.items()} == report_b.per_structure


@given(st.floats(0.1, 10.0, allow_nan=False))
@settings(max_examples=50)
def test_common_spacing_factor_cancels(factor):
    rng = np.random.default_rng(31)
    labels_i = rng.integers(0, 3, size=8 ** 3)
    labels_p = rng.integers(0, 3, size=8 ** 3)
    base = (1.0, 1.2, 0.8)
    scaled = tuple(s * factor for s in base)
    r1 = anatomy_preservation(
        LabelVolume((8, 8, 8), base, labels_i),
        LabelVolume((8, 8, 8), base, labels_p),
    )
    r2 = anatomy_preservation(
        LabelVolume((8, 8, 8), scaled, labels_i),
        LabelVolume((8, 8, 8), scaled, labels_p),
    )
    for label in r1.per_structure:
        assert r1.per_structure[label] == pytest.approx(r2.per_structure[label], abs=1e-12)


def test_as_label_volume_conversion():
    grid = VoxelGrid((2, 2, 1), (1, 1, 1), [0.0, 1.0, 2.0, 1.0])
    seg = as_label_volume(grid)
    assert seg.voxel_counts == {1: 2, 2: 1}
    with pytest.raises(ValueError):
        as_label_volume(VoxelGrid((1, 1, 1), (1, 1, 1), [0.5]))


@given(st.lists(st.one_of(st.integers(0, 6), st.integers(0, 2 ** 40)), min_size=1, max_size=64))
@settings(max_examples=100)
def test_voxel_counts_match_unique_oracle(values):
    labels = np.array(values, dtype=np.int64)
    seg = LabelVolume((labels.size, 1, 1), (1, 1, 1), labels)
    present, counts = np.unique(labels, return_counts=True)
    expected = {int(v): int(c) for v, c in zip(present, counts) if v != 0}
    assert seg.voxel_counts == expected
    assert list(seg.voxel_counts) == sorted(expected)


@given(
    st.lists(st.integers(0, 300), min_size=1, max_size=200),
    st.floats(0.0, 1.0),
    st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=100)
def test_count_labels_matches_unique_oracle_on_mostly_background(values, background, seed):
    labels = np.array(values, dtype=np.int64)
    labels[np.random.default_rng(seed).random(labels.size) < background] = 0
    present, counts = np.unique(labels, return_counts=True)
    expected = {int(v): int(c) for v, c in zip(present, counts) if v != 0}
    assert _count_labels(labels) == expected
    assert list(_count_labels(labels)) == sorted(expected)
    labels[0] = -1
    with pytest.raises(ValueError, match="nonnegative"):
        _count_labels(labels)


@pytest.mark.parametrize("size", [_COUNT_BLOCK - 1, _COUNT_BLOCK, _COUNT_BLOCK + 1, 3 * _COUNT_BLOCK + 5])
@pytest.mark.parametrize("top", [7, 300, 2 * _COUNT_BLOCK])
def test_count_labels_across_block_edges_matches_unique_oracle(size, top):
    # a table longer than a block makes the blocks that long
    rng = np.random.default_rng(size + top)
    labels = rng.integers(0, top + 1, size).astype(np.uint8 if top < 256 else np.int32)
    labels[rng.random(size) < 0.6] = 0
    labels[-1] = top
    present, counts = np.unique(labels, return_counts=True)
    expected = {int(v): int(c) for v, c in zip(present, counts) if v != 0}
    assert _count_labels(labels) == expected
    assert list(_count_labels(labels)) == sorted(expected)


def test_count_labels_peak_memory_is_a_few_blocks():
    # bincount widens its input to intp: over the whole of a dense 160^3
    # uint8 segmentation that copy alone would be eight bytes a voxel
    labels = np.random.default_rng(9).integers(0, 5, 160 ** 3).astype(np.uint8)
    tracemalloc.start()
    try:
        counts = _count_labels(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == np.count_nonzero(labels)
    block_bytes = _COUNT_BLOCK * 8
    assert peak < 4 * block_bytes, f"peak {peak / block_bytes:.2f} blocks"


def test_huge_sparse_label_counted_without_a_table_that_large():
    labels = np.zeros(4 ** 3, dtype=np.int64)
    labels[:5] = 2 ** 40
    labels[5:7] = 3
    seg = LabelVolume((4, 4, 4), (1, 1, 1), labels)
    assert seg.voxel_counts == {3: 2, 2 ** 40: 5}
    assert structure_volumes(seg) == {3: 2.0, 2 ** 40: 5.0}


@pytest.mark.parametrize("bad", [0.5, -1.0, 1e300, 2.0 ** 63])
def test_as_label_volume_rejects_non_labels_without_cast_warnings(bad):
    grid = VoxelGrid((2, 1, 1), (1, 1, 1), [1.0, bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="segmentation voxels must be nonnegative integers"):
            as_label_volume(grid)


@pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int16])
def test_narrow_segmentations_equal_their_int64_forms(dtype):
    rng = np.random.default_rng(7)
    dims = (6, 5, 4)
    labels_i = rng.integers(0, 4, 6 * 5 * 4)
    labels_p = np.where(rng.random(labels_i.size) < 0.2, 2, labels_i)

    def segs(as_dtype):
        return [
            as_label_volume(VoxelGrid(dims, (1, 1, 1), labels.astype(as_dtype)))
            for labels in (labels_i, labels_p)
        ]

    wide, narrow = segs(np.int64), segs(dtype)
    for w, n in zip(wide, narrow):
        assert w.labels.dtype == np.int64
        assert n.labels.itemsize < 8
        assert n.voxel_counts == w.voxel_counts
        assert n == w
    assert anatomy_preservation(*narrow) == anatomy_preservation(*wide)


@pytest.mark.parametrize("top, dtype", [(3, np.uint8), (300, np.uint16), (70000, np.uint32)])
def test_float_segmentation_takes_the_narrowest_dtype_of_its_largest_label(top, dtype):
    seg = as_label_volume(VoxelGrid((3, 1, 1), (1, 1, 1), np.array([0, 1, top], np.float32)))
    assert seg.labels.dtype == dtype
    assert seg.voxel_counts == {1: 1, top: 1}


def test_uint64_labels_are_counted_as_int64():
    labels = np.array([0, 3, 3, 2 ** 40, 0], dtype=np.uint64)
    seg = LabelVolume((5, 1, 1), (1, 1, 1), labels)
    assert seg.labels.dtype == np.int64
    assert seg.voxel_counts == {3: 2, 2 ** 40: 1}
