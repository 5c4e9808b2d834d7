"""Phantom generation determinism and the quantile-matching baseline."""
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmbench import synth
from harmbench.anatomy import anatomy_preservation
from harmbench.distribution import ForegroundPolicy, extract_foreground
from harmbench.errors import EmptyForeground, IoFailure, OverlappingStructures
from harmbench.synth import (
    PhantomSpec,
    SiteTransform,
    Sphere,
    _sphere_indices,
    generate_phantom,
    histogram_match,
    write_synthetic_dataset,
)
from harmbench.volume import VoxelGrid
from harmbench.wasserstein import Verdict, classify, nwd, wasserstein_1d

from oracles import sphere_mask_full_grid, synthetic_dataset_serial


def _spec(seed=1, dims=(32, 32, 32), transform=SiteTransform()):
    return PhantomSpec(
        dims=dims,
        seed=seed,
        structures=(
            Sphere(1, (12.0, 16.0, 16.0), 4.0, 60.0, 6.0),
            Sphere(2, (22.0, 16.0, 16.0), 3.0, 100.0, 8.0),
        ),
        site_transform=transform,
    )


def test_sphere_volume_matches_direct_count():
    grid, seg = generate_phantom(
        PhantomSpec((32, 32, 32), 5, (Sphere(1, (16.0, 16.0, 16.0), 4.0, 50.0, 5.0),))
    )
    x, y, z = np.meshgrid(np.arange(32), np.arange(32), np.arange(32), indexing="ij")
    inside = (x - 16.0) ** 2 + (y - 16.0) ** 2 + (z - 16.0) ** 2 <= 16.0
    assert int(np.sum(seg.labels == 1)) == int(inside.sum())
    assert int(np.sum(grid.values > 0)) == int(inside.sum())


def test_same_seed_same_phantom():
    a, _ = generate_phantom(_spec(seed=9))
    b, _ = generate_phantom(_spec(seed=9))
    assert a == b
    c, _ = generate_phantom(_spec(seed=10))
    assert c != a


def test_site_transform_shifts_distribution():
    base, _ = generate_phantom(_spec(seed=3))
    gained, _ = generate_phantom(_spec(seed=3, transform=SiteTransform(gain=2.0)))
    policy = ForegroundPolicy()
    d = wasserstein_1d(extract_foreground(base, policy), extract_foreground(gained, policy))
    assert d > 0.0


def test_transform_changes_intensity_not_anatomy():
    _, seg_a = generate_phantom(_spec(seed=4))
    _, seg_b = generate_phantom(
        _spec(seed=4, transform=SiteTransform(gain=1.7, bias=5.0, gamma=1.1))
    )
    assert seg_a == seg_b


def test_overlapping_spheres_rejected():
    spec = PhantomSpec(
        (32, 32, 32),
        1,
        (
            Sphere(1, (14.0, 16.0, 16.0), 4.0, 60.0, 6.0),
            Sphere(2, (16.0, 16.0, 16.0), 4.0, 100.0, 8.0),
        ),
    )
    with pytest.raises(OverlappingStructures):
        generate_phantom(spec)


def test_out_of_bounds_sphere_rejected():
    with pytest.raises(ValueError, match="leaves"):
        PhantomSpec((16, 16, 16), 1, (Sphere(1, (2.0, 8.0, 8.0), 4.0, 60.0, 6.0),))


# radii whose sphere passes through lattice points (d² == r² exactly for
# integer or half-integer centres), and a few that pass through none
_RADII = st.one_of(
    st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0, 2.5, math.sqrt(2), math.sqrt(3), math.sqrt(5),
                     math.sqrt(0.5), math.sqrt(50)]),
    st.floats(0.05, 25.0),
)


@st.composite
def _grid_and_sphere(draw):
    dims = tuple(draw(st.integers(1, 40)) for _ in range(3))
    radius = draw(_RADII)
    center = tuple(
        draw(
            st.one_of(
                st.integers(0, d - 1).map(float),
                st.integers(0, 2 * d - 2).map(lambda k: k / 2),
                st.floats(-radius, d - 1 + radius),
                # touching the low or the high face, the tightest PhantomSpec allows
                st.sampled_from([radius, d - 1 - radius]),
            )
        )
        for d in dims
    )
    return dims, Sphere(1, center, radius, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(_grid_and_sphere())
@example(((40, 40, 40), Sphere(1, (20.0, 20.0, 20.0), 5.0, 0.0, 1.0)))
@example(((7, 9, 11), Sphere(1, (3.0, 4.0, 5.0), 3.0, 0.0, 1.0)))
@example(((12, 5, 30), Sphere(1, (1.5, 2.0, 10.5), 1.5, 0.0, 1.0)))
@example(((1, 1, 1), Sphere(1, (0.0, 0.0, 0.0), math.sqrt(2), 0.0, 1.0)))
# poles on the faces: x touches both, y the high one, z the low one
@example(((7, 12, 40), Sphere(1, (3.0, 8.0, 3.0), 3.0, 0.0, 1.0)))
# voxel (5, 6, 8) has d² == r² only when d² is summed x, y, then z
@example(((10, 12, 14), Sphere(1, (3.587904926606913, 3.3636040818849358, 4.197153110260123),
                               4.837999627961856, 0.0, 1.0)))
def test_sphere_indices_match_the_full_grid_mask(case):
    dims, sphere = case
    got = _sphere_indices(dims, sphere)
    want = np.flatnonzero(sphere_mask_full_grid(dims, sphere.center, sphere.radius))
    np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------- matching


def test_matching_self_is_identity():
    grid, _ = generate_phantom(_spec(seed=6))
    out = histogram_match(grid, grid)
    assert np.max(np.abs(out.values - grid.values)) <= 1e-9


def test_matching_undoes_a_pure_shift():
    grid, _ = generate_phantom(_spec(seed=7))
    shifted = VoxelGrid(
        grid.dims, grid.spacing, np.where(grid.values > 0, grid.values + 25.0, 0.0)
    )
    out = histogram_match(shifted, grid)
    fg = grid.values > 0
    got = np.sort(out.values[fg])
    want = np.sort(grid.values[fg])
    assert np.max(np.abs(got - want)) <= 1e-6


def test_matching_is_monotone_on_foreground():
    a, _ = generate_phantom(_spec(seed=8))
    b, _ = generate_phantom(_spec(seed=9, transform=SiteTransform(gain=1.5, bias=3.0)))
    out = histogram_match(a, b)
    fg = a.values > 0
    src = a.values[fg]
    dst = out.values[fg]
    order = np.argsort(src, kind="stable")
    assert np.all(np.diff(dst[order]) >= 0)


def test_matching_never_moves_foreground_boundary():
    a, seg = generate_phantom(_spec(seed=11))
    b, _ = generate_phantom(_spec(seed=12, transform=SiteTransform(gain=2.2, bias=8.0)))
    out = histogram_match(a, b)
    np.testing.assert_array_equal(out.values > 0, a.values > 0)
    report = anatomy_preservation(seg, seg)
    assert report.mean_ap == 1.0


def test_matching_equal_counts_is_an_exact_multiset_copy():
    # same geometry on both sides -> equal sample counts -> the quantile
    # map reproduces the reference multiset exactly
    spec_a = PhantomSpec(
        (48, 48, 48), 21,
        (Sphere(1, (18.0, 24.0, 24.0), 8.0, 60.0, 6.0),
         Sphere(2, (34.0, 24.0, 24.0), 6.0, 100.0, 8.0)),
    )
    spec_b = PhantomSpec(
        (48, 48, 48), 22,
        (Sphere(1, (18.0, 24.0, 24.0), 8.0, 60.0, 6.0),
         Sphere(2, (34.0, 24.0, 24.0), 6.0, 100.0, 8.0)),
        site_transform=SiteTransform(gain=1.6, bias=12.0, gamma=1.08),
    )
    a, _ = generate_phantom(spec_a)
    b, _ = generate_phantom(spec_b)
    policy = ForegroundPolicy()
    out = histogram_match(a, b, policy)
    db = extract_foreground(b, policy)
    assert wasserstein_1d(extract_foreground(out, policy), db) == 0.0


def test_matched_distribution_lands_on_reference():
    # 64^3 with radii 12/9 pushes the source foreground past 1e4 samples;
    # the reference uses different radii so the sample counts differ and
    # the piecewise-linear interpolation path is actually exercised
    spec_a = PhantomSpec(
        (64, 64, 64), 21,
        (Sphere(1, (23.0, 32.0, 32.0), 12.0, 60.0, 6.0),
         Sphere(2, (45.0, 32.0, 32.0), 9.0, 100.0, 8.0)),
    )
    spec_b = PhantomSpec(
        (64, 64, 64), 22,
        (Sphere(1, (23.0, 32.0, 32.0), 12.5, 60.0, 6.0),
         Sphere(2, (45.0, 32.0, 32.0), 9.5, 100.0, 8.0)),
        site_transform=SiteTransform(gain=1.6, bias=12.0, gamma=1.08),
    )
    a, _ = generate_phantom(spec_a)
    b, _ = generate_phantom(spec_b)
    policy = ForegroundPolicy()
    da = extract_foreground(a, policy)
    db = extract_foreground(b, policy)
    assert da.n >= 10 ** 4
    assert da.n != db.n
    out = histogram_match(a, b, policy)
    dout = extract_foreground(out, policy)
    ref_range = db.support_max - db.support_min
    w = wasserstein_1d(dout, db)
    assert 0.0 < w <= 1e-3 * ref_range
    pair = nwd(da, db, dout)
    assert pair.nwd_tp < 0.05
    assert classify(pair) is not Verdict.NO_HARMONIZATION


def test_matching_requires_foreground():
    empty = VoxelGrid((4, 4, 4), (1, 1, 1), np.zeros(64))
    grid, _ = generate_phantom(_spec(seed=13))
    with pytest.raises(EmptyForeground):
        histogram_match(empty, grid)
    with pytest.raises(EmptyForeground):
        histogram_match(grid, empty)


# ----------------------------------------------------------------- dataset


def test_dataset_layout_and_determinism(tmp_path):
    m1 = write_synthetic_dataset(tmp_path / "one", sites=2, n=4, seed=5, size=24)
    m2 = write_synthetic_dataset(tmp_path / "two", sites=2, n=4, seed=5, size=24)
    assert m1.name == "manifest.csv"
    files1 = sorted(p.name for p in (tmp_path / "one").iterdir())
    files2 = sorted(p.name for p in (tmp_path / "two").iterdir())
    assert files1 == files2
    assert "seg.nii.gz" in files1
    for name in files1:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_dataset_alternates_directions(tmp_path):
    manifest = write_synthetic_dataset(tmp_path / "d", sites=2, n=4, seed=5, size=24)
    text = manifest.read_text()
    assert "A,B" in text and "B,A" in text


@pytest.mark.parametrize("sites, n", [(3, 5)])
def test_dataset_equals_the_serial_loop_byte_for_byte(tmp_path, sites, n):
    write_synthetic_dataset(tmp_path / "pipelined", sites=sites, n=n, seed=7, size=24)
    synthetic_dataset_serial(tmp_path / "serial", sites=sites, n=n, seed=7, size=24)
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert sorted(p.name for p in (tmp_path / "pipelined").iterdir()) == names
    assert len(names) == 4 * n + 2  # the segmentation and the manifest too
    for name in names:
        assert (tmp_path / "pipelined" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes(), name


def test_dataset_without_triplets_raises_before_out_is_created(tmp_path):
    # a manifest without rows is one load_manifest rejects
    with pytest.raises(ValueError, match="n must be >= 1"):
        write_synthetic_dataset(tmp_path / "d", sites=2, n=0, seed=7, size=24)
    assert not (tmp_path / "d").exists()


def test_seed_past_the_key_range_at_the_last_triplet_raises_before_out_is_created(tmp_path):
    # the first anatomy seed fits the Philox key range; the last target's,
    # seed * 1_000_003 + 2 * 1513 + 1, is 2**128
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
        write_synthetic_dataset(
            tmp_path / "d", sites=2, n=1514, seed=340281346076900232762676319402810, size=12
        )
    assert not (tmp_path / "d").exists()


def test_failed_write_raises_and_leaves_no_manifest_or_thread(tmp_path):
    out = tmp_path / "d"
    (out / "pred_002.nii.gz").mkdir(parents=True)
    threads = threading.active_count()
    with pytest.raises(IoFailure, match="pred_002"):
        write_synthetic_dataset(out, sites=3, n=5, seed=5, size=24)
    assert not (out / "manifest.csv").exists()
    assert threading.active_count() == threads


def test_writes_in_flight_bound_peak_memory(tmp_path, monkeypatch):
    """Peak traced memory stays under 10 float64 grids although every write
    is slowed, as on a slow disk: the thread rendering holds at most five
    grids (input, target, prediction, a new phantom and a temporary), and
    each of the two writes in flight at most one more with its float32
    copy. Were writes not capped, the 17 volumes would queue up."""
    size = 64
    grid_bytes = 8 * size ** 3
    write = synth.write_volume

    def slow_write(grid, path):
        time.sleep(0.02)
        write(grid, path)

    monkeypatch.setattr(synth, "write_volume", slow_write)
    tracemalloc.start()
    try:
        write_synthetic_dataset(tmp_path / "d", sites=3, n=4, seed=5, size=size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(list((tmp_path / "d").glob("*.nii.gz"))) == 17
    assert peak <= 10 * grid_bytes
