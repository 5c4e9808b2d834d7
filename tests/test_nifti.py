"""Volume I/O: header parsing, scaling, round trips, typed failures."""
import gzip
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from harmbench.errors import (
    IoFailure,
    MalformedHeader,
    NonFiniteVoxel,
    TruncatedData,
    UnsupportedDatatype,
)
from harmbench import nifti
from harmbench.nifti import load_volume, parse_header, write_volume
from harmbench.synth import PhantomSpec, Sphere, generate_phantom
from harmbench.volume import VoxelGrid

from nifti_fixtures import DT_BITPIX, DT_NUMPY, build_nifti, byteswap_nifti, corrupt_deflate


def _write(tmp_path, blob, name="vol.nii"):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


def test_plain_float32_identity_scaling(tmp_path):
    # eight float32 values 0..7 laid out in on-disk (x-fastest) order
    blob = build_nifti(np.arange(8, dtype=np.float32), dim=(3, 2, 2, 2, 1, 1, 1, 1))
    grid = load_volume(_write(tmp_path, blob))
    assert grid.dims == (2, 2, 2)
    assert grid.channel_count == 1
    np.testing.assert_array_equal(grid.values, np.arange(8, dtype=np.float64))


def test_scl_slope_affine_scaling(tmp_path):
    for slope, inter in [(2.0, 1.0), (1.0, 5.0)]:
        blob = build_nifti(
            np.arange(8, dtype=np.float32), dim=(3, 2, 2, 2, 1, 1, 1, 1),
            scl_slope=slope, scl_inter=inter,
        )
        grid = load_volume(_write(tmp_path, blob))
        np.testing.assert_array_equal(grid.values, slope * np.arange(8) + inter)


def test_x_fastest_layout(tmp_path):
    # value at flat position i + nx*j + nx*ny*k must land at [i, j, k]
    data = np.arange(24, dtype=np.float32).reshape(2, 3, 4, order="F")
    blob = build_nifti(data, dim=(3, 2, 3, 4, 1, 1, 1, 1))
    grid = load_volume(_write(tmp_path, blob))
    assert grid.dims == (2, 3, 4)
    assert grid.as_array()[1, 2, 3] == data[1, 2, 3]
    np.testing.assert_array_equal(grid.values, np.arange(24, dtype=np.float64))


@pytest.mark.parametrize("datatype", [2, 4, 8, 16, 64])
def test_all_supported_datatypes(tmp_path, datatype):
    data = np.array([0, 1, 2, 3, 5, 8, 13, 21]).reshape(2, 2, 2)
    for byte_order in "<>":
        blob = build_nifti(data, datatype=datatype, byte_order=byte_order)
        grid = load_volume(_write(tmp_path, blob))
        assert grid.values.dtype == np.dtype(DT_NUMPY[datatype])  # native byte order
        assert not grid.values.flags.writeable
        np.testing.assert_array_equal(grid.values, data.ravel(order="F"))


@pytest.mark.parametrize("byte_order", ["<", ">"])
def test_slope_widens_to_float64_and_stays_read_only(tmp_path, byte_order):
    blob = build_nifti(
        np.arange(8, dtype=np.int16), datatype=4, byte_order=byte_order,
        dim=(3, 2, 2, 2, 1, 1, 1, 1), scl_slope=0.5, scl_inter=-1.0,
    )
    grid = load_volume(_write(tmp_path, blob))
    assert grid.values.dtype == np.float64
    assert not grid.values.flags.writeable
    np.testing.assert_array_equal(grid.values, 0.5 * np.arange(8) - 1.0)


def test_load_peak_memory_stays_near_the_decoded_file(tmp_path):
    grid, _ = generate_phantom(
        PhantomSpec((64, 64, 64), 3, (Sphere(1, (24.0, 32.0, 32.0), 10.0, 60.0, 6.0),
                                      Sphere(2, (45.0, 32.0, 32.0), 7.0, 100.0, 8.0)))
    )
    path = tmp_path / "m.nii.gz"
    write_volume(grid, path)
    decoded = 352 + grid.values.size * 4
    tracemalloc.start()
    try:
        loaded = load_volume(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.values.dtype == np.float32
    np.testing.assert_array_equal(loaded.values, grid.values.astype(np.float32))
    assert peak <= 1.25 * decoded


def test_round_trip_bitwise_for_float32_values(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.uniform(0, 100, size=8 ** 3).astype(np.float32).astype(np.float64)
    grid = VoxelGrid((8, 8, 8), (0.5, 0.5, 2.0), values)
    path = tmp_path / "rt.nii"
    write_volume(grid, path)
    back = load_volume(path)
    assert back.dims == grid.dims
    np.testing.assert_array_equal(back.values, grid.values)


def test_round_trip_quantization_bound(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 1000, size=8 ** 3)
    grid = VoxelGrid((8, 8, 8), (1, 1, 1), values)
    path = tmp_path / "rt.nii"
    write_volume(grid, path)
    back = load_volume(path)
    # float32 has 24 mantissa bits; error is bounded by the value scale
    assert np.max(np.abs(back.values - values)) <= 1000 * 2 ** -24


def test_round_trip_spacing_within_float32(tmp_path):
    spacing = (0.41, 0.41, 0.6)
    grid = VoxelGrid((2, 2, 2), spacing, np.zeros(8))
    path = tmp_path / "sp.nii"
    write_volume(grid, path)
    back = load_volume(path)
    for got, want in zip(back.spacing, spacing):
        assert got == pytest.approx(want, abs=1e-6)
        assert got == float(np.float32(want))


def test_single_voxel_file_is_356_bytes(tmp_path):
    grid = VoxelGrid((1, 1, 1), (1, 1, 1), [0.0])
    path = tmp_path / "one.nii"
    write_volume(grid, path)
    blob = path.read_bytes()
    assert len(blob) == 356
    assert blob[348:352] == b"\x00" * 4


def test_gzip_round_trip_and_content_detection(tmp_path):
    grid = VoxelGrid((4, 4, 4), (1, 1, 1), np.arange(64, dtype=np.float64))
    path = tmp_path / "z.nii.gz"
    write_volume(grid, path)
    assert path.read_bytes()[:2] == b"\x1f\x8b"
    assert load_volume(path) == grid
    # detection is by magic bytes, not extension
    misnamed = tmp_path / "plain_extension.nii"
    misnamed.write_bytes(path.read_bytes())
    assert load_volume(misnamed) == grid


def test_gzip_writes_are_deterministic(tmp_path):
    grid = VoxelGrid((4, 4, 4), (1, 1, 1), np.arange(64, dtype=np.float64))
    a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    write_volume(grid, a)
    write_volume(grid, b)
    assert a.read_bytes() == b.read_bytes()


def test_gzip_body_is_the_plain_file(tmp_path):
    rng = np.random.default_rng(5)
    grid = VoxelGrid((6, 5, 4), (1, 1, 1), rng.uniform(-10, 10, 120))
    write_volume(grid, tmp_path / "v.nii")
    write_volume(grid, tmp_path / "v.nii.gz")
    plain = (tmp_path / "v.nii").read_bytes()
    assert len(plain) == 352 + 4 * 120
    assert gzip.decompress((tmp_path / "v.nii.gz").read_bytes()) == plain


def test_gzip_header_is_platform_independent(tmp_path):
    grid = VoxelGrid((2, 2, 2), (1, 1, 1), np.arange(8, dtype=np.float64))
    path = tmp_path / "h.nii.gz"
    write_volume(grid, path)
    head = path.read_bytes()[:10]
    assert head[:3] == b"\x1f\x8b\x08"  # deflate
    assert head[3] == 0  # no file name
    assert head[4:8] == b"\x00" * 4  # mtime
    assert head[9] == 0xFF  # OS unknown, not the build's


def test_write_peak_memory_stays_near_the_float32_image(tmp_path):
    grid, _ = generate_phantom(
        PhantomSpec((64, 64, 64), 3, (Sphere(1, (24.0, 32.0, 32.0), 10.0, 60.0, 6.0),
                                      Sphere(2, (45.0, 32.0, 32.0), 7.0, 100.0, 8.0)))
    )
    image = grid.values.size * 4
    tracemalloc.start()
    try:
        write_volume(grid, tmp_path / "m.nii.gz")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * image


def test_big_endian_file_loads_identically(tmp_path):
    data = np.linspace(-5, 5, 27, dtype=np.float32).reshape(3, 3, 3)
    little = build_nifti(data, byte_order="<", pixdim=(1, 0.7, 0.8, 0.9))
    big = build_nifti(data, byte_order=">", pixdim=(1, 0.7, 0.8, 0.9))
    assert little != big
    assert load_volume(_write(tmp_path, little, "le.nii")) == load_volume(
        _write(tmp_path, big, "be.nii")
    )


def test_byteswapped_writer_output_loads_identically(tmp_path):
    rng = np.random.default_rng(3)
    grid = VoxelGrid((5, 4, 3), (1, 1, 1), rng.uniform(0, 10, 60))
    path = tmp_path / "le.nii"
    write_volume(grid, path)
    swapped = byteswap_nifti(path.read_bytes(), item_size=4)
    assert load_volume(_write(tmp_path, swapped, "be.nii")) == load_volume(path)


def test_four_dim_file_maps_to_channels(tmp_path):
    data = np.arange(16, dtype=np.float32)
    blob = build_nifti(data, dim=(4, 2, 2, 2, 2, 1, 1, 1))
    grid = load_volume(_write(tmp_path, blob))
    assert grid.channel_count == 2
    np.testing.assert_array_equal(grid.channel(0).values, np.arange(8, dtype=np.float64))
    np.testing.assert_array_equal(grid.channel(1).values, np.arange(8, 16, dtype=np.float64))


@pytest.mark.parametrize(
    "dim, pixdim, dims, spacing, channels",
    [
        # the header's zeros past the rank are neither extents nor spacings
        pytest.param((1, 5, 0, 0, 0, 0, 0, 0), (1, 0.5, 0, 0), (5, 1, 1), (0.5, 1.0, 1.0), 1, id="rank1"),
        pytest.param((2, 3, 4, 0, 0, 0, 0, 0), (1, 0.5, 0.25, 0), (3, 4, 1), (0.5, 0.25, 1.0), 1, id="rank2"),
        pytest.param((5, 2, 2, 2, 2, 3, 0, 0), (1, 0.5, 0.25, 2.0), (2, 2, 2), (0.5, 0.25, 2.0), 6, id="rank5"),
    ],
)
def test_axes_past_the_rank_are_ignored(tmp_path, dim, pixdim, dims, spacing, channels):
    size = math.prod(dims)
    blob = build_nifti(np.arange(size * channels, dtype=np.float32), dim=dim, pixdim=pixdim)
    grid = load_volume(_write(tmp_path, blob))
    assert grid.dims == dims and grid.spacing == spacing and grid.channel_count == channels
    for c in range(channels):
        np.testing.assert_array_equal(grid.channel(c).values, np.arange(c * size, (c + 1) * size))


def test_loaded_values_are_immutable(tmp_path):
    blob = build_nifti(np.zeros((2, 2, 2), dtype=np.float32))
    grid = load_volume(_write(tmp_path, blob))
    with pytest.raises(ValueError):
        grid.values[0] = 1.0


def test_nonfinite_slope_is_skipped_not_fatal(tmp_path):
    blob = build_nifti(np.arange(8, dtype=np.float32), dim=(3, 2, 2, 2, 1, 1, 1, 1),
                       scl_slope=float("nan"), scl_inter=3.0)
    grid = load_volume(_write(tmp_path, blob))
    np.testing.assert_array_equal(grid.values, np.arange(8, dtype=np.float64))


# ------------------------------------------------------------ typed failures


def test_short_file_is_malformed(tmp_path):
    with pytest.raises(MalformedHeader):
        load_volume(_write(tmp_path, b"\x00" * 100))


def test_bad_sizeof_hdr_both_orders(tmp_path):
    blob = build_nifti(np.zeros((2, 2, 2), np.float32), sizeof_hdr=340)
    with pytest.raises(MalformedHeader, match="sizeof_hdr"):
        load_volume(_write(tmp_path, blob))


def test_paired_magic_rejected_with_clear_error(tmp_path):
    blob = build_nifti(np.zeros((2, 2, 2), np.float32), magic=b"ni1\x00")
    with pytest.raises(MalformedHeader, match="single-file"):
        load_volume(_write(tmp_path, blob))


def test_garbage_magic_rejected(tmp_path):
    blob = build_nifti(np.zeros((2, 2, 2), np.float32), magic=b"abcd")
    with pytest.raises(MalformedHeader, match="magic"):
        load_volume(_write(tmp_path, blob))


@pytest.mark.parametrize("code", [0, 1, 32, 128, 256, 512, 768, 1536])
def test_unsupported_datatype_codes(tmp_path, code):
    blob = build_nifti(np.zeros((2, 2, 2), np.float32), datatype=code)
    with pytest.raises(UnsupportedDatatype):
        load_volume(_write(tmp_path, blob))


def test_inconsistent_bitpix_is_malformed(tmp_path):
    blob = build_nifti(np.zeros((2, 2, 2), np.float32), bitpix=16)
    with pytest.raises(MalformedHeader, match="bitpix"):
        load_volume(_write(tmp_path, blob))


def test_truncated_data_detected(tmp_path):
    blob = build_nifti(np.zeros((4, 4, 4), np.float32), truncate_data_to=100)
    with pytest.raises(TruncatedData):
        load_volume(_write(tmp_path, blob))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_voxels_rejected(tmp_path, bad):
    data = np.zeros((2, 2, 2), np.float32)
    data[0, 0, 0] = bad
    blob = build_nifti(data)
    with pytest.raises(NonFiniteVoxel):
        load_volume(_write(tmp_path, blob))


def test_zero_pixdim_is_malformed(tmp_path):
    blob = build_nifti(np.zeros((2, 2, 2), np.float32), pixdim=(1, 1.0, 0.0, 1.0))
    with pytest.raises(MalformedHeader, match="pixdim"):
        load_volume(_write(tmp_path, blob))


def test_zero_extent_is_malformed(tmp_path):
    blob = build_nifti(np.zeros(0, np.float32), dim=(3, 2, 0, 2, 1, 1, 1, 1))
    with pytest.raises(MalformedHeader, match="dim"):
        load_volume(_write(tmp_path, blob))


def test_bad_rank_is_malformed(tmp_path):
    blob = build_nifti(np.zeros((2, 2, 2), np.float32), dim=(0, 2, 2, 2, 1, 1, 1, 1))
    with pytest.raises(MalformedHeader, match="rank"):
        load_volume(_write(tmp_path, blob))


def test_vox_offset_inside_header_is_malformed(tmp_path):
    blob = build_nifti(np.zeros((2, 2, 2), np.float32), vox_offset=128.0)
    with pytest.raises(MalformedHeader, match="vox_offset"):
        load_volume(_write(tmp_path, blob))


_ZEROS = np.zeros((2, 2, 2), np.float32)


@pytest.mark.parametrize("gzipped", [False, True], ids=["plain", "gzipped"])
@pytest.mark.parametrize(
    "data, fields, error, match",
    [
        pytest.param(_ZEROS, dict(sizeof_hdr=340), MalformedHeader, "sizeof_hdr", id="sizeof_hdr"),
        pytest.param(_ZEROS, dict(magic=b"ni1\x00"), MalformedHeader, "single-file", id="paired"),
        pytest.param(_ZEROS, dict(magic=b"abcd"), MalformedHeader, "magic", id="magic"),
        pytest.param(_ZEROS, dict(datatype=32), UnsupportedDatatype, "datatype", id="datatype"),
        *(
            pytest.param(
                _ZEROS, dict(datatype=code, bitpix=2 * DT_BITPIX[code]), MalformedHeader,
                f"bitpix {2 * DT_BITPIX[code]} inconsistent with datatype {code} "
                rf"\(expected {DT_BITPIX[code]}\)",
                id=f"bitpix-{code}",
            )
            for code in sorted(DT_NUMPY)
        ),
        pytest.param(_ZEROS, dict(dim=(0, 2, 2, 2, 1, 1, 1, 1)), MalformedHeader, "rank", id="rank"),
        pytest.param(np.zeros(0, np.float32), dict(dim=(3, 2, 0, 2, 1, 1, 1, 1)), MalformedHeader,
                     r"dim\[2\] must be >= 1", id="extent"),
        pytest.param(_ZEROS, dict(pixdim=(1, 1.0, 0.0, 1.0)), MalformedHeader, "pixdim", id="pixdim"),
        pytest.param(_ZEROS, dict(vox_offset=128.0), MalformedHeader, "vox_offset", id="vox_offset"),
        pytest.param(np.zeros((4, 4, 4), np.float32), dict(truncate_data_to=100), TruncatedData,
                     "need 256 data bytes at offset 352, file has 100", id="truncated"),
    ],
)
def test_typed_failure_is_the_same_plain_or_gzipped(tmp_path, data, fields, error, match, gzipped):
    # the plain file and its gzipped twin fail alike: same type, same message
    path = _write(tmp_path, build_nifti(data, gzipped=gzipped, **fields))
    with pytest.raises(error, match=match) as raised:
        load_volume(path)
    assert type(raised.value) is error and str(raised.value).startswith(f"{path}: ")


def test_corrupt_gzip_stream(tmp_path):
    blob = build_nifti(np.zeros((2, 2, 2), np.float32), gzipped=True)
    with pytest.raises((MalformedHeader, TruncatedData)):
        load_volume(_write(tmp_path, blob[:40] + b"\x99" * 10))


def test_truncated_gzip_stream(tmp_path):
    blob = build_nifti(np.zeros((8, 8, 8), np.float32), gzipped=True)
    with pytest.raises((TruncatedData, MalformedHeader)):
        load_volume(_write(tmp_path, blob[: len(blob) // 2]))


def test_corrupt_deflate_body_is_malformed(tmp_path):
    blob = build_nifti(np.arange(512, dtype=np.float32).reshape(8, 8, 8), gzipped=True)
    bad = corrupt_deflate(blob)
    assert len(bad) == len(blob)
    with pytest.raises(MalformedHeader, match="corrupt gzip"):
        load_volume(_write(tmp_path, bad, "bad.nii.gz"))


def test_multi_member_gzip_loads_like_one_member(tmp_path):
    plain = build_nifti(np.arange(512, dtype=np.float32).reshape(8, 8, 8))
    one = _write(tmp_path, gzip.compress(plain, mtime=0), "one.nii.gz")
    two = _write(
        tmp_path, gzip.compress(plain[:400], mtime=0) + gzip.compress(plain[400:], mtime=0),
        "two.nii.gz",
    )
    assert load_volume(two) == load_volume(one)


def test_equal_size_members_load_like_one_member(tmp_path):
    # the first member is as long as the last one's ISIZE, so only the
    # header's data size shows that one zlib call stopped early
    plain = build_nifti(np.arange(496, dtype=np.float32))
    assert len(plain) % 2 == 0
    half = len(plain) // 2
    two = gzip.compress(plain[:half], mtime=0) + gzip.compress(plain[half:], mtime=0)
    assert load_volume(_write(tmp_path, two, "two.nii.gz")) == load_volume(
        _write(tmp_path, plain, "one.nii")
    )


def test_empty_last_member_loads(tmp_path):
    # bgzip ends every file with an empty member, whose ISIZE is 0
    plain = build_nifti(np.arange(512, dtype=np.float32).reshape(8, 8, 8))
    blob = gzip.compress(plain, mtime=0) + gzip.compress(b"", mtime=0)
    assert load_volume(_write(tmp_path, blob, "bgz.nii.gz")) == load_volume(
        _write(tmp_path, plain, "one.nii")
    )


def test_corrupt_member_after_the_voxels_is_malformed(tmp_path):
    plain = build_nifti(np.arange(512, dtype=np.float32).reshape(8, 8, 8))
    extra = bytearray(gzip.compress(b"trailing bytes", mtime=0))
    extra[-8] ^= 0xFF  # its CRC
    blob = gzip.compress(plain, mtime=0) + bytes(extra)
    with pytest.raises(MalformedHeader, match="corrupt gzip"):
        load_volume(_write(tmp_path, blob, "tail.nii.gz"))


def test_forged_isize_is_capped_and_fails_typed(tmp_path):
    blob = bytearray(build_nifti(np.zeros((2, 2, 2), np.float32), gzipped=True))
    blob[-4:] = b"\xff\xff\xff\xff"
    path = _write(tmp_path, bytes(blob), "forged.nii.gz")
    tracemalloc.start()
    try:
        with pytest.raises(MalformedHeader, match="corrupt gzip"):
            load_volume(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1032 * len(blob) + 2 ** 20


def test_gzip_header_is_parsed_once_per_load(tmp_path, monkeypatch):
    path = _write(tmp_path, build_nifti(np.arange(8, dtype=np.float32), gzipped=True), "one.nii.gz")
    calls = []
    parse = nifti.parse_header

    def counted_parse(buf, **kwargs):
        calls.append(kwargs)
        return parse(buf, **kwargs)

    monkeypatch.setattr(nifti, "parse_header", counted_parse)
    np.testing.assert_array_equal(load_volume(path).values, np.arange(8))
    assert calls == [{"name": str(path)}]


def test_write_failure_maps_to_io_failure(tmp_path):
    grid = VoxelGrid((1, 1, 1), (1, 1, 1), [0.0])
    with pytest.raises(IoFailure):
        write_volume(grid, tmp_path / "no" / "such" / "dir" / "x.nii")


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_write_rejects_float32_overflow(tmp_path, value):
    grid = VoxelGrid((2, 1, 1), (1, 1, 1), [1.0, value])
    with pytest.raises(IoFailure):
        write_volume(grid, tmp_path / "x.nii")


@pytest.mark.parametrize(
    "dtype, beyond",
    [(np.int32, 2**24 + 1), (np.int32, -(2**24) - 1), (np.int64, -(2**40)),
     (np.uint32, 2**24 + 1), (np.uint64, 2**63)],
)
def test_write_rejects_integers_float32_would_round(tmp_path, dtype, beyond):
    # float32(16777217) is 16777216: the file would not hold the grid
    path = tmp_path / "x.nii"
    grid = VoxelGrid((2, 1, 1), (1, 1, 1), np.array([0, beyond], dtype=dtype))
    with pytest.raises(IoFailure, match="x.nii"):
        write_volume(grid, path)
    assert not path.exists()


def test_write_keeps_integers_up_to_two_to_the_24(tmp_path):
    values = np.array([-(2**24), 0, 2**24 - 1, 2**24], dtype=np.int32)
    grid = VoxelGrid((4, 1, 1), (1, 1, 1), values)
    write_volume(grid, tmp_path / "x.nii")
    assert load_volume(tmp_path / "x.nii") == grid


def test_integer_grid_writes_its_extremes_without_warnings(tmp_path):
    values = np.array([-32768, 0, 32767, 7], dtype=np.int16)
    grid = VoxelGrid((4, 1, 1), (1, 1, 1), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_volume(grid, tmp_path / "i16.nii")
    back = load_volume(tmp_path / "i16.nii")
    assert back.values.dtype == np.float32
    assert back == grid


def test_parse_header_exposes_fields():
    blob = build_nifti(
        np.zeros((2, 3, 4), np.float32), pixdim=(1, 0.5, 0.6, 0.7), scl_slope=1.0
    )
    hdr = parse_header(blob)
    assert hdr.sizeof_hdr == 348
    assert hdr.dim[0:4] == (3, 2, 3, 4)
    assert hdr.datatype == 16 and hdr.bitpix == 32
    assert hdr.magic == b"n+1\x00"
    assert hdr.byte_order == "<"
    assert hdr.affine is None
