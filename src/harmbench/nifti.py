"""Single-file NIfTI-1 reader and writer.

Parses the 348-byte binary header directly (both byte orders, inferred
from the ``sizeof_hdr`` field reading as 348) and keeps the voxels in
the file's own dtype, as a read-only view of the decoded file: only a
``scl_slope`` / ``scl_inter`` scaling widens them to float64. Gzip
containers are auto-detected from the leading two bytes, not the file
extension. Each load parses the header once. Axes past its rank
``dim[0]`` are ignored: they have extent 1 and spacing 1.0, whatever
the header stores there; axes 4 and up are channels. Paired
``.hdr``/``.img`` volumes (magic ``ni1``) are rejected: every
referenced dataset ships single-file volumes, and the split layout
would double the parser surface for nothing.

Orientation is not carried into the loaded grid: ``load_volume``
drops the header, and only ``parse_header(...).affine`` exposes the
sform affine (the qform is not decoded). No metric in this package
consumes orientation.
"""
from __future__ import annotations

import gzip
import logging
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    HarmbenchError,
    IoFailure,
    MalformedHeader,
    NonFiniteVoxel,
    TruncatedData,
    UnsupportedDatatype,
)
from .volume import VoxelGrid

log = logging.getLogger(__name__)

HEADER_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIRED = b"ni1\x00"
GZIP_MAGIC = b"\x1f\x8b"
_GZIP_LEVEL = 1  # write speed over size; see write_volume
_DEFLATE_MAX_RATIO = 1032  # deflate's largest output per input byte

# datatype code -> numpy dtype (byte order applied at read time)
_DTYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
}


@dataclass(frozen=True)
class NiftiHeader:
    """Decoded fields of a NIfTI-1 header plus the raw bytes."""

    sizeof_hdr: int
    dim: tuple[int, ...]
    datatype: int
    bitpix: int
    pixdim: tuple[float, ...]
    vox_offset: float
    scl_slope: float
    scl_inter: float
    magic: bytes
    byte_order: str  # "<" or ">"
    raw: bytes

    @property
    def affine(self) -> np.ndarray | None:
        """sform affine when sform_code > 0, else None; no metric reads it."""
        (sform_code,) = struct.unpack_from(self.byte_order + "h", self.raw, 254)
        if sform_code <= 0:
            return None
        rows = struct.unpack_from(self.byte_order + "12f", self.raw, 280)
        return np.array(
            [rows[0:4], rows[4:8], rows[8:12], [0.0, 0.0, 0.0, 1.0]], dtype=np.float64
        )


def parse_header(buf: bytes, *, name: str = "<buffer>") -> NiftiHeader:
    """Decode and validate the first 348 bytes of ``buf``."""
    if len(buf) < HEADER_SIZE:
        raise MalformedHeader(f"{name}: only {len(buf)} bytes, header needs {HEADER_SIZE}")
    byte_order = None
    for bo in ("<", ">"):
        (sizeof_hdr,) = struct.unpack_from(bo + "i", buf, 0)
        if sizeof_hdr == HEADER_SIZE:
            byte_order = bo
            break
    if byte_order is None:
        raise MalformedHeader(f"{name}: sizeof_hdr is not 348 under either byte order")

    magic = bytes(buf[344:348])
    if magic == MAGIC_PAIRED:
        raise MalformedHeader(
            f"{name}: paired .hdr/.img volumes (magic 'ni1') are not supported; "
            "convert to a single-file .nii"
        )
    if magic != MAGIC_SINGLE:
        raise MalformedHeader(f"{name}: bad magic {magic!r}")

    dim = struct.unpack_from(byte_order + "8h", buf, 40)
    datatype, bitpix = struct.unpack_from(byte_order + "2h", buf, 70)
    pixdim = struct.unpack_from(byte_order + "8f", buf, 76)
    vox_offset, scl_slope, scl_inter = struct.unpack_from(byte_order + "3f", buf, 108)

    if datatype not in _DTYPES:
        raise UnsupportedDatatype(
            f"{name}: datatype code {datatype} not in supported set {sorted(_DTYPES)}"
        )
    expected = 8 * _DTYPES[datatype].itemsize
    if bitpix != expected:
        raise MalformedHeader(
            f"{name}: bitpix {bitpix} inconsistent with datatype {datatype} "
            f"(expected {expected})"
        )

    rank = dim[0]
    if not 1 <= rank <= 7:
        raise MalformedHeader(f"{name}: dim[0] (rank) must be in 1..7, got {rank}")
    for axis in range(1, rank + 1):
        if dim[axis] < 1:
            raise MalformedHeader(f"{name}: dim[{axis}] must be >= 1, got {dim[axis]}")
    for axis in range(1, min(rank, 3) + 1):
        p = pixdim[axis]
        if not math.isfinite(p) or p <= 0:
            raise MalformedHeader(f"{name}: pixdim[{axis}] must be > 0, got {p!r}")

    if not math.isfinite(vox_offset) or vox_offset < HEADER_SIZE:
        raise MalformedHeader(f"{name}: vox_offset {vox_offset!r} points inside the header")

    return NiftiHeader(
        sizeof_hdr=HEADER_SIZE,
        dim=tuple(int(d) for d in dim),
        datatype=int(datatype),
        bitpix=int(bitpix),
        pixdim=tuple(float(p) for p in pixdim),
        vox_offset=float(vox_offset),
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
        magic=magic,
        byte_order=byte_order,
        raw=bytes(buf[:HEADER_SIZE]),
    )


def _decode(buf: bytes, path: Path):
    """The header of the decoded file ``buf``, its layout (the grid's
    dims, channel count and spacing) and a view of its voxels."""
    hdr = parse_header(buf, name=str(path))
    rank = hdr.dim[0]
    dims = tuple(hdr.dim[a] if a <= rank else 1 for a in (1, 2, 3))
    spacing = tuple(hdr.pixdim[a] if a <= rank else 1.0 for a in (1, 2, 3))
    channels = math.prod(hdr.dim[4 : rank + 1])
    offset, count = int(round(hdr.vox_offset)), math.prod(dims) * channels

    dtype = _DTYPES[hdr.datatype].newbyteorder(hdr.byte_order)
    need = count * dtype.itemsize
    if len(buf) - offset < need:
        raise TruncatedData(
            f"{path}: need {need} data bytes at offset {offset}, file has "
            f"{max(len(buf) - offset, 0)}"
        )
    values = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return hdr, dims, channels, spacing, values


def _read(path: Path):
    """:func:`_decode` of the file, inflated if it starts with the gzip magic.

    A single-member gzip file is inflated by one zlib call into a buffer
    of the size its ISIZE trailer declares, capped at what deflate can
    expand the file to, so a forged trailer cannot allocate gigabytes;
    zlib checks the CRC and the length. zlib stops silently after the
    first member, and a first member may be as long as the last one's
    ISIZE, so the output is kept only if it also holds the voxels its
    header asks for. Otherwise the file is decoded again member by
    member, which also types the error.
    """
    buf = path.read_bytes()
    if buf[:2] != GZIP_MAGIC:
        return _decode(buf, path)
    isize = int.from_bytes(buf[-4:], "little")
    try:
        out = zlib.decompress(buf, 31, min(isize, _DEFLATE_MAX_RATIO * len(buf)) or 1)
        if len(out) == isize:
            return _decode(out, path)
    except (zlib.error, HarmbenchError):
        pass
    out = None  # not alive beside the second inflate
    try:
        out = gzip.decompress(buf)
    except (gzip.BadGzipFile, zlib.error) as exc:
        raise MalformedHeader(f"{path}: corrupt gzip container: {exc}") from exc
    except EOFError as exc:
        raise TruncatedData(f"{path}: truncated gzip stream") from exc
    return _decode(out, path)


def load_volume(path: str | Path) -> VoxelGrid:
    """Read a plain or gzipped single-file NIfTI-1 volume.

    The voxels keep the file's dtype in native byte order; they are a
    read-only view of the decoded file unless it was big-endian. Only
    ``scl_slope``/``scl_inter`` scaling, applied per the standard (slope
    0 means no scaling), widens them to float64.
    """
    path = Path(path)
    hdr, dims, channels, spacing, values = _read(path)

    slope, inter = hdr.scl_slope, hdr.scl_inter
    if not (math.isfinite(slope) and math.isfinite(inter)):
        log.warning("%s: non-finite scl_slope/scl_inter; scaling skipped", path)
    elif slope != 0.0 and (slope, inter) != (1.0, 0.0):
        if slope != 1.0:
            log.info("%s: applying scl_slope=%r scl_inter=%r", path, slope, inter)
        values = values.astype(np.float64)
        values *= slope
        values += inter
    if not values.dtype.isnative:
        values = values.astype(values.dtype.newbyteorder("="))

    try:
        return VoxelGrid(dims, spacing, values, channel_count=channels)
    except NonFiniteVoxel:
        raise NonFiniteVoxel(f"{path}: voxel data contains NaN or infinity") from None


def write_volume(grid: VoxelGrid, path: str | Path) -> None:
    """Write ``grid`` as a single-file NIfTI-1, float32, little-endian.

    ``.gz`` paths are gzip level 1 with mtime 0 and no file name, so the
    same grid gives the same bytes run after run and on every platform.
    Level 1 writes a 128^3 phantom about 2.5 times faster than level 9;
    its segmentation takes 50 kB instead of 12 kB, and a dense intensity
    volume about 2% more. The header and the voxels go to the file as two
    writes, with no joined copy of the payload.
    """
    path = Path(path)
    values = grid.values
    # only a float wider than float32 can hold a value float32 cannot
    if (
        values.dtype.kind == "f"
        and values.dtype.itemsize > 4
        and max(-values.min(), values.max()) > np.finfo(np.float32).max
    ):
        raise IoFailure(f"{path}: values exceed the float32 range")
    # float32 holds every integer up to 2**24 in magnitude, and not all past it
    if (
        values.dtype.kind in "iu"
        and values.dtype.itemsize > 2
        and (values.min() < -(2**24) or values.max() > 2**24)
    ):
        raise IoFailure(f"{path}: integers beyond ±2**24 would be rounded in float32")

    nx, ny, nz = grid.dims
    rank = 4 if grid.channel_count > 1 else 3
    hdr = bytearray(HEADER_SIZE + 4)  # the header and a zero extension flag
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into(
        "<8h", hdr, 40, rank, nx, ny, nz, grid.channel_count if rank == 4 else 1, 1, 1, 1
    )
    struct.pack_into("<2h", hdr, 70, 16, 32)  # float32
    sx, sy, sz = grid.spacing
    struct.pack_into("<8f", hdr, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", hdr, 108, 352.0, 1.0, 0.0)  # vox_offset, slope, inter
    hdr[344:348] = MAGIC_SINGLE

    voxels = np.ascontiguousarray(values, dtype="<f4")
    try:
        with open(path, "wb") as f:
            if path.suffix == ".gz":
                # GzipFile, not zlib's wbits=31 wrapper, which writes the build's OS code
                with gzip.GzipFile(
                    filename="", mode="wb", fileobj=f, compresslevel=_GZIP_LEVEL, mtime=0
                ) as gz:
                    gz.write(hdr)
                    gz.write(voxels)
            else:
                f.write(hdr)
                f.write(voxels)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
