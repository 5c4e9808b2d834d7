"""Single-file NIfTI-1 reader and writer.

Parses the 348-byte binary header directly (both byte orders, inferred
from the ``sizeof_hdr`` field reading as 348), applies ``scl_slope`` /
``scl_inter`` intensity scaling, and widens voxel data to float64.
Gzip containers are auto-detected from the leading two bytes, not the
file extension. Paired ``.hdr``/``.img`` volumes (magic ``ni1``) are
rejected: every referenced dataset ships single-file volumes, and the
split layout would double the parser surface for nothing.

Orientation (qform/sform) is parsed into an opaque affine for
provenance only; no metric in this package consumes it.
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

# datatype code -> numpy dtype (byte order applied at read time)
_DTYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
}
_BITPIX = {2: 8, 4: 16, 8: 32, 16: 32, 64: 64}


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
        """sform affine when sform_code > 0, else None. Provenance only."""
        (sform_code,) = struct.unpack_from(self.byte_order + "h", self.raw, 254)
        if sform_code <= 0:
            return None
        rows = struct.unpack_from(self.byte_order + "12f", self.raw, 280)
        return np.array(
            [rows[0:4], rows[4:8], rows[8:12], [0.0, 0.0, 0.0, 1.0]], dtype=np.float64
        )


def _read_bytes(path: Path) -> bytes:
    buf = path.read_bytes()
    if buf[:2] != GZIP_MAGIC:
        return buf
    try:
        return gzip.decompress(buf)
    except (gzip.BadGzipFile, zlib.error) as exc:
        raise MalformedHeader(f"{path}: corrupt gzip container: {exc}") from exc
    except EOFError as exc:
        raise TruncatedData(f"{path}: truncated gzip stream") from exc


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
    if bitpix != _BITPIX[datatype]:
        raise MalformedHeader(
            f"{name}: bitpix {bitpix} inconsistent with datatype {datatype} "
            f"(expected {_BITPIX[datatype]})"
        )

    rank = dim[0]
    if not 1 <= rank <= 7:
        raise MalformedHeader(f"{name}: dim[0] (rank) must be in 1..7, got {rank}")
    for axis in range(1, min(rank, 3) + 1):
        if dim[axis] < 1:
            raise MalformedHeader(f"{name}: dim[{axis}] must be >= 1, got {dim[axis]}")
    for axis in range(4, rank + 1):
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


def _grid_shape(hdr: NiftiHeader) -> tuple[tuple[int, int, int], int]:
    rank = hdr.dim[0]
    extents = [hdr.dim[a] if a <= rank else 1 for a in (1, 2, 3)]
    channels = 1
    for axis in range(4, rank + 1):
        channels *= hdr.dim[axis]
    return (extents[0], extents[1], extents[2]), channels


def _spacing(hdr: NiftiHeader) -> tuple[float, float, float]:
    rank = hdr.dim[0]
    return tuple(hdr.pixdim[a] if a <= rank else 1.0 for a in (1, 2, 3))


def load_volume(path: str | Path) -> VoxelGrid:
    """Read a plain or gzipped single-file NIfTI-1 volume.

    Returns a float64 :class:`VoxelGrid` with ``scl_slope``/``scl_inter``
    applied per the standard (slope 0 means no scaling).
    """
    path = Path(path)
    buf = _read_bytes(path)
    hdr = parse_header(buf, name=str(path))
    dims, channels = _grid_shape(hdr)
    count = dims[0] * dims[1] * dims[2] * channels

    dtype = _DTYPES[hdr.datatype].newbyteorder(hdr.byte_order)
    offset = int(round(hdr.vox_offset))
    need = count * dtype.itemsize
    if len(buf) - offset < need:
        raise TruncatedData(
            f"{path}: need {need} data bytes at offset {offset}, file has "
            f"{max(len(buf) - offset, 0)}"
        )
    values = np.frombuffer(buf, dtype=dtype, count=count, offset=offset).astype(np.float64)

    slope, inter = hdr.scl_slope, hdr.scl_inter
    if not (math.isfinite(slope) and math.isfinite(inter)):
        log.warning("%s: non-finite scl_slope/scl_inter; scaling skipped", path)
    elif slope != 0.0 and (slope, inter) != (1.0, 0.0):
        if slope != 1.0:
            log.info("%s: applying scl_slope=%r scl_inter=%r", path, slope, inter)
        values *= slope
        values += inter

    try:
        return VoxelGrid(dims, _spacing(hdr), values, channel_count=channels)
    except NonFiniteVoxel:
        raise NonFiniteVoxel(f"{path}: voxel data contains NaN or infinity") from None


def write_volume(grid: VoxelGrid, path: str | Path) -> None:
    """Write ``grid`` as a single-file NIfTI-1, float32, little-endian.

    ``.gz`` paths are gzip-compressed with a zeroed timestamp so repeated
    writes of the same grid are byte-identical.
    """
    path = Path(path)
    if grid.values.size and float(np.max(np.abs(grid.values))) > float(np.finfo(np.float32).max):
        raise IoFailure(f"{path}: values exceed the float32 range")

    nx, ny, nz = grid.dims
    rank = 4 if grid.channel_count > 1 else 3
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into(
        "<8h", hdr, 40, rank, nx, ny, nz, grid.channel_count if rank == 4 else 1, 1, 1, 1
    )
    struct.pack_into("<2h", hdr, 70, 16, 32)  # float32
    sx, sy, sz = grid.spacing
    struct.pack_into("<8f", hdr, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", hdr, 108, 352.0, 1.0, 0.0)  # vox_offset, slope, inter
    hdr[344:348] = MAGIC_SINGLE

    payload = bytes(hdr) + b"\x00" * 4 + grid.values.astype("<f4").tobytes()
    try:
        if path.suffix == ".gz":
            with open(path, "wb") as f:
                with gzip.GzipFile(filename="", mode="wb", fileobj=f, mtime=0) as gz:
                    gz.write(payload)
        else:
            with open(path, "wb") as f:
                f.write(payload)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
