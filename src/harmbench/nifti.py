"""Single-file NIfTI-1 reader and writer.

Parses the 348-byte binary header directly (both byte orders, inferred
from the ``sizeof_hdr`` field reading as 348) and keeps the voxels in
the file's own dtype, in native byte order: only a ``scl_slope`` /
``scl_inter`` scaling widens them to float64. Gzip containers are
auto-detected from the leading two bytes, not the file extension. Each
load parses the header once. Axes past its rank ``dim[0]`` are ignored:
they have extent 1 and spacing 1.0, whatever the header stores there;
axes 4 and up are channels, and a file with several loads as one grid
per channel. Paired ``.hdr``/``.img`` volumes (magic ``ni1``) are
rejected: every referenced dataset ships single-file volumes, and the
split layout would double the parser surface for nothing.

A file is read in pieces and a gzip file inflated member by member with
``zlib.decompressobj``, never into a buffer of the whole decoded file.
``load_volume`` reads the voxels straight into one array;
``scan_volume`` hands them, about 1 MiB at a time, to a consumer that
keeps only what it makes of them (a foreground's samples, label counts).
Both reject a bad file alike, with the same typed error.

Orientation is not carried into the loaded grid: ``load_volume``
drops the header, and only ``parse_header(...).affine`` exposes the
sform affine (the qform is not decoded). No metric in this package
consumes orientation.

Gzip writes are standard single-member gzip at level 1, made 256 KiB of
float32 payload at a time. A run of all-zero chunks, the background of
a skull-stripped volume, is not deflated: each of its chunks is written
as one copy of a precompressed deflate block of 256 KiB of zeros. A
grid with no all-zero chunk is written byte for byte as
``gzip.GzipFile`` writes it.
"""
from __future__ import annotations

import functools
import gzip
import io
import logging
import math
import os
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
from .volume import VoxelGrid, all_finite

log = logging.getLogger(__name__)

HEADER_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIRED = b"ni1\x00"
GZIP_MAGIC = b"\x1f\x8b"
_GZIP_LEVEL = 1  # write speed over size; see write_volume
# GzipFile's header at level 1 (deflate, no flags, mtime 0, XFL 4 = fastest, OS
# unknown), written by hand: zlib's own gzip wrapper writes the build's OS code
_GZIP_HEADER = GZIP_MAGIC + b"\x08\x00" + bytes(4) + b"\x04\xff"
# all-zero payload chunks of this size are spliced in precompressed; a smaller
# chunk splices more of a phantom but inflates slower (2**14: +20% on a 128^3 phantom)
_ZERO_CHUNK = 1 << 18
# deflate's largest output per input byte: a gzip file whose header asks for
# more voxel bytes than that many times its size is truncated
_DEFLATE_MAX_RATIO = 1032
# compressed bytes read, and the most inflated by one zlib call, at a time
_READ = 1 << 15
# voxel bytes of each piece a streamed read decodes
_PIECE = 1 << 20

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


class _Damaged(Exception):
    """The gzip stream ended inside a member or had bytes that are not one."""


class _Inflated:
    """The decoded bytes of an open gzip file, inflated member by member.

    ``readinto`` reads ``_READ`` compressed bytes at a time and inflates
    at most that many per zlib call, so it holds no more than that
    beside the caller's buffer. zlib checks each member's CRC and length.
    """

    def __init__(self, f):
        self._f = f
        self._member = zlib.decompressobj(31)
        self._fed = False  # whether the open member has taken input
        self._in = b""

    def readinto(self, view: memoryview) -> int:
        """Fill ``view``; fewer bytes only at the end of the stream."""
        done = 0
        while done < len(view):
            data = self._in or self._f.read(_READ)
            self._fed = self._fed or bool(data)
            out = self._member.decompress(data, min(len(view) - done, _READ))
            view[done : done + len(out)] = out
            done += len(out)
            if self._member.eof:
                self._in = self._member.unused_data
                self._member, self._fed = zlib.decompressobj(31), False
            else:
                self._in = self._member.unconsumed_tail
            if not data and not out:
                if self._fed:
                    raise _Damaged
                break
        return done


def _skip(stream, n: float) -> int:
    """Read past up to ``n`` bytes of ``stream``; how many there were."""
    scratch = memoryview(bytearray(int(min(n, _READ))))
    done = 0
    while done < n:
        got = stream.readinto(scratch[: int(min(n - done, _READ))])
        if not got:
            break
        done += got
    return done


def _native(raw: np.ndarray, scale: tuple[float, float] | None) -> np.ndarray:
    """The voxels ``raw``, read in the file's dtype, widened to float64 and
    scaled by ``scale`` (slope, intercept) if given, else in native byte
    order, swapped in place."""
    if scale is not None:
        values = raw.astype(np.float64)
        values *= scale[0]
        values += scale[1]
        return values
    if not raw.dtype.isnative:
        return raw.byteswap(inplace=True).view(raw.dtype.newbyteorder("="))
    return raw


def _decode(stream, size: int, path: Path, sink, piece: int | None):
    """Decode the NIfTI file ``stream`` into a sink; the sink's result.

    ``size`` bounds the decoded file's length. The header makes the sink,
    ``sink(dims, spacing, channels)``; its ``add`` takes the voxels in
    file order, native and scaled, ``piece`` bytes at a time, or all at
    once if ``piece`` is None, and ``result()`` gives what it made of
    them. Each failure waits for those before it in reading order: the
    header's, then a truncation, a non-finite voxel (pieces are checked
    as they are read; whole voxels only by the sink), then the first
    failure of ``add``, whose later pieces the sink then does not get.
    """
    head = bytearray(HEADER_SIZE)
    total = stream.readinto(memoryview(head))
    try:
        hdr = parse_header(head[:total], name=str(path))
    except HarmbenchError:
        _skip(stream, math.inf)  # a damaged gzip container outranks its header
        raise
    slope, inter, scale = hdr.scl_slope, hdr.scl_inter, None
    if not (math.isfinite(slope) and math.isfinite(inter)):
        log.warning("%s: non-finite scl_slope/scl_inter; scaling skipped", path)
    elif slope != 0.0 and (slope, inter) != (1.0, 0.0):
        if slope != 1.0:
            log.info("%s: applying scl_slope=%r scl_inter=%r", path, slope, inter)
        scale = slope, inter
    rank = hdr.dim[0]
    dims = tuple(hdr.dim[a] if a <= rank else 1 for a in (1, 2, 3))
    spacing = tuple(hdr.pixdim[a] if a <= rank else 1.0 for a in (1, 2, 3))
    channels = math.prod(hdr.dim[4 : rank + 1])
    offset, count = int(round(hdr.vox_offset)), math.prod(dims) * channels
    dtype = _DTYPES[hdr.datatype].newbyteorder(hdr.byte_order)
    need = count * dtype.itemsize

    total += _skip(stream, offset - HEADER_SIZE)
    starts = range(0, count, count if piece is None else max(piece // dtype.itemsize, 1))
    if need > size:
        starts = ()  # no grid of forged dims is allocated
    consumer, failure, finite = None, None, True
    try:
        consumer = sink(dims, spacing, channels)
    except Exception as exc:  # raised, as a failure of add is, once every voxel is read
        failure = exc
    for start in starts:
        raw = np.empty(min(starts.step, count - start), dtype)
        got = stream.readinto(memoryview(raw).cast("B"))
        total += got
        if got < raw.nbytes:
            break
        values = _native(raw, scale)
        if piece is not None and finite:
            finite = all_finite(values)
        if finite and failure is None:
            try:
                consumer.add(values)
            except Exception as exc:
                failure = exc
        del raw, values
    total += _skip(stream, math.inf)  # the rest of a gzip container is checked too
    if total - offset < need:
        raise TruncatedData(
            f"{path}: need {need} data bytes at offset {offset}, file has "
            f"{max(total - offset, 0)}"
        )
    try:
        if not finite:
            raise NonFiniteVoxel
        if failure is not None:
            raise failure
        return consumer.result()
    except NonFiniteVoxel:
        raise NonFiniteVoxel(f"{path}: voxel data contains NaN or infinity") from None
    finally:
        failure = None  # no cycle through its traceback


def _scan(path: str | Path, sink, piece: int | None):
    """:func:`_decode` of the file, inflated if it starts with the gzip magic.

    A gzip file is inflated a piece at a time, member by member. If the
    stream is damaged, or anything about it is one zlib and ``gzip``
    take differently (say, zero padding after the last member), the
    whole file is inflated again by ``gzip.decompress``, which types
    the error, or whose output is decoded instead.
    """
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(2) != GZIP_MAGIC:
            f.seek(0)
            return _decode(f, size, path, sink, piece)
        f.seek(0)
        try:
            return _decode(_Inflated(f), _DEFLATE_MAX_RATIO * size, path, sink, piece)
        except (_Damaged, zlib.error):
            pass
    try:
        buf = gzip.decompress(path.read_bytes())
    except (gzip.BadGzipFile, zlib.error) as exc:
        raise MalformedHeader(f"{path}: corrupt gzip container: {exc}") from exc
    except EOFError as exc:
        raise TruncatedData(f"{path}: truncated gzip stream") from exc
    return _decode(io.BytesIO(buf), len(buf), path, sink, piece)


def scan_volume(path: str | Path, sink):
    """What ``sink`` makes of the voxels of a plain or gzipped NIfTI-1
    file, read a piece of about 1 MiB at a time: no decoded copy of the
    whole file is made.

    ``sink(dims, spacing, channels)`` is called once the header is read;
    the object it returns gets every voxel by ``add(values)``, a piece at
    a time in file order (channel after channel), in native byte order
    and scaled as :func:`load_volume` gives them, and then ``result()``,
    whose value this returns. A file that :func:`load_volume` rejects is
    rejected with the same error, before ``result()`` is called; so is a
    failure of ``add``, which is raised only once the file has been read
    to its end and found sound.
    """
    return _scan(path, sink, _PIECE)


class _Grids:
    """The grid, or one per channel, of all the voxels of a file at once."""

    def __init__(self, dims, spacing, channels):
        self._layout = dims, spacing, channels

    def add(self, values: np.ndarray) -> None:
        self._values = values

    def result(self) -> VoxelGrid | tuple[VoxelGrid, ...]:
        dims, spacing, channels = self._layout
        if channels == 1:
            return VoxelGrid(dims, spacing, self._values)
        n = math.prod(dims)
        return tuple(
            VoxelGrid(dims, spacing, self._values[c * n : (c + 1) * n]) for c in range(channels)
        )


def load_volume(path: str | Path) -> VoxelGrid | tuple[VoxelGrid, ...]:
    """Read a plain or gzipped single-file NIfTI-1 volume.

    A file of one channel is one grid; a file of several (axes 4 to 7
    multiplied) is a tuple of grids, one per channel in file order, each
    a view into one array. The voxels are read, or inflated, straight
    into that array, in the file's dtype and then native byte order;
    only ``scl_slope``/``scl_inter`` scaling, applied per the standard
    (slope 0 means no scaling), widens them to float64.
    """
    return _scan(path, _Grids, None)


@functools.cache
def _deflated_zero_chunk() -> bytes:
    """Raw deflate of one all-zero chunk, ended on a full flush: it refers
    to nothing before it, and nothing after it refers into it."""
    deflate = zlib.compressobj(_GZIP_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    return deflate.compress(bytes(_ZERO_CHUNK)) + deflate.flush(zlib.Z_FULL_FLUSH)


def _float32_chunks(values: np.ndarray):
    """The voxels as little-endian float32 bytes, ``_ZERO_CHUNK`` at a time,
    each converted into the one buffer the last was."""
    buf = np.empty(_ZERO_CHUNK // 4, "<f4")
    for start in range(0, values.size, buf.size):
        chunk = buf[: min(buf.size, values.size - start)]
        np.copyto(chunk, values[start : start + chunk.size], casting="unsafe")
        yield memoryview(chunk).cast("B")


def _write_gzip(f, hdr: bytes, chunks) -> None:
    """Write ``hdr`` and the voxel ``chunks`` to ``f`` as one gzip member,
    splicing in :func:`_deflated_zero_chunk` for each all-zero chunk.

    A chunk is zero if its bits are (``-0.0`` is not zero) and it is a
    whole ``_ZERO_CHUNK`` long. Everything else goes through one deflate
    stream, which is fully flushed before each run of zero chunks so that
    no later match reaches back across the splice. With no zero chunk,
    that stream is exactly ``GzipFile``'s.
    """
    deflate = zlib.compressobj(_GZIP_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    f.write(_GZIP_HEADER)
    f.write(deflate.compress(hdr))
    crc, size, spliced = zlib.crc32(hdr), len(hdr), False
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        size += len(chunk)
        if len(chunk) == _ZERO_CHUNK and not np.frombuffer(chunk, np.uint64).any():
            if not spliced:
                f.write(deflate.flush(zlib.Z_FULL_FLUSH))
            f.write(_deflated_zero_chunk())
            spliced = True
        else:
            f.write(deflate.compress(chunk))
            spliced = False
    f.write(deflate.flush())
    f.write(struct.pack("<2I", crc, size & 0xFFFFFFFF))


def write_volume(grid: VoxelGrid, path: str | Path) -> None:
    """Write ``grid`` as a 3-D single-file NIfTI-1, float32, little-endian.

    ``.gz`` paths, the suffix in any case, are gzip level 1 with mtime 0
    and no file name, so the same grid gives the same bytes run after run
    and on every platform.
    Each 256 KiB chunk of the voxels whose bits are all zero is not
    deflated but spliced in precompressed (see :func:`_write_gzip`); when
    no chunk is, the bytes are those ``gzip.GzipFile`` writes. A stock
    128^3 phantom is written about 4 times faster than at level 9, and
    its segmentation 7 times, though the segmentation takes 50 kB instead
    of 12 kB and a dense intensity volume about 2% more. The voxels are
    converted to float32, checked for zero chunks, compressed, checksummed
    and written one 256 KiB chunk at a time, so a write holds no float32
    copy of the grid.
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
    hdr = bytearray(HEADER_SIZE + 4)  # the header and a zero extension flag
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, 16, 32)  # float32
    sx, sy, sz = grid.spacing
    struct.pack_into("<8f", hdr, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", hdr, 108, 352.0, 1.0, 0.0)  # vox_offset, slope, inter
    hdr[344:348] = MAGIC_SINGLE

    chunks = _float32_chunks(values)
    try:
        with open(path, "wb") as f:
            if path.suffix.lower() == ".gz":
                _write_gzip(f, hdr, chunks)
            else:
                f.write(hdr)
                f.writelines(chunks)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
