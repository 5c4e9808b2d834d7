"""Hand-rolled NIfTI-1 byte builders for parser tests.

Constructs files field by field with struct, independently of the
package's writer, so reader and writer cannot share a bug. Also knows
how to byte-swap a little-endian file into its big-endian twin.
"""
from __future__ import annotations

import gzip
import io
import struct

import numpy as np
import pytest

from harmbench.errors import MalformedHeader, TruncatedData, UnsupportedDatatype

DT_NUMPY = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}
DT_BITPIX = {2: 8, 4: 16, 8: 32, 16: 32, 64: 64}


def build_nifti(
    data,
    *,
    byte_order: str = "<",
    datatype: int = 16,
    dim: tuple[int, ...] | None = None,
    pixdim: tuple[float, ...] | None = None,
    sizeof_hdr: int = 348,
    magic: bytes = b"n+1\x00",
    bitpix: int | None = None,
    vox_offset: float = 352.0,
    scl_slope: float = 0.0,
    scl_inter: float = 0.0,
    truncate_data_to: int | None = None,
    gzipped: bool = False,
) -> bytes:
    """Assemble a single-file NIfTI-1 byte string, malformed on request."""
    arr = np.asarray(data)
    if dim is None:
        shape = arr.shape if arr.ndim == 3 else (arr.size, 1, 1)
        dim = (3, *shape, 1, 1, 1, 1)
    dim = tuple(dim) + (1,) * (8 - len(dim))
    if pixdim is None:
        pixdim = (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    pixdim = tuple(pixdim) + (0.0,) * (8 - len(pixdim))
    if bitpix is None:
        bitpix = DT_BITPIX.get(datatype, 32)

    hdr = bytearray(348)
    struct.pack_into(byte_order + "i", hdr, 0, sizeof_hdr)
    struct.pack_into(byte_order + "8h", hdr, 40, *dim)
    struct.pack_into(byte_order + "2h", hdr, 70, datatype, bitpix)
    struct.pack_into(byte_order + "8f", hdr, 76, *pixdim)
    struct.pack_into(byte_order + "3f", hdr, 108, vox_offset, scl_slope, scl_inter)
    hdr[344:348] = magic

    if datatype in DT_NUMPY:
        payload = arr.astype(np.dtype(byte_order + DT_NUMPY[datatype])).tobytes(order="F")
    else:
        payload = arr.astype(np.dtype(byte_order + "f4")).tobytes(order="F")
    if truncate_data_to is not None:
        payload = payload[:truncate_data_to]

    pad = b"\x00" * max(int(vox_offset) - 348, 0) if np.isfinite(vox_offset) else b""
    blob = bytes(hdr) + pad + payload
    if gzipped:
        out = io.BytesIO()
        with gzip.GzipFile(filename="", mode="wb", fileobj=out, mtime=0) as gz:
            gz.write(blob)
        return out.getvalue()
    return blob


def corrupt_deflate(gz_blob: bytes) -> bytes:
    """Invert eight bytes of the Huffman tables at the head of a gzip
    member's deflate body (the header is 10 bytes when no file name is
    stored), so inflating fails inside zlib. Length, header and trailer
    are kept."""
    out = bytearray(gz_blob)
    out[12:20] = bytes(b ^ 0xFF for b in out[12:20])
    return bytes(out)


def _member(data: bytes) -> bytes:
    return gzip.compress(data, mtime=0)


def sound_gzip_variants(plain: bytes) -> dict[str, bytes]:
    """Gzip containers, by name, that ``gzip.decompress`` decodes to ``plain``
    (of even length), in ways a single-member reader can miss."""
    half = len(plain) // 2
    return {
        "two-members": _member(plain[:400]) + _member(plain[400:]),
        # the first member is as long as the last one's ISIZE
        "equal-size-members": _member(plain[:half]) + _member(plain[half:]),
        # bgzip ends every file with an empty member, whose ISIZE is 0
        "empty-last-member": _member(plain) + _member(b""),
        "zero-padding": _member(plain) + bytes(16),
    }


def damaged_gzip_variants(plain: bytes) -> dict[str, bytes]:
    """Gzip containers of ``plain``, by name, that ``gzip.decompress`` rejects."""
    one = _member(plain)
    trailing = bytearray(_member(b"trailing bytes"))
    trailing[-8] ^= 0xFF  # its CRC
    forged = bytearray(one)
    forged[-4:] = b"\xff\xff\xff\xff"  # ISIZE
    return {
        "corrupt-deflate": corrupt_deflate(one),
        "corrupt-trailing-member": one + bytes(trailing),
        "forged-isize": bytes(forged),
        "truncated": one[: len(one) // 2],
        "garbage-after-the-header": one[:40] + b"\x99" * 10,
    }


# header fields that need swapping: (offset, count, item size)
_SWAP_FIELDS = [
    (0, 1, 4), (32, 1, 4), (36, 1, 2), (40, 8, 2), (56, 3, 4), (68, 3, 2),
    (74, 1, 2), (76, 8, 4), (108, 3, 4), (120, 1, 2), (124, 4, 4), (140, 2, 4),
    (252, 2, 2), (256, 6, 4), (280, 12, 4),
]


def byteswap_nifti(blob: bytes, item_size: int, data_offset: int = 352) -> bytes:
    """Swap every multi-byte header field and the voxel payload."""
    out = bytearray(blob)
    for offset, count, size in _SWAP_FIELDS:
        for i in range(count):
            start = offset + i * size
            out[start : start + size] = out[start : start + size][::-1]
    for start in range(data_offset, len(out), item_size):
        out[start : start + item_size] = out[start : start + item_size][::-1]
    return bytes(out)


_ZEROS = np.zeros((2, 2, 2), np.float32)


# a file malformed one way per case, as (data, build_nifti fields, the error
# load_volume raises, a pattern of its text)
TYPED_FAILURES = [
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
]
