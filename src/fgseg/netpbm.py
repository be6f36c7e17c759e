"""Binary netpbm codecs: P5 (grayscale PGM) and P6 (color PPM).

8-bit for maxval <= 255, big-endian 16-bit above that, per the format spec.
These two formats are the package's only mandatory image codecs; everything
else goes through the pluggable reader registry in data.py.  Every file the
package writes goes through atomic_write.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_WHITESPACE = b" \t\r\n"


def _next_token(buf: bytes, pos: int):
    while True:
        while pos < len(buf) and buf[pos] in _WHITESPACE:
            pos += 1
        if pos < len(buf) and buf[pos] == ord("#"):
            while pos < len(buf) and buf[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(buf) and buf[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise ValueError("netpbm: truncated header")
    return buf[start:pos], pos


def read_netpbm(path):
    """Read a binary PGM/PPM file.

    Returns (H, W) for P5 and (H, W, 3) for P6; dtype uint8, or uint16 when
    maxval exceeds 255.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _next_token(buf, 0)
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"{path}: unsupported netpbm magic {magic!r}")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(buf, pos)
        if not tok.isdigit():
            raise ValueError(f"{path}: bad netpbm header token {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if not 0 < maxval < 65536:
        raise ValueError(f"{path}: maxval {maxval} out of range")
    pos = min(pos + 1, len(buf))  # one whitespace byte, then the raster
    channels = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height * channels
    available = len(buf) - pos
    if available < count * dtype.itemsize:
        raise ValueError(f"{path}: truncated raster "
                         f"({available} of {count * dtype.itemsize} bytes)")
    data = np.frombuffer(buf, dtype, count, offset=pos)  # a view of the file's bytes
    if not data.flags.aligned:
        # 16-bit samples after an odd-length header: numpy byte-swaps an
        # aligned copy several times faster than the unaligned view
        data = data.copy()
    data = data.astype(np.uint16 if maxval > 255 else np.uint8)
    if channels == 1:
        return data.reshape(height, width)
    return data.reshape(height, width, 3)


def _format_raster(arr, channels, what):
    arr = np.asarray(arr)
    if channels == 1 and arr.ndim != 2:
        raise ValueError(f"{what}: expected (H, W), got {arr.shape}")
    if channels == 3 and (arr.ndim != 3 or arr.shape[2] != 3):
        raise ValueError(f"{what}: expected (H, W, 3), got {arr.shape}")
    if arr.dtype == np.uint8:
        maxval, payload = 255, arr.tobytes()
    elif arr.dtype == np.uint16:
        maxval, payload = 65535, arr.astype(">u2").tobytes()
    else:
        raise ValueError(f"{what}: dtype must be uint8 or uint16, got {arr.dtype}")
    h, w = arr.shape[:2]
    header = f"{'P5' if channels == 1 else 'P6'}\n{w} {h}\n{maxval}\n".encode("ascii")
    return header + payload


@contextmanager
def atomic_write(path, mode="wb", **kwargs):
    """Open a temp file beside path for writing, making path's missing
    directories first; it replaces path only when the block completes, so
    an error leaves the old file and no temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_pgm(path, arr):
    """Write a 2-D uint8/uint16 array as binary PGM."""
    with atomic_write(path) as fh:
        fh.write(_format_raster(arr, 1, "write_pgm"))


def write_ppm(path, arr):
    """Write an (H, W, 3) uint8/uint16 array as binary PPM."""
    with atomic_write(path) as fh:
        fh.write(_format_raster(arr, 3, "write_ppm"))
