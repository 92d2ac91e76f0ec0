"""Minimal NPY v1.0 array files: 2D little-endian float64, C order, nothing else.

Headers are read and written by numpy's own :mod:`numpy.lib.format`. The writer
emits exactly this subset; the reader rejects anything outside it with a
message naming the violated constraint. Round trips are bitwise lossless.
Files are written through :func:`write_atomic`, as are the CLI's text outputs.
"""

from __future__ import annotations

import io
import os
import tokenize
import warnings
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format


class ArrayFileError(ValueError):
    """Raised when a file is not a supported NPY v1.0 float64 2D array."""


def write_atomic(path, chunks) -> None:
    """Write the byte strings ``chunks`` to ``path`` atomically.

    The file is written under a temporary name in the target's directory and
    then renamed onto ``path``, so ``path`` holds either its old content or
    the complete new file, never a partial one.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    # Mode 0o666 as open(path, "wb") uses, so the umask applies the same way.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_array(path, array) -> None:
    """Write a 2D float64 array as NPY v1.0 (little-endian, C order), atomically
    (see :func:`write_atomic`)."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ArrayFileError(f"only 2D arrays are supported, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr, dtype="<f8")
    header = io.BytesIO()
    npy_format.write_array_header_1_0(header, npy_format.header_data_from_array_1_0(arr))
    write_atomic(path, [header.getvalue(), arr.reshape(-1).view(np.uint8)])


def load_array(path) -> np.ndarray:
    """Read an NPY file, accepting only v1.0 / little-endian float64 / C order / 2D
    (any descr numpy reads as '<f8': '<d', and 'f8' on a little-endian host, too)."""
    with Path(path).open("rb") as fh:
        try:
            version = npy_format.read_magic(fh)
        except ValueError as exc:
            raise ArrayFileError(f"{path}: not an NPY file (bad magic)") from exc
        if version != (1, 0):
            raise ArrayFileError(f"{path}: unsupported NPY version {version[0]}.{version[1]}; "
                                 "only 1.0 is supported")
        # Warnings are errors: numpy accepts a Python 2 header with a UserWarning.
        # 1 << 16 exceeds any v1.0 header, whose length field has 2 bytes.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                shape, fortran, dtype = npy_format.read_array_header_1_0(fh, max_header_size=1 << 16)
        except (ValueError, TypeError, IndexError, SyntaxError, MemoryError, RecursionError,
                tokenize.TokenError, Warning) as exc:
            reason = "truncated header" if str(exc).startswith("EOF") else "malformed header dict"
            raise ArrayFileError(f"{path}: {reason}") from exc
        if dtype.str != "<f8":
            raise ArrayFileError(f"{path}: dtype {dtype.str!r} is not supported; "
                                 "only '<f8' (little-endian float64)")
        if fortran:
            raise ArrayFileError(f"{path}: Fortran-order arrays are not supported")
        # numpy takes True for a shape entry; it is not a size here.
        if len(shape) != 2 or not all(type(n) is int and n >= 0 for n in shape):
            raise ArrayFileError(f"{path}: shape {shape!r} is not 2D (two non-negative integers)")
        expected = 8 * shape[0] * shape[1]
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != expected:
            raise ArrayFileError(f"{path}: payload is {payload} bytes, "
                                 f"expected {expected} for shape {shape}")
        try:
            arr = np.empty(shape, dtype="<f8")
        except ValueError as exc:
            # An empty payload passes the size check for any shape with a zero.
            raise ArrayFileError(f"{path}: shape {shape!r} is too large") from exc
        if fh.readinto(arr) != expected:
            raise ArrayFileError(f"{path}: payload shrank below {expected} bytes while read")
    return arr
