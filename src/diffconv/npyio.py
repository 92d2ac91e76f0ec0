"""Minimal NPY v1.0 array files: 2D little-endian float64, C order, nothing else.

The writer emits exactly this subset; the reader validates every header field
and rejects anything outside it with a message naming the violated constraint.
Round trips are bitwise lossless. Files are written through
:func:`write_atomic`, which the CLI also uses for its text outputs.
"""

from __future__ import annotations

import ast
import os
import secrets
from pathlib import Path

import numpy as np

_MAGIC = b"\x93NUMPY"
_VERSION = bytes([1, 0])


class ArrayFileError(ValueError):
    """Raised when a file is not a supported NPY v1.0 float64 2D array."""


def write_atomic(path, chunks) -> None:
    """Write the byte strings ``chunks`` to ``path`` atomically.

    The file is written under a temporary name in the target's directory and
    then renamed onto ``path``, so ``path`` holds either its old content or
    the complete new file, never a partial one.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp")
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
    header = (
        "{'descr': '<f8', 'fortran_order': False, "
        f"'shape': ({arr.shape[0]}, {arr.shape[1]}), }}"
    )
    prefix_len = len(_MAGIC) + len(_VERSION) + 2
    total = prefix_len + len(header) + 1
    header = header + " " * (-total % 64) + "\n"
    write_atomic(path, [
        _MAGIC,
        _VERSION,
        len(header).to_bytes(2, "little"),
        header.encode("latin1"),
        arr.reshape(-1).view(np.uint8),
    ])


def load_array(path) -> np.ndarray:
    """Read an NPY file, accepting only v1.0 / '<f8' / C order / 2D."""
    with Path(path).open("rb") as fh:
        prefix = fh.read(10)
        if len(prefix) < 10 or prefix[:6] != _MAGIC:
            raise ArrayFileError(f"{path}: not an NPY file (bad magic)")
        if prefix[6:8] != _VERSION:
            raise ArrayFileError(
                f"{path}: unsupported NPY version {prefix[6]}.{prefix[7]}; only 1.0 is supported"
            )
        header_len = int.from_bytes(prefix[8:10], "little")
        text = fh.read(header_len)
        if len(text) < header_len:
            raise ArrayFileError(f"{path}: truncated header")
        try:
            header = ast.literal_eval(text.decode("latin1"))
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError) as exc:
            # literal_eval raises TypeError for an unhashable key, and
            # MemoryError or RecursionError for deeply nested input.
            raise ArrayFileError(f"{path}: malformed header dict") from exc
        if not isinstance(header, dict) or set(header) != {"descr", "fortran_order", "shape"}:
            raise ArrayFileError(f"{path}: malformed header dict")
        if header["descr"] != "<f8":
            raise ArrayFileError(
                f"{path}: dtype {header['descr']!r} is not supported; only '<f8' "
                f"(little-endian float64)"
            )
        if header["fortran_order"] is not False:
            raise ArrayFileError(f"{path}: Fortran-order arrays are not supported")
        shape = header["shape"]
        if (
            not isinstance(shape, tuple)
            or len(shape) != 2
            or not all(type(n) is int and n >= 0 for n in shape)
        ):
            raise ArrayFileError(f"{path}: shape {shape!r} is not 2D (two non-negative integers)")
        expected = 8 * shape[0] * shape[1]
        payload = os.fstat(fh.fileno()).st_size - 10 - header_len
        if payload != expected:
            raise ArrayFileError(
                f"{path}: payload is {payload} bytes, expected {expected} for shape {shape}"
            )
        try:
            arr = np.empty(shape, dtype="<f8")
        except ValueError as exc:
            # An empty payload passes the size check for any shape with a zero.
            raise ArrayFileError(f"{path}: shape {shape!r} is too large") from exc
        if fh.readinto(arr) != expected:
            raise ArrayFileError(f"{path}: payload shrank below {expected} bytes while read")
    return arr
