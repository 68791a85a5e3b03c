"""Matrix file I/O: a little-endian binary container."""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np

from .config import dtype_of, precision_of_dtype
from .errors import TableFormatError

MAGIC = b"TGMM"
_PRECISION_CODES = {"single": 0, "double": 1}
_CODE_PRECISIONS = {v: k for k, v in _PRECISION_CODES.items()}
_HEADER = struct.Struct("<4sIIB")


def _file_parts(m: np.ndarray) -> tuple:
    if m.ndim != 2:
        raise TableFormatError(f"expected a 2-D matrix, got shape {m.shape}")
    head = _HEADER.pack(MAGIC, *m.shape, _PRECISION_CODES[precision_of_dtype(m.dtype)])
    return head, np.ascontiguousarray(m, dtype=m.dtype.newbyteorder("<"))  # a view if it can be


def save_matrix(m: np.ndarray, path) -> None:
    parts = _file_parts(m)  # checked before the file is opened
    with open(path, "wb") as f:
        f.writelines(parts)  # the payload through the buffer protocol, no copy


def matrix_sha256(m: np.ndarray) -> str:
    """sha256 of ``save_matrix``'s bytes for ``m``: a loaded array's is its file's."""
    head, payload = _file_parts(m)
    h = hashlib.sha256(head)
    h.update(payload)
    return h.hexdigest()


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise TableFormatError(f"{path}: truncated header")
        magic, rows, cols, code = _HEADER.unpack(head)
        if magic != MAGIC:
            raise TableFormatError(f"{path}: bad magic {magic!r}")
        if code not in _CODE_PRECISIONS:
            raise TableFormatError(f"{path}: unknown precision code {code}")
        dtype = np.dtype(dtype_of(_CODE_PRECISIONS[code])).newbyteorder("<")
        expected = rows * cols * dtype.itemsize
        size = os.fstat(f.fileno()).st_size - _HEADER.size  # negative for a pipe
        data = f.read(expected) if size == expected else f.read()  # read() copies twice
    if len(data) != expected:
        raise TableFormatError(f"{path}: payload is {len(data)} bytes, expected {expected}")
    m = np.frombuffer(data, dtype=dtype).reshape(rows, cols)
    return np.ascontiguousarray(m, dtype=dtype.newbyteorder("="))
