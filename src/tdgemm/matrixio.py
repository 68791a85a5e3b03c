"""Matrix file I/O: a little-endian binary container."""

from __future__ import annotations

import struct

import numpy as np

from .config import dtype_of, precision_of_dtype
from .errors import TableFormatError

MAGIC = b"TGMM"
_PRECISION_CODES = {"single": 0, "double": 1}
_CODE_PRECISIONS = {v: k for k, v in _PRECISION_CODES.items()}
_HEADER = struct.Struct("<4sIIB")


def save_matrix(m: np.ndarray, path) -> None:
    if m.ndim != 2:
        raise TableFormatError(f"expected a 2-D matrix, got shape {m.shape}")
    precision = precision_of_dtype(m.dtype)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, m.shape[0], m.shape[1], _PRECISION_CODES[precision]))
        f.write(np.ascontiguousarray(m, dtype="<" + np.dtype(m.dtype).str[1:]).tobytes())


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
        data = f.read()
    expected = rows * cols * dtype.itemsize
    if len(data) != expected:
        raise TableFormatError(f"{path}: payload is {len(data)} bytes, expected {expected}")
    m = np.frombuffer(data, dtype=dtype).reshape(rows, cols)
    return np.ascontiguousarray(m, dtype=dtype.newbyteorder("="))
