"""Native-precision properties."""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfigError

PRECISIONS = ("single", "double")

_DTYPES = {"single": np.float32, "double": np.float64}
_MANTISSA_BITS = {"single": 24, "double": 53}


def dtype_of(precision: str):
    _check_precision(precision)
    return _DTYPES[precision]


def mantissa_bits(precision: str) -> int:
    _check_precision(precision)
    return _MANTISSA_BITS[precision]


def u_sys_of(precision: str) -> float:
    """Relative machine precision of the native format (half-ulp of 1.0)."""
    return 2.0 ** -mantissa_bits(precision)


def precision_of_dtype(dtype) -> str:
    dtype = np.dtype(dtype)
    for name, dt in _DTYPES.items():
        if np.dtype(dt) == dtype:
            return name
    raise InvalidConfigError(f"unsupported dtype {dtype}")


def _check_precision(precision: str) -> None:
    if precision not in PRECISIONS:
        raise InvalidConfigError(f"precision must be one of {PRECISIONS}, got {precision!r}")
