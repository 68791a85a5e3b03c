"""Engine configuration and native-precision properties."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class EngineConfig:
    """Global constants of the engine.

    ``k`` scales the tile side; ``u_safe`` is the guard integer in the packing
    coefficient bound; ``u_sys`` defaults to the relative precision of the
    native format implied by ``b_repr``.
    """

    simd_bytes: int = 16
    b_repr: int = 4
    max_w: int = 4
    k: int = 1
    u_safe: int = 50
    u_sys: float = field(default=0.0)

    def __post_init__(self):
        if self.b_repr not in (4, 8):
            raise InvalidConfigError(f"b_repr must be 4 or 8, got {self.b_repr}")
        if self.simd_bytes % self.b_repr != 0:
            raise InvalidConfigError(
                f"b_repr={self.b_repr} does not divide simd_bytes={self.simd_bytes}"
            )
        if self.max_w < 1:
            raise InvalidConfigError(f"max_w must be >= 1, got {self.max_w}")
        if self.k < 1:
            raise InvalidConfigError(f"k must be a positive integer, got {self.k}")
        if self.u_safe < 1:
            raise InvalidConfigError(f"u_safe must be >= 1, got {self.u_safe}")
        if self.u_sys == 0.0:
            object.__setattr__(
                self, "u_sys", u_sys_of("single" if self.b_repr == 4 else "double")
            )
        if not 0.0 < self.u_sys < 1.0:
            raise InvalidConfigError(f"u_sys must be in (0, 1), got {self.u_sys}")

    @property
    def precision(self) -> str:
        return "single" if self.b_repr == 4 else "double"


def compute_L(config: EngineConfig) -> int:
    """Tile side divisible by every packing count in {1..max_w}."""
    lcm = 1
    for w in range(2, config.max_w + 1):
        lcm = math.lcm(lcm, w)
    return (config.simd_bytes // config.b_repr) * config.k * lcm
