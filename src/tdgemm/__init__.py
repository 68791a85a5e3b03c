"""Precision-scalable GEMM: trade output distortion for throughput by
companding inputs to integers and packing several per native float."""

__version__ = "0.1.0"

from .blocking import plain_subblock_gemm, reorder_block_major, tiered_gemm
from .packing import PackingConfig, packed_subblock_product

__all__ = [
    "plain_subblock_gemm",
    "reorder_block_major",
    "tiered_gemm",
    "PackingConfig",
    "packed_subblock_product",
    "__version__",
]
