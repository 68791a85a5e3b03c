"""Helper shared by the test modules."""

import numpy as np

from tdgemm.noise import BatchStats


def batch_stats(rows, L):
    """A 1-D BatchStats of tile side L, one entry per row
    ``(sigma_a, sigma_b, a_min, a_max, b_min, b_max)``."""
    return BatchStats(*np.array(rows, dtype=np.float64).reshape(-1, 6).T, L=L)
