"""Helpers shared by the test modules."""

import numpy as np

from tdgemm import controller
from tdgemm.noise import BatchStats


def batch_stats(rows, L):
    """A 1-D BatchStats of tile side L, one entry per row
    ``(sigma_a, sigma_b, a_min, a_max, b_min, b_max)``."""
    return BatchStats(*np.array(rows, dtype=np.float64).reshape(-1, 6).T, L=L)


def plan_of(mode, configs):
    """The Plan that runs ``configs[i][j][l]`` on subblock l of kernel
    ``(i, j)``: a PackingConfig of ``mode``, or None for the plain path."""
    options = np.zeros((len(configs), len(configs[0]), len(configs[0][0])),
                       dtype=controller.OPTION_DTYPE)
    options["w"], options["c_a"], options["c_b"] = 1, 1.0, 1.0
    for i, j, l in np.ndindex(options.shape):
        options["l"][i, j, l] = l
        cfg = configs[i][j][l]
        if cfg is not None:
            assert cfg.mode == mode
            for name in ("w", "z", "c_a", "c_b", "rmax"):
                options[name][i, j, l] = getattr(cfg, name)
    return controller.fixed_plan(mode, options)
