"""Exhaustive grid minimiser, the tests' independent cross-check for the
gradient-based solvers in ``ldp_erm``."""

import math
from typing import Callable, Tuple

import numpy as np

from ldp_erm.errors import ParameterError


def dense_grid_minimize(objective_many: Callable, dim: int,
                        step: float = 1e-3,
                        chunk: int = 1 << 16) -> Tuple[np.ndarray, float]:
    """Exhaustive scan of the unit ball in ``dim`` <= 2 dimensions;
    ``objective_many`` maps (M, dim) -> (M,).

    Serves as the independent cross-check for the gradient-based
    minimizers; cost grows like step^(-dim), so keep dim at 1 or 2.
    """
    if dim > 2:
        raise ParameterError(f"dense grid scan supports dim <= 2, got {dim}")
    axis = np.linspace(-1.0, 1.0, int(round(2.0 / step)) + 1)
    if dim == 1:
        pts = axis[:, None]
    else:
        mesh = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, dim)
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12]
    best_w, best_f = None, math.inf
    for lo in range(0, len(pts), chunk):
        block = pts[lo:lo + chunk]
        vals = np.asarray(objective_many(block), dtype=float)
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_w, best_f = block[i].copy(), float(vals[i])
    return best_w, best_f
