"""Exhaustive grid minimiser, the tests' independent cross-check for the
gradient-based solvers in ``ldp_erm``."""

import math
from typing import Callable, Tuple

import numpy as np

from ldp_erm.errors import ParameterError


def dense_grid_minimize(objective_many: Callable, constraint,
                        step: float = 1e-3,
                        chunk: int = 1 << 16) -> Tuple[np.ndarray, float]:
    """Exhaustive scan of a ball of dim <= 2; ``objective_many`` maps
    (M, p) -> (M,).

    Serves as the independent cross-check for the gradient-based
    minimizers; cost grows like step^(-p), so keep p at 1 or 2.
    """
    p = constraint.dim
    if p > 2:
        raise ParameterError(f"dense grid scan supports dim <= 2, got {p}")
    center = np.asarray(constraint.center(), dtype=float)
    los = center - constraint.radius
    his = center + constraint.radius
    axes = []
    for j in range(p):
        count = int(round((his[j] - los[j]) / step)) + 1
        axes.append(np.linspace(los[j], his[j], count))
    if p == 1:
        pts = axes[0][:, None]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, p)
    pts = pts[np.linalg.norm(pts - center, axis=1) <= constraint.radius + 1e-12]
    best_w, best_f = None, math.inf
    for lo in range(0, len(pts), chunk):
        block = pts[lo:lo + chunk]
        vals = np.asarray(objective_many(block), dtype=float)
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_w, best_f = block[i].copy(), float(vals[i])
    return best_w, best_f
