"""Non-private reference solvers.

These provide the "truth" side of every excess-risk measurement: a
projected subgradient method with iterate averaging for convex objectives
over a ball or box, a dense-grid scan for low-dimensional cross-checks,
and a convenience wrapper for margin losses on labelled data. Nothing here
is privatized.
"""

import math
from typing import Callable, Tuple

import numpy as np

from .errors import ParameterError
from .geometry import BallConstraint

ITERS = 10_000  # steps of the reference solver
EVAL_EVERY = 200  # steps between scorings of the averaged and raw iterates


def projected_subgradient(objective: Callable, subgrad: Callable,
                          constraint) -> Tuple[np.ndarray, float]:
    """Classic R/sqrt(t) projected subgradient with iterate averaging.

    Tracks the running average of the iterates and keeps whichever
    evaluated point (average or raw iterate) scored best; for 1-Lipschitz
    convex objectives the returned value is within about R/sqrt(ITERS) of
    the constrained optimum, i.e. ~1e-2 R, and in
    practice much closer once averaging kicks in.
    """
    radius = constraint.radius
    w = np.asarray(constraint.center(), dtype=float)
    avg = w.copy()
    best_w, best_f = w.copy(), float(objective(w))
    for t in range(1, ITERS + 1):
        g = np.asarray(subgrad(w), dtype=float)
        w = constraint.project(w - (radius / math.sqrt(t)) * g)
        avg += (w - avg) / (t + 1)
        if t % EVAL_EVERY == 0 or t == ITERS:
            for cand in (avg, w):
                f = float(objective(cand))
                if f < best_f:
                    best_w, best_f = cand.copy(), f
    return best_w, best_f


def dense_grid_minimize(objective_many: Callable, constraint,
                        step: float = 1e-3,
                        chunk: int = 1 << 16) -> Tuple[np.ndarray, float]:
    """Exhaustive scan for dim <= 2; ``objective_many`` maps (M, p) -> (M,).

    Serves as the independent cross-check for the gradient-based
    minimizers; cost grows like step^(-p), so keep p at 1 or 2.
    """
    p = constraint.dim
    if p > 2:
        raise ParameterError(f"dense grid scan supports dim <= 2, got {p}")
    center = np.asarray(constraint.center(), dtype=float)
    if hasattr(constraint, "lo"):
        los = np.full(p, constraint.lo)
        his = np.full(p, constraint.hi)
    else:
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
    if not hasattr(constraint, "lo"):
        pts = pts[np.linalg.norm(pts - center, axis=1) <= constraint.radius + 1e-12]
    best_w, best_f = None, math.inf
    for lo in range(0, len(pts), chunk):
        block = pts[lo:lo + chunk]
        vals = np.asarray(objective_many(block), dtype=float)
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_w, best_f = block[i].copy(), float(vals[i])
    return best_w, best_f


def glm_baseline(data, flavor) -> Tuple[np.ndarray, float]:
    """Non-private optimum of a margin loss over the unit ball."""
    x, y = data.features, data.labels
    n = len(y)
    # column i is y_i x_i; contiguous, so both products per iteration
    # stream through it once
    yx_t = np.ascontiguousarray((y[:, None] * x).T)

    def objective(w):
        return float(np.mean(flavor.scalar_loss(w @ yx_t)))

    def subgrad(w):
        sg = np.asarray(flavor.scalar_subgrad(w @ yx_t), dtype=float)
        return (yx_t @ sg) / n

    constraint = BallConstraint.origin(x.shape[1], 1.0)
    return projected_subgradient(objective, subgrad, constraint)
