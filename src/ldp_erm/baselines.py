"""Non-private reference solvers.

These provide the "truth" side of every excess-risk measurement: a
projected subgradient method with iterate averaging and a certified early
stop for convex objectives over a ball or box, and a convenience wrapper
for margin losses on labelled data. Nothing here is privatized.
"""

import math
from typing import Callable, Tuple

import numpy as np

from .geometry import BallConstraint

ITERS = 10_000  # steps of the reference solver
EVAL_EVERY = 200  # steps between scorings of the averaged and raw iterates
GAP_TOL = 1e-12  # stop once the best value is certified this close to optimal


def certified_lower_bound(value: float, g: np.ndarray, c: np.ndarray,
                          constraint) -> float:
    """f(c) + min over the feasible set of <g, v - c>, for g a subgradient at c.

    By convexity f(v) >= f(c) + <g, v - c> for every feasible v, so this
    is a lower bound on the constrained minimum (the Frank-Wolfe duality
    gap certificate, Jaggi, ICML 2013).
    """
    return value + float(g @ (constraint.linear_minimizer(g) - c))


def projected_subgradient(objective: Callable, subgrad: Callable,
                          constraint) -> Tuple[np.ndarray, float]:
    """Classic R/sqrt(t) projected subgradient with iterate averaging.

    Tracks the running average of the iterates and keeps whichever
    evaluated point (average or raw iterate) scored best. At each scoring
    it also takes a subgradient at both points and raises a running
    ``certified_lower_bound``; once the best value is within ``GAP_TOL`` of
    that bound it returns, certified within ``GAP_TOL`` of the constrained
    optimum of a convex objective. Otherwise it takes all ``ITERS`` steps,
    and for 1-Lipschitz convex objectives the returned value is within
    about R/sqrt(ITERS) of the constrained optimum, i.e. ~1e-2 R, and in
    practice much closer once averaging kicks in.
    """
    radius = constraint.radius
    w = np.asarray(constraint.center(), dtype=float)
    avg = w.copy()
    best_w, best_f = w.copy(), float(objective(w))
    lower = -math.inf
    for t in range(1, ITERS + 1):
        g = np.asarray(subgrad(w), dtype=float)
        w = constraint.project(w - (radius / math.sqrt(t)) * g)
        avg += (w - avg) / (t + 1)
        if t % EVAL_EVERY == 0 or t == ITERS:
            for cand in (avg, w):
                f = float(objective(cand))
                if f < best_f:
                    best_w, best_f = cand.copy(), f
                g_cand = np.asarray(subgrad(cand), dtype=float)
                lower = max(lower, certified_lower_bound(f, g_cand, cand,
                                                         constraint))
            if best_f - lower <= GAP_TOL:
                break
    return best_w, best_f


def glm_baseline(data, flavor) -> Tuple[np.ndarray, float]:
    """Non-private optimum of a margin loss over the unit ball.

    The returned value is certified within ``GAP_TOL`` of the constrained
    optimum whenever the solver stops early; otherwise it is the best of
    ``ITERS`` subgradient steps.
    """
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
