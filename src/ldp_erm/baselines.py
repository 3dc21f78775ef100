"""Non-private reference solvers.

These provide the "truth" side of every excess-risk measurement: a
projected subgradient method with iterate averaging and a certified early
stop for convex objectives over the unit ball, and a convenience wrapper
for margin losses on labelled data. Nothing here is privatized.
"""

import math
from typing import Callable, Tuple

import numpy as np

from .geometry import project_unit_ball

ITERS = 10_000  # steps of the reference solver
EVAL_EVERY = 200  # steps between scorings of the averaged and raw iterates
GAP_TOL = 1e-12  # stop once the best value is certified this close to optimal


def ball_vertex(g: np.ndarray) -> np.ndarray:
    """-g / ||g||, the unit-ball point minimising <g, v>; the origin when
    g = 0."""
    nrm = math.sqrt(g @ g)
    return np.zeros_like(g) if nrm == 0.0 else 0.0 - g * (1.0 / nrm)


def certified_lower_bound(value: float, g: np.ndarray, c: np.ndarray) -> float:
    """f(c) + min over the unit ball of <g, v - c>, for g a subgradient at c.

    By convexity f(v) >= f(c) + <g, v - c> for every v in the ball, so
    this is a lower bound on the constrained minimum (the Frank-Wolfe
    duality gap certificate, Jaggi, ICML 2013). The minimising v is
    ``ball_vertex(g)``.
    """
    return value + float(g @ (ball_vertex(g) - c))


def projected_subgradient(objective: Callable, subgrad: Callable,
                          dim: int) -> Tuple[np.ndarray, float]:
    """Classic 1/sqrt(t) projected subgradient over the unit ball in ``dim``
    dimensions, from the origin, with iterate averaging.

    Scores the origin first (a checkpoint at t = 0), then every
    ``EVAL_EVERY`` steps the running average and the raw iterate, keeping
    whichever scored point is best. At each checkpoint it also takes a
    subgradient at every scored point and raises a running
    ``certified_lower_bound``. When a checkpoint raises the bound, it also
    scores the bound's minimiser, the vertex ``ball_vertex(g)``, and keeps
    it only if it beats the best point and is itself within ``GAP_TOL`` of
    the bound.

    Once the best value is within ``GAP_TOL`` of the bound it returns,
    certified within ``GAP_TOL`` of the constrained optimum of a convex
    objective. The origin's vertex ends the run at t = 0, after one
    subgradient, when the objective there equals the origin's linear
    minorant: the hinge does so on ``separable_two_class`` data at margin
    <= 1/2, where no margin at the vertex passes the kink.

    A vertex is kept only when it ends the run, so a run that never
    certifies takes all ``ITERS`` steps along the trajectory it would take
    without vertices. For 1-Lipschitz convex objectives its value is within
    about 1/sqrt(ITERS) of the constrained optimum, i.e. ~1e-2, and in
    practice much closer once averaging kicks in.
    """
    w = np.zeros(dim)
    avg = w.copy()
    best_w, best_f = w.copy(), math.inf
    lower = -math.inf
    for t in range(ITERS + 1):
        if t:
            g = np.asarray(subgrad(w), dtype=float)
            w = project_unit_ball(w - (1.0 / math.sqrt(t)) * g)
            avg += (w - avg) / (t + 1)
            if t % EVAL_EVERY and t != ITERS:
                continue
        vertex = None
        for cand in ((avg, w) if t else (w,)):
            f = float(objective(cand))
            if f < best_f:
                best_w, best_f = cand.copy(), f
            g_cand = np.asarray(subgrad(cand), dtype=float)
            bound = certified_lower_bound(f, g_cand, cand)
            if bound > lower:
                lower, vertex = bound, g_cand
        if vertex is not None:
            v = ball_vertex(vertex)
            f = float(objective(v))
            if f < best_f and f - lower <= GAP_TOL:
                best_w, best_f = v, f
        if best_f - lower <= GAP_TOL:
            break
    return best_w, best_f


def glm_baseline(data, flavor) -> Tuple[np.ndarray, float]:
    """Non-private optimum of a margin loss over the unit ball.

    The returned value is certified within ``GAP_TOL`` of the constrained
    optimum whenever the solver stops early; otherwise it is the best of
    ``ITERS`` subgradient steps. On separable data at margin <= 1/2 the
    hinge's optimum is the Frank-Wolfe vertex of the origin's subgradient,
    so the solver certifies it at its t = 0 checkpoint.
    """
    x, y = data.features, data.labels
    n = len(y)
    # column i is y_i x_i; contiguous, so both products per iteration
    # stream through it once
    yx_t = np.ascontiguousarray((y[:, None] * x).T)

    def objective(w):
        return float(np.mean(flavor.scalar_loss(w @ yx_t)))

    def subgrad(w):
        sg = np.asarray(flavor.sampler.f_prime(w @ yx_t), dtype=float)
        return (yx_t @ sg) / n

    return projected_subgradient(objective, subgrad, x.shape[1])
