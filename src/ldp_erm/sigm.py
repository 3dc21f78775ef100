"""Averaged dual-averaging steps with a prox step, over the unit ball.

The solver consumes one noisy gradient per iteration and nothing else (no
function values), which is exactly the interface the private gradient
oracles provide. Each step takes a dual-averaging point from the sum of
all gradients so far, queries the oracle there, takes one prox step from
it and folds the prox point into a running average, which is the answer.
This is the stochastic intermediate gradient method (Dvurechensky &
Gasnikov, JOTA 2016) with exponent p = 1, the end of its family that
accumulates the least oracle bias. Noise enters only through the scale
``sigma`` used by the schedule; the iterates themselves are deterministic
given the gradient stream.

Only the dual-averaging points depend on earlier gradients, so the run
has two phases per block of ``_CHUNK`` steps: the query steps, which
project, call the oracle and add its gradient to the sum, and then one
pass that takes every prox point of the block in a single batched
projection and folds them into the average. Each value is computed by the
same floating-point operations, in the same order, as a step-at-a-time
loop would.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .geometry import project_unit_ball

GradientOracle = Callable[[np.ndarray], np.ndarray]

# steps per block of queries, prox points and averages; a block holds 2 + 2 dim
# Python floats per step, and larger blocks raise peak RSS without a speed-up
_CHUNK = 256


@dataclass(frozen=True)
class SigmSchedule:
    """Step-size schedule of the solver over the unit ball (radius R = 1).

    sigma       upper bound on the gradient-noise standard deviation
    smoothness  gradient Lipschitz constant of the objective, > 0

    Step k scales its dual-averaging and prox steps by
    beta_k = smoothness + 2^(3/4) sigma (k + 2)^(1/2).
    """

    sigma: float
    smoothness: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ParameterError(
                f"sigma must be a finite number >= 0, got {self.sigma}")
        if not (math.isfinite(self.smoothness) and self.smoothness > 0):
            raise ParameterError(
                f"smoothness must be a finite number > 0, got "
                f"{self.smoothness}")

    def beta(self, ks: np.ndarray) -> np.ndarray:
        """The array of beta_k for an array of step indices ``ks``."""
        growth = (ks + 2.0) ** 0.5
        return self.smoothness + 2.0 ** 0.75 * self.sigma * growth


def sigm_run(oracle: GradientOracle, dim: int, schedule: SigmSchedule,
             steps: int) -> np.ndarray:
    """Run the solver for ``steps`` gradient queries in ``dim`` dimensions.

    ``oracle(w)`` returns a gradient estimate at w; an oracle that draws
    noise holds its own generator. The first query is at the origin. Step
    k = 1, 2, ... then
    projects -G / beta_k onto the ball (G the sum of all gradients so far),
    queries the oracle at that point z, projects z - g / beta_k, and moves
    the average y a share 1 / A_k of the way to it, with A_k = k + 2: y is
    the mean of the prox points and the origin, the origin counted twice.
    Every iterate stays feasible. Returns the final average.

    The steps run in blocks of ``_CHUNK``. The query loop of a block only
    computes z = project(G / -beta_k), g = oracle(z) and G += g, keeping z
    and g; a second pass then projects the block's z - g / beta_k rows in
    one batched call (bit-identical to one row at a time) and updates y
    one coordinate at a time over Python floats.
    """
    if steps < 1:
        raise ParameterError(f"need at least one step, got {steps}")
    ks = np.arange(1, steps)
    beta = schedule.beta(ks)
    a_k = ks + 2.0
    step, keep, take = 1.0 / beta, (a_k - 1.0) / a_k, 1.0 / a_k

    y = np.zeros(dim)
    grad_sum = np.array(oracle(y), dtype=float)
    y = y.tolist()
    for lo in range(0, steps - 1, _CHUNK):
        block = slice(lo, lo + _CHUNK)
        neg_beta = (-beta[block]).tolist()
        zs = np.empty((len(neg_beta), len(y)))
        grads = np.empty_like(zs)
        for i, neg_beta_k in enumerate(neg_beta):
            z = zs[i] = project_unit_ball(grad_sum / neg_beta_k)
            grad = grads[i] = oracle(z)
            grad_sum += grad
        x_hat = project_unit_ball(zs - step[block, None] * grads)
        y = _averages(y, keep[block].tolist(), take[block, None] * x_hat)
    return np.array(y)


def _averages(y: list, keep: list, pulls: np.ndarray) -> list:
    """Per coordinate j, y_j after y_j = keep_k * y_j + pulls[k, j] for each k.

    ``pulls`` holds the products take_k * x_hat_k. Python floats run the
    same IEEE operations as the arrays would, without numpy's per-call cost
    on a handful of coordinates.
    """
    out = []
    for y_j, column in zip(y, pulls.T.tolist()):
        for keep_k, pull_k in zip(keep, column):
            y_j = keep_k * y_j + pull_k
        out.append(y_j)
    return out
