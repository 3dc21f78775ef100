"""Averaged dual-averaging steps with a prox step, over a Euclidean ball.

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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError
from .geometry import BallConstraint

GradientOracle = Callable[[np.ndarray, np.random.Generator], np.ndarray]

# steps per block of queries, prox points and averages; a block holds 2 + 2 dim
# Python floats per step, and larger blocks raise peak RSS without a speed-up
_CHUNK = 256


@dataclass(frozen=True)
class SigmSchedule:
    """Step-size schedule of the solver.

    sigma       upper bound on the gradient-noise standard deviation
    radius      radius bound R on the optimum (and prox scale)
    smoothness  gradient Lipschitz constant of the objective (0 if unknown)

    Step k scales its dual-averaging and prox steps by
    beta_k = smoothness + 2^(3/4) (sigma / R) (k + 2)^(1/2).
    """

    sigma: float
    radius: float
    smoothness: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if not self.radius > 0:
            raise ParameterError(f"radius must be positive, got {self.radius}")
        if self.smoothness < 0:
            raise ParameterError(
                f"smoothness must be >= 0, got {self.smoothness}")
        if self.sigma == 0 and self.smoothness == 0:
            raise ParameterError(
                "schedule needs sigma > 0 or smoothness > 0 to set step sizes")

    def beta(self, i):
        """beta_i for a scalar index, or the array of them for an index array.

        A scalar runs as a one-element array, so it goes through the same
        numpy loops and the solver's precomputed array equals the scalar
        values.
        """
        growth = (np.atleast_1d(i) + 2.0) ** 0.5
        return _like(i, self.smoothness
                     + 2.0 ** 0.75 * self.sigma / self.radius * growth)


def _like(index, values: np.ndarray):
    """A float for a scalar index, the array for an array of them."""
    return float(values[0]) if np.ndim(index) == 0 else values


def sigm_run(oracle: GradientOracle, constraint: BallConstraint,
             schedule: SigmSchedule, iters: int, rng: np.random.Generator,
             trace: Optional[list] = None) -> np.ndarray:
    """Run the solver for ``iters`` gradient queries.

    The first query is at the centre of the ball. Step k = 1, 2, ... then
    projects -G / beta_k onto the ball (G the sum of all gradients so far),
    queries the oracle at that point z, projects z - g / beta_k, and moves
    the average y a share 1 / A_k of the way to it, with A_k = k + 2: y is
    the mean of the prox points and the centre, the centre counted twice.
    Every iterate stays feasible. Returns the final average. If ``trace``
    is a list, the average after each step is appended to it.

    The steps run in blocks of ``_CHUNK``. The query loop of a block only
    computes z = project(G / -beta_k), g = oracle(z) and G += g, keeping z
    and g; a second pass then projects the block's z - g / beta_k rows in
    one batched call (bit-identical to one row at a time) and updates y
    one coordinate at a time over Python floats.
    """
    if iters < 1:
        raise ParameterError(f"need at least one iteration, got {iters}")
    ks = np.arange(1, iters)
    beta = schedule.beta(ks)
    a_k = ks + 2.0
    step, keep, take = 1.0 / beta, (a_k - 1.0) / a_k, 1.0 / a_k

    y = constraint.center()
    grad_sum = np.array(oracle(y, rng), dtype=float)
    y = y.tolist()
    for lo in range(0, iters - 1, _CHUNK):
        block = slice(lo, lo + _CHUNK)
        neg_beta = (-beta[block]).tolist()
        zs = np.empty((len(neg_beta), len(y)))
        grads = np.empty_like(zs)
        for i, neg_beta_k in enumerate(neg_beta):
            z = zs[i] = constraint.project(grad_sum / neg_beta_k)
            grad = grads[i] = oracle(z, rng)
            grad_sum += grad
        x_hat = constraint.project(zs - step[block, None] * grads)
        path = _averages(y, keep[block].tolist(), take[block, None] * x_hat)
        y = [column[-1] for column in path]
        if trace is not None:
            trace.extend(np.array(path).T.copy())
    return np.array(y)


def _averages(y: list, keep: list, pulls: np.ndarray) -> list:
    """Per coordinate j, the averages y_j = keep_k * y_j + pulls[k, j] in turn.

    ``pulls`` holds the products take_k * x_hat_k. Python floats run the
    same IEEE operations as the arrays would, without numpy's per-call cost
    on a handful of coordinates.
    """
    path = []
    for y_j, column in zip(y, pulls.T.tolist()):
        averages = []
        for keep_k, pull_k in zip(keep, column):
            y_j = keep_k * y_j + pull_k
            averages.append(y_j)
        path.append(averages)
    return path
