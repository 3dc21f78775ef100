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
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError
from .geometry import BallConstraint

GradientOracle = Callable[[np.ndarray, np.random.Generator], np.ndarray]

_CHUNK = 1024  # rows per conversion in _scalar_rows


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
    """
    if iters < 1:
        raise ParameterError(f"need at least one iteration, got {iters}")
    ks = np.arange(1, iters)
    beta = schedule.beta(ks)
    a_k = ks + 2.0
    steps = _scalar_rows(beta, 1.0 / beta, (a_k - 1.0) / a_k, 1.0 / a_k)

    y = constraint.center()
    grad_sum = np.array(oracle(y, rng), dtype=float)
    for beta_k, step_k, keep_k, take_k in steps:
        z = constraint.project(-grad_sum / beta_k)
        grad = np.asarray(oracle(z, rng), dtype=float)
        x_hat = constraint.project(z - step_k * grad)
        y = keep_k * y + take_k * x_hat
        grad_sum += grad
        if trace is not None:
            trace.append(y.copy())
    return y


def _scalar_rows(*columns: np.ndarray):
    """Yield tuples of Python floats, one per index, from equal-length arrays.

    Python floats keep the loop's scalar arithmetic cheap; converting
    ``_CHUNK`` rows at a time keeps at most that many of them alive, where a
    whole run's worth would hold several megabytes of small objects.
    """
    for lo in range(0, len(columns[0]), _CHUNK):
        yield from zip(*(c[lo:lo + _CHUNK].tolist() for c in columns))
