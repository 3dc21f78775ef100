"""Accelerated stochastic approximation over a Euclidean ball.

The solver consumes one noisy gradient per iteration and nothing else (no
function values), which is exactly the interface the private gradient
oracles provide. It is a dual-averaging style accelerated scheme with the
step schedule indexed by an exponent ``p``: p = 1 covers non-smooth
objectives, p = 2 smooth ones. Noise enters only through the scale
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
    """Step-size schedule of the accelerated solver.

    sigma       upper bound on the gradient-noise standard deviation
    radius      radius bound R on the optimum (and prox scale)
    smoothness  gradient Lipschitz constant of the objective (0 if unknown)
    p_exponent  schedule exponent; 1 for non-smooth, 2 for smooth objectives

    The derived sequences are alpha_i = (1/a)((i+p)/p)^(p-1),
    beta_i = smoothness + (b sigma / R)(i+p+1)^((2p-1)/2), B_i = a alpha_i^2,
    A_k = sum_{i<=k} alpha_i (from i = 0), eta_i = alpha_{i+1}/B_{i+1},
    with a = 2^((p-1)/2) and b = 2^((5-2p)/4) p^((1-2p)/2). At p = 1 they
    collapse to alpha_i = B_i = eta_i = 1 and A_k = k + 1.
    """

    sigma: float
    radius: float
    smoothness: float = 0.0
    p_exponent: int = 1

    def __post_init__(self):
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if not self.radius > 0:
            raise ParameterError(f"radius must be positive, got {self.radius}")
        if self.smoothness < 0:
            raise ParameterError(
                f"smoothness must be >= 0, got {self.smoothness}")
        if self.p_exponent < 1:
            raise ParameterError(
                f"exponent p must be >= 1, got {self.p_exponent}")
        if self.sigma == 0 and self.smoothness == 0:
            raise ParameterError(
                "schedule needs sigma > 0 or smoothness > 0 to set step sizes")

    @property
    def a_const(self) -> float:
        return 2.0 ** ((self.p_exponent - 1) / 2.0)

    @property
    def b_const(self) -> float:
        p = self.p_exponent
        return 2.0 ** ((5.0 - 2.0 * p) / 4.0) * p ** ((1.0 - 2.0 * p) / 2.0)

    # The sequences take a scalar index or an integer array of them. A
    # scalar runs as a one-element array, so it goes through the same numpy
    # loops and the solver's precomputed arrays equal the scalar values.

    def alpha(self, i):
        p = self.p_exponent
        k = np.atleast_1d(i)
        return _like(i, ((k + p) / p) ** (p - 1) / self.a_const)

    def beta(self, i):
        p = self.p_exponent
        growth = (np.atleast_1d(i) + p + 1.0) ** ((2.0 * p - 1.0) / 2.0)
        return _like(i, self.smoothness
                     + self.b_const * self.sigma / self.radius * growth)

    def big_b(self, i):
        return _like(i, self.a_const * self.alpha(np.atleast_1d(i)) ** 2)

    def eta(self, i):
        return self.alpha(np.add(i, 1)) / self.big_b(np.add(i, 1))


def _like(index, values: np.ndarray):
    """A float for a scalar index, the array for an array of them."""
    return float(values[0]) if np.ndim(index) == 0 else values


def sigm_run(oracle: GradientOracle, constraint: BallConstraint,
             schedule: SigmSchedule, iters: int, rng: np.random.Generator,
             trace: Optional[list] = None) -> np.ndarray:
    """Run the accelerated scheme for ``iters`` gradient queries.

    Each iteration evaluates the oracle once at the current extrapolation
    point and updates three coupled sequences; the dual-averaging point z
    and the prox point both reduce to closed-form ball projections, so every
    iterate stays feasible. Returns the final averaged iterate. If ``trace``
    is a list, the averaged iterate after each step is appended to it.
    """
    if iters < 1:
        raise ParameterError(f"need at least one iteration, got {iters}")
    ks = np.arange(1, iters)
    beta = schedule.beta(ks)
    alpha_next = schedule.alpha(ks + 1)
    b_next = schedule.big_b(ks + 1)
    eta = alpha_next / b_next
    # the running sum A_k, accumulated left to right as a scalar loop would
    a_running = np.cumsum(np.concatenate(
        ([schedule.alpha(0) + schedule.alpha(1)], alpha_next)))[1:]
    steps = _scalar_rows(beta, eta, 1.0 - eta, alpha_next / beta,
                         (a_running - b_next) / a_running, b_next / a_running,
                         alpha_next)

    y = constraint.center()
    x = y.copy()
    grad_sum = schedule.alpha(1) * np.asarray(oracle(x, rng), dtype=float)
    for beta_k, eta_k, rest_k, step_k, keep_k, take_k, alpha_k in steps:
        z = constraint.project(-grad_sum / beta_k)
        x = eta_k * z + rest_k * y
        grad = np.asarray(oracle(x, rng), dtype=float)
        x_hat = constraint.project(z - step_k * grad)
        w = eta_k * x_hat + rest_k * y
        y = keep_k * y + take_k * w
        grad_sum += alpha_k * grad
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
