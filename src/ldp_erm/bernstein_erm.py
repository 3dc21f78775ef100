"""Non-interactive private ERM over the unit cube via released loss grids.

Two protocols share the same shape: every player contributes privatized
evaluations of the loss on a uniform grid of parameter points, the server
averages them into grid estimates, fits the iterated Bernstein surrogate,
and minimizes it over [0, 1]^p.

* ``alg2_run``: each player sends one Laplace-noised real per grid point,
  with the budget split evenly across the grid (basic composition).
* ``alg3_run``: players are partitioned across grid points by a seeded
  shuffle and each sends a single bit against shared public randomness.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .datasets import CubeDataset
from .errors import (ClippingWarning, ConfigurationError, EstimationError,
                     ParameterError, SampleSizeWarning)
from .geometry import BallConstraint, BoxConstraint
from .polyapprox import (BernsteinOperatorSpec, contract_grid,
                         iterated_basis_weights, iterated_bernstein_eval)
from .primitives import (PrivacyBudget, PublicRandomness, Transcript,
                         check_onebit_epsilon, ldp_avg_1d, onebit_decode,
                         onebit_encode_many)
from .rng import TAG_BITS, TAG_PARTITION, derived_rng

# loss(theta, rows) -> per-row loss values in [0, 1]
GridLoss = Callable[[np.ndarray, np.ndarray], np.ndarray]

Constraint = Union[BoxConstraint, BallConstraint]

GRID_CAP = 200_000  # most grid points a protocol evaluates per player
STARTS = 32  # the surrogate minimiser's low-discrepancy starts
GD_ITERS = 120  # its descent iterations per start


@dataclass(frozen=True)
class GridRelease:
    """Server-side output of a grid protocol run."""

    model: "BernsteinModel"
    w_priv: np.ndarray
    grid_estimates: np.ndarray
    clipped: int


def grid_points(k: int, p: int) -> np.ndarray:
    """The uniform grid {0, 1/k, ..., 1}^p in lexicographic order, (G, p)."""
    size = check_grid_size(k, p)
    axes = [np.arange(k + 1) / k] * p
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(size, p)


def check_grid_size(k: int, p: int) -> int:
    """The grid's (k+1)^p point count; rejects p above ``MAX_DIM`` and a
    count above ``GRID_CAP``."""
    check_grid_dim(p)
    size = (k + 1) ** p
    if size > GRID_CAP:
        max_k = int(round(GRID_CAP ** (1.0 / p))) - 1
        raise ConfigurationError(
            f"grid needs (k+1)^p = {size} points, above the cap {GRID_CAP}; "
            f"at p = {p} the largest supported k is {max_k} — lower k (cost "
            f"per player grows with the grid while accuracy needs n to grow "
            f"like the grid squared)"
        )
    return size


def recommended_k(n: int, p: int, h: int, epsilon: float,
                  beta: float = 0.05) -> int:
    """Heuristic grid order balancing bias and noise.

    Implements the shape k = (sqrt(p n) eps / (2^{(h+1)p} sqrt(log 1/beta)))
    ^{1/(h+p)} with the derivative constant treated as 1; treat the result
    as a starting point, not a guarantee.
    """
    if n < 1 or p < 1 or h < 1:
        raise ParameterError("n, p, h must all be >= 1")
    if not (epsilon > 0 and 0 < beta < 1):
        raise ParameterError("need epsilon > 0 and beta in (0, 1)")
    raw = (math.sqrt(p * n) * epsilon
           / (2.0 ** ((h + 1) * p) * math.sqrt(math.log(1.0 / beta))))
    return max(1, round(raw ** (1.0 / (h + p))))


@dataclass(frozen=True)
class BernsteinModel:
    """Iterated Bernstein surrogate fitted to released grid values."""

    spec: BernsteinOperatorSpec
    grid_values: np.ndarray

    def __post_init__(self):
        expect = (self.spec.k + 1,) * self.spec.p
        if self.grid_values.shape != expect:
            raise ParameterError(
                f"grid shape {self.grid_values.shape}, expected {expect}")

    def values(self, ys) -> np.ndarray:
        """Surrogate values at the rows of an (m, p) array, shape (m,)."""
        return iterated_bernstein_eval(self.grid_values, self.spec,
                                       np.asarray(ys, dtype=float))

    def grads(self, ys) -> np.ndarray:
        """Surrogate gradients at the rows of an (m, p) array, (m, p)."""
        ys = np.asarray(ys, dtype=float)
        k, h, p = self.spec.k, self.spec.h, self.spec.p
        if ys.ndim != 2 or ys.shape[1] != p:
            raise ParameterError(
                f"points have shape {ys.shape}, expected (m, {p})")
        m = len(ys)
        ws = iterated_basis_weights(k, h, ys)
        dws = iterated_basis_weights(k, h, ys, derivative=True)
        # row block a differentiates along axis a: one contraction for all
        rows = np.tile(ws, (p, 1, 1))
        for a in range(p):
            rows[a * m:(a + 1) * m, a] = dws[:, a]
        return contract_grid(self.grid_values, rows).reshape(p, m).T

    def value(self, y) -> float:
        return float(self.values(_one_row(y))[0])

    def grad(self, y) -> np.ndarray:
        return self.grads(_one_row(y))[0]


def _one_row(y) -> np.ndarray:
    return np.atleast_1d(np.asarray(y, dtype=float))[None, :]


# Direction integers m_1..m_5 of the first 40 Sobol dimensions (Joe & Kuo
# 2008, new-joe-kuo-6.21201); the first 2^5 = STARTS points use no others
_SOBOL_M = (
    (1, 1, 1, 1, 1), (1, 3, 5, 15, 17), (1, 3, 3, 9, 29), (1, 3, 1, 5, 31),
    (1, 1, 1, 11, 31), (1, 1, 3, 3, 25), (1, 3, 5, 13, 11), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11),
    (1, 3, 5, 5, 31), (1, 3, 3, 9, 7), (1, 1, 1, 15, 21), (1, 3, 1, 13, 27),
    (1, 1, 1, 15, 7), (1, 3, 1, 15, 13), (1, 1, 5, 5, 19), (1, 3, 7, 11, 23),
    (1, 3, 7, 13, 13), (1, 1, 3, 13, 7), (1, 3, 5, 9, 1), (1, 3, 1, 13, 9),
    (1, 3, 1, 5, 27), (1, 1, 5, 11, 19), (1, 3, 5, 3, 3), (1, 1, 7, 13, 1),
    (1, 3, 7, 5, 13), (1, 1, 3, 9, 25), (1, 3, 5, 13, 23), (1, 3, 7, 3, 13),
    (1, 3, 1, 3, 5), (1, 1, 5, 5, 23), (1, 1, 7, 7, 1), (1, 1, 7, 9, 13),
    (1, 3, 3, 5, 3), (1, 3, 1, 15, 31), (1, 3, 5, 15, 31), (1, 3, 1, 11, 11),
)
MAX_DIM = len(_SOBOL_M)  # the largest p the grid protocols run


def check_grid_dim(p: int):
    """Reject a grid protocol dimension the minimiser has no starts for."""
    if p > MAX_DIM:
        raise ConfigurationError(
            f"grid protocols run at dimension p <= {MAX_DIM}, got p = {p}")


@lru_cache(maxsize=None)
def _sobol_starts(p: int) -> np.ndarray:
    """The first ``STARTS`` points of the unscrambled Sobol sequence in p-d.

    Point i XORs the direction numbers m_j / 2^j of the bits set in the
    Gray code of i, so every coordinate is a multiple of 1/32.
    """
    check_grid_dim(p)
    bits = STARTS.bit_length() - 1
    # direction numbers as numerators over 2^bits, one row per bit
    v = np.array(_SOBOL_M[:p]).T << np.arange(bits - 1, -1, -1)[:, None]
    i = np.arange(STARTS)
    gray = i ^ (i >> 1)
    used = (gray[:, None] >> np.arange(bits)) & 1
    raw = np.bitwise_xor.reduce(used[:, :, None] * v, axis=1) / STARTS
    raw.setflags(write=False)
    return raw


def minimize_model(model: BernsteinModel,
                   constraint: Constraint) -> np.ndarray:
    """Minimize the surrogate over a box or ball inside [0,1]^p.

    Projected gradient descent with backtracking from a low-discrepancy set
    of starts plus the centre, followed by coordinate line-search sweeps
    around the best point. The surrogate is generally non-convex, so this
    is a best-effort global search; it always returns a feasible point.

    All starts descend in lockstep, each with its own step: per iteration
    one batched gradient and one batched value over the starts still
    running. A step is accepted on a strict decrease (then grown by 1.25,
    at most 1.0) and halved otherwise; a start stops once its step falls
    below 1e-7 or after ``GD_ITERS`` iterations.
    """
    p = model.spec.p
    xs = np.vstack([constraint.project(_sobol_starts(p)),
                    constraint.center()])
    fs = model.values(xs)
    step = np.full(len(xs), 0.25)
    running = np.arange(len(xs))
    for _ in range(GD_ITERS):
        if not running.size:
            break
        x = xs[running]
        x_new = constraint.project(
            x - step[running, None] * model.grads(x))
        f_new = model.values(x_new)
        better = f_new < fs[running] - 1e-15
        won, lost = running[better], running[~better]
        xs[won], fs[won] = x_new[better], f_new[better]
        step[won] = np.minimum(step[won] * 1.25, 1.0)
        step[lost] *= 0.5
        running = running[step[running] >= 1e-7]
    best = int(np.argmin(fs))  # the first start among ties
    best_x, best_f = xs[best], fs[best]

    # coordinate refinement around the champion, 41 offsets per batch
    for width in (0.05, 0.005):
        offsets = np.linspace(-width, width, 41)
        for axis in range(p):
            cands = np.repeat(best_x[None, :], len(offsets), axis=0)
            cands[:, axis] += offsets
            cands = constraint.project(cands)
            f_cands = model.values(cands)
            i = int(np.argmin(f_cands))
            if f_cands[i] < best_f:
                best_x, best_f = cands[i], f_cands[i]
    return best_x


def _clipped_losses(loss: GridLoss, theta: np.ndarray,
                    rows: np.ndarray) -> tuple:
    vals = np.asarray(loss(theta, rows), dtype=float)
    if vals.shape != (rows.shape[0],):
        raise ParameterError(
            f"loss returned shape {vals.shape}, expected ({rows.shape[0]},)")
    outside = int(np.count_nonzero((vals < -1e-9) | (vals > 1.0 + 1e-9)))
    return np.clip(vals, 0.0, 1.0), outside


def _warn_clipped(clipped: int, n_evals: int):
    if clipped:
        warnings.warn(
            f"{clipped} of {n_evals} loss evaluations fell outside [0, 1] "
            f"and were clipped; the privacy guarantee still holds but the "
            f"loss violates its range contract",
            ClippingWarning, stacklevel=3)


def alg2_run(data: CubeDataset, loss: GridLoss, spec: BernsteinOperatorSpec,
             budget: PrivacyBudget, rng: np.random.Generator,
             transcript: Optional[Transcript] = None) -> GridRelease:
    """Laplace-per-grid-point protocol over [0, 1]^p.

    Every player reports each grid evaluation of ``spec``'s grid through
    the scalar private mean with per-point budget eps / (k+1)^p, so the
    per-player total is exactly ``budget`` by basic composition.
    """
    grid = grid_points(spec.k, spec.p)
    per_point = budget.split(len(grid))
    estimates = np.empty(len(grid))
    clipped = 0
    for gi in range(len(grid)):
        vals, outside = _clipped_losses(loss, grid[gi], data.rows)
        clipped += outside
        estimates[gi] = ldp_avg_1d(vals, 1.0, per_point, rng)
    if transcript is not None:
        # one message per player holding all grid evaluations
        transcript.add_bulk(data.n, reals_per=float(len(grid)))
    _warn_clipped(clipped, len(grid) * data.n)
    return _release(spec, estimates, clipped)


def alg3_run(data: CubeDataset, loss: GridLoss, spec: BernsteinOperatorSpec,
             budget: PrivacyBudget, seed: int,
             transcript: Optional[Transcript] = None) -> GridRelease:
    """One-bit protocol over [0, 1]^p: partition players across grid points.

    Each player sends one bit at ``budget``'s epsilon for its cell's point
    of ``spec``'s grid. The integer seed names reproducible sub-streams:
    the partition shuffle, the public Laplace draws (regenerable by anyone
    from the seed), and the private bit flips.
    """
    eps = budget.epsilon
    check_onebit_epsilon(eps)
    grid = grid_points(spec.k, spec.p)
    n, gsize = data.n, len(grid)
    if n < spec.p * gsize * math.log(spec.k + 1):
        warnings.warn(
            f"n = {n} is below p(k+1)^p log(k+1) ≈ "
            f"{spec.p * gsize * math.log(spec.k + 1):.0f}; decoded grid "
            f"values may be dominated by partition noise",
            SampleSizeWarning, stacklevel=2)
    if n < gsize:
        raise EstimationError(
            f"{n} players cannot fill {gsize} grid points; the one-bit run "
            f"needs n >= (k+1)^p")
    # every cell is non-empty: array_split sizes depend on n and gsize only
    perm = derived_rng(seed, TAG_PARTITION, 0).permutation(n)
    cells = np.array_split(perm, gsize)

    ys = PublicRandomness(seed=seed, scale=1.0 / eps, n=n).materialize()
    values = np.empty(n)
    clipped = 0
    for gi, cell in enumerate(cells):
        vals, outside = _clipped_losses(loss, grid[gi], data.rows[cell])
        values[cell] = vals
        clipped += outside
    _warn_clipped(clipped, n)

    bits, _ = onebit_encode_many(values, ys, eps, derived_rng(seed, TAG_BITS),
                                 transcript)
    estimates = np.array([onebit_decode(bits[cell], ys[cell])
                          for cell in cells])
    return _release(spec, estimates, clipped)


def _release(spec: BernsteinOperatorSpec, estimates: np.ndarray,
             clipped: int) -> GridRelease:
    """Fit the surrogate to the grid estimates and minimise it on the cube."""
    model = BernsteinModel(spec, estimates.reshape((spec.k + 1,) * spec.p))
    w_priv = minimize_model(model, BoxConstraint(0.0, 1.0, spec.p))
    return GridRelease(model=model, w_priv=w_priv,
                       grid_estimates=estimates, clipped=clipped)
