"""Non-interactive private ERM over the unit cube via released loss grids.

Two protocols share the same shape: every player contributes privatized
evaluations of the loss on a uniform grid of parameter points, the server
averages them into grid estimates, fits the iterated Bernstein surrogate,
and minimizes it over [0, 1]^p.

* ``alg2_run``: each player sends one Laplace-noised real per grid point,
  with the budget split evenly across the grid (basic composition).
* ``alg3_run``: players are partitioned across grid points by a seeded
  shuffle and each sends a single bit against shared public randomness.

Both take coordinate-separable losses: a ``GridLoss`` is the per-coordinate
term, and a record's loss at theta is the mean over coordinates of
``term(x_j, theta_j)`` (``row_loss``). That is what lets ``alg2_run`` form
the server's per-point sums from (k+1)·p column sums.
"""

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .datasets import CubeDataset
from .errors import (ClippingWarning, ConfigurationError, EstimationError,
                     ParameterError, SampleSizeWarning)
# iterated_basis_weights stays bound here: perfbench/spans.py traces the
# name in this module as well as in polyapprox
from .polyapprox import (BernsteinOperatorSpec, bernstein_basis_pair,
                         contract_grid, fold_iterated, iterated_basis_weights,
                         iterated_bernstein_eval)
from .primitives import (CAP, ENCODE_BLOCK, PrivacyBudget, PublicRandomness,
                         check_onebit_epsilon, check_values, ldp_avg_1d,
                         onebit_decode, onebit_encode_many)
from .rng import TAG_BITS, TAG_PARTITION, derived_rng

# term(x, theta) -> the loss term of coordinate values x at parameter
# values theta, elementwise over the broadcast arrays, in [0, 1]
GridLoss = Callable[[np.ndarray, np.ndarray], np.ndarray]

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
    """The grid's (k+1)^p point count; rejects a count above ``CAP``, which
    is also the grid protocols' only dimension limit: above p = 17 even
    k = 1 is over it."""
    size = (k + 1) ** p
    if size > CAP:
        # the largest side r with r^p <= CAP, walked down in integers from
        # the rounded float root, which is at least r
        side = round(CAP ** (1.0 / p))
        while side ** p > CAP:
            side -= 1
        fits = (f"at p = {p} the largest supported k is {side - 1} — lower k "
                f"(cost per player grows with the grid while accuracy needs "
                f"n to grow like the grid squared)" if side > 1 else
                f"no k fits at p = {p}; the grid protocols run at "
                f"p <= {CAP.bit_length() - 1}")
        raise ConfigurationError(
            f"grid needs (k+1)^p = {size} points, above the cap {CAP}; {fits}")
    return size


def check_cells_filled(n: int, k: int, p: int) -> int:
    """The grid's point count; ``EstimationError`` if n players cannot give
    every point a cell, as the one-bit run needs n >= (k+1)^p."""
    size = check_grid_size(k, p)
    if n < size:
        raise EstimationError(
            f"{n} players cannot fill {size} grid points; the one-bit run "
            f"needs n >= (k+1)^p")
    return size


@dataclass(frozen=True)
class BernsteinModel:
    """Iterated Bernstein surrogate fitted to released grid values.

    ``B^(h)`` of the grid is the plain degree-k Bernstein form of
    ``coeffs``: the grid contracted once, on each axis, with the iterated
    operator's matrix (``fold_iterated``). Every evaluation then runs the
    h = 1 basis recurrence on ``coeffs``; at h = 1 they are the grid.
    """

    spec: BernsteinOperatorSpec
    grid_values: np.ndarray
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_grid_size(self.spec.k, self.spec.p)
        expect = (self.spec.k + 1,) * self.spec.p
        if self.grid_values.shape != expect:
            raise ParameterError(
                f"grid shape {self.grid_values.shape}, expected {expect}")
        object.__setattr__(self, "coeffs", fold_iterated(
            self.grid_values, self.spec.k, self.spec.h))

    def values(self, ys) -> np.ndarray:
        """Surrogate values at the rows of an (m, p) array, shape (m,)."""
        return iterated_bernstein_eval(self.coeffs, replace(self.spec, h=1),
                                       np.asarray(ys, dtype=float))

    def values_and_grads(self, ys) -> tuple:
        """Surrogate values (m,) and gradients (m, p) at the rows of an
        (m, p) array, each row bit for bit that of ``values`` and ``grads``.

        One run of the plain basis recurrence gives every basis value and
        derivative, and one contraction of ``coeffs`` gives every number:
        row block 0 holds the value, and row block a + 1 differentiates
        along axis a. A point outside [0, 1]^p is rejected, as ``values``
        rejects it.
        """
        ys = np.asarray(ys, dtype=float)
        k, p = self.spec.k, self.spec.p
        if ys.ndim != 2 or ys.shape[1] != p:
            raise ParameterError(
                f"points have shape {ys.shape}, expected (m, {p})")
        check_values(ys, 1.0)
        m = len(ys)
        ws, dws = bernstein_basis_pair(k, ys)
        rows = np.tile(ws, (p + 1, 1, 1))
        for a in range(p):
            rows[(a + 1) * m:(a + 2) * m, a] = dws[:, a]
        out = contract_grid(self.coeffs, rows).reshape(p + 1, m)
        return out[0], out[1:].T

    def grads(self, ys) -> np.ndarray:
        """Surrogate gradients at the rows of an (m, p) array, (m, p)."""
        return self.values_and_grads(ys)[1]

    def value(self, y) -> float:
        return float(self.values(_one_row(y))[0])

    def grad(self, y) -> np.ndarray:
        return self.grads(_one_row(y))[0]


def _one_row(y) -> np.ndarray:
    return np.atleast_1d(np.asarray(y, dtype=float))[None, :]


# Direction integers m_1..m_5 of the first 17 Sobol dimensions (Joe & Kuo
# 2008, new-joe-kuo-6.21201); the first 2^5 = STARTS points use no others.
# 17 because 2^17 <= CAP < 2^18: no grid, so no model, has a larger p
_SOBOL_M = (
    (1, 1, 1, 1, 1), (1, 3, 5, 15, 17), (1, 3, 3, 9, 29), (1, 3, 1, 5, 31),
    (1, 1, 1, 11, 31), (1, 1, 3, 3, 25), (1, 3, 5, 13, 11), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11),
    (1, 3, 5, 5, 31), (1, 3, 3, 9, 7), (1, 1, 1, 15, 21), (1, 3, 1, 13, 27),
    (1, 1, 1, 15, 7),
)


@lru_cache(maxsize=None)
def _sobol_starts(p: int) -> np.ndarray:
    """The first ``STARTS`` points of the unscrambled Sobol sequence in p-d.

    Point i XORs the direction numbers m_j / 2^j of the bits set in the
    Gray code of i, so every coordinate is a multiple of 1/32.
    """
    bits = STARTS.bit_length() - 1
    # direction numbers as numerators over 2^bits, one row per bit
    v = np.array(_SOBOL_M[:p]).T << np.arange(bits - 1, -1, -1)[:, None]
    i = np.arange(STARTS)
    gray = i ^ (i >> 1)
    used = (gray[:, None] >> np.arange(bits)) & 1
    raw = np.bitwise_xor.reduce(used[:, :, None] * v, axis=1) / STARTS
    raw.setflags(write=False)
    return raw


def minimize_model(model: BernsteinModel) -> np.ndarray:
    """Minimize the surrogate over the unit cube [0,1]^p.

    Projected gradient descent with backtracking from a low-discrepancy set
    of starts plus the centre, followed by coordinate line-search sweeps
    around the best point. The surrogate is generally non-convex, so this
    is a best-effort global search; it always returns a point of the cube.

    All starts descend in lockstep, each with its own step: per iteration
    one batched ``values_and_grads`` over the starts still running. Each
    start keeps the value and gradient at its point: one that accepts its
    step takes the new point's pair, and one that rejects it keeps the
    gradient it already has. A step is accepted on a strict decrease (then
    grown by 1.25, at most 1.0) and halved otherwise; a start stops once
    its step falls below 1e-7 or after ``GD_ITERS`` iterations.
    """
    p = model.spec.p
    xs = np.vstack([_sobol_starts(p), np.full(p, 0.5)])
    fs, gs = model.values_and_grads(xs)
    step = np.full(len(xs), 0.25)
    running = np.arange(len(xs))
    for _ in range(GD_ITERS):
        if not running.size:
            break
        x_new = np.clip(xs[running] - step[running, None] * gs[running],
                        0.0, 1.0)
        f_new, g_new = model.values_and_grads(x_new)
        better = f_new < fs[running] - 1e-15
        won, lost = running[better], running[~better]
        xs[won], fs[won], gs[won] = x_new[better], f_new[better], g_new[better]
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
            cands = np.clip(cands, 0.0, 1.0)
            f_cands = model.values(cands)
            i = int(np.argmin(f_cands))
            if f_cands[i] < best_f:
                best_x, best_f = cands[i], f_cands[i]
    return best_x


def row_loss(term: GridLoss, theta: np.ndarray,
             rows: np.ndarray) -> np.ndarray:
    """Per row of ``rows``, the loss at ``theta``: the mean over coordinates
    of ``term(row_j, theta_j)``, added one coordinate at a time in order."""
    p = rows.shape[1]
    # a copy, so that the sum never writes into what the term returned
    acc = np.array(term(rows[:, 0], theta[0]), dtype=float)
    for j in range(1, p):
        acc += term(rows[:, j], theta[j])
    acc /= p
    return acc


def _clipped(vals, size: int) -> tuple:
    """``size`` loss values clipped into [0, 1], and how many lay outside it
    by more than 1e-9; a NaN is rejected."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (size,):
        raise ParameterError(
            f"loss returned shape {vals.shape}, expected ({size},)")
    # NaN fails both comparisons, so it takes the mask path
    if 0.0 <= vals.min() and vals.max() <= 1.0:
        return vals, 0
    if np.isnan(vals).any():
        raise ParameterError("values must lie in [0, 1]; the loss gave NaN")
    outside = int(np.count_nonzero((vals < -1e-9) | (vals > 1.0 + 1e-9)))
    return np.clip(vals, 0.0, 1.0), outside


def _term_sum(loss: GridLoss, col: np.ndarray, theta: float) -> tuple:
    """The sum of ``loss(col, theta)`` over the column, each term clipped
    into [0, 1], and how many were clipped. The terms are freed on return,
    so a caller's loop holds one column of them at a time."""
    vals, outside = _clipped(loss(col, theta), len(col))
    return vals.sum(), outside


def _warn_clipped(clipped: int, n_evals: int, what: str):
    if clipped:
        warnings.warn(
            f"{clipped} of {n_evals} {what} fell outside [0, 1] and were "
            f"clipped; the privacy guarantee still holds but the loss "
            f"violates its range contract",
            ClippingWarning, stacklevel=3)


def alg2_run(data: CubeDataset, loss: GridLoss, spec: BernsteinOperatorSpec,
             budget: PrivacyBudget, rng: np.random.Generator) -> GridRelease:
    """Laplace-per-grid-point protocol over [0, 1]^p.

    Every player reports each grid evaluation of ``spec``'s grid through
    the private mean with per-point budget eps / (k+1)^p, so the
    per-player total is exactly ``budget`` by basic composition.

    The server uses only each grid point's sum of the n reports, and the
    loss is separable, so that sum is (1/p)·Σ_j S_j[a_j] with S_j[a] the
    column sum of ``loss(x_j, a/k)``: (k+1)·p column passes give every
    point's total. Each term is checked and clipped into [0, 1], so
    ``clipped`` counts term evaluations, and a NaN is rejected before any
    noise is drawn. One ``ldp_avg_1d`` call noises every point's total.
    """
    k, p, n = spec.k, spec.p, data.n
    size = check_grid_size(k, p)
    per_point = budget.split(size)
    axis = np.arange(k + 1) / k  # the grid's values along every axis
    sums = np.empty((p, k + 1))
    clipped = 0
    for j in range(p):
        for a, theta in enumerate(axis):
            sums[j, a], outside = _term_sum(loss, data.rows[:, j], theta)
            clipped += outside
    _warn_clipped(clipped, n * p * (k + 1), "loss term evaluations")
    # the totals in grid_points order, the last axis varying fastest
    totals = sums[0]
    for j in range(1, p):
        totals = np.add.outer(totals, sums[j]).ravel()
    totals /= p
    return _release(spec, ldp_avg_1d(totals, n, 1.0, per_point, rng),
                    clipped)


def _cell_losses(rows: np.ndarray, loss: GridLoss, grid: np.ndarray,
                 perm: np.ndarray, sizes: np.ndarray) -> tuple:
    """Each player's loss (``row_loss``) at their cell's grid point, in
    player order and clipped into [0, 1], and how many were clipped.

    Cell g holds the next ``sizes[g]`` players of ``perm``. The players are
    taken ``ENCODE_BLOCK`` at a time, each looking up its point per
    coordinate, so the temporaries do not grow with n; they are freed on
    return, with the per-player cell index.
    """
    n = len(rows)
    cell_of = np.empty(n, dtype=np.int32)
    cell_of[perm] = np.repeat(np.arange(len(grid), dtype=np.int32), sizes)
    values = np.empty(n)
    clipped = 0
    for lo in range(0, n, ENCODE_BLOCK):
        cells = cell_of[lo:lo + ENCODE_BLOCK]
        theta = [np.take(grid[:, j], cells) for j in range(grid.shape[1])]
        values[lo:lo + len(cells)], outside = _clipped(
            row_loss(loss, theta, rows[lo:lo + ENCODE_BLOCK]), len(cells))
        clipped += outside
    return values, clipped


def alg3_run(data: CubeDataset, loss: GridLoss, spec: BernsteinOperatorSpec,
             budget: PrivacyBudget, seed: int) -> GridRelease:
    """One-bit protocol over [0, 1]^p: partition players across grid points.

    Each player sends one bit at ``budget``'s epsilon for its cell's point
    of ``spec``'s grid. The integer seed names reproducible sub-streams:
    the partition shuffle, the public Laplace draws (regenerable by anyone
    from the seed), and the private bit flips. Each player's loss
    (``row_loss``) is checked and clipped into [0, 1], so ``clipped``
    counts players.

    The losses are evaluated in one pass in player order
    (``_cell_losses``) and encoded in that order. In partition order each cell is one contiguous run
    of players, so each is decoded from a slice of the bits and public
    draws gathered once in that order.
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
    check_cells_filled(n, spec.k, spec.p)
    # np.array_split's cell sizes, which depend on n and gsize only; every
    # cell is non-empty since n >= gsize
    perm = derived_rng(seed, TAG_PARTITION, 0).permutation(n)
    sizes = np.full(gsize, n // gsize)
    sizes[:n % gsize] += 1
    values, clipped = _cell_losses(data.rows, loss, grid, perm, sizes)
    _warn_clipped(clipped, n, "loss evaluations")

    ys = PublicRandomness(seed=seed, scale=1.0 / eps, n=n).materialize()
    bits = onebit_encode_many(values, ys, eps,
                              derived_rng(seed, TAG_BITS))[0]
    # the values and the probabilities go before the cells are gathered,
    # so that the gather's arrays do not add to the encode's peak
    del values
    bounds = np.cumsum(sizes[:-1])
    estimates = np.array([
        onebit_decode(cell_bits, cell_ys) for cell_bits, cell_ys in
        zip(np.split(bits[perm], bounds), np.split(ys[perm], bounds))])
    return _release(spec, estimates, clipped)


def _release(spec: BernsteinOperatorSpec, estimates: np.ndarray,
             clipped: int) -> GridRelease:
    """Fit the surrogate to the grid estimates and minimise it on the cube."""
    model = BernsteinModel(spec, estimates.reshape((spec.k + 1,) * spec.p))
    w_priv = minimize_model(model)
    return GridRelease(model=model, w_priv=w_priv,
                       grid_estimates=estimates, clipped=clipped)
