"""Reference computations the tests check ``ldp_erm`` against: the
exhaustive grid minimiser, the cross-check for the gradient-based solvers,
and the grid protocols' estimates from each player's full loss vector."""

import math
from typing import Callable, Tuple

import numpy as np

from formula_reference import laplace_means
from ldp_erm.bernstein_erm import grid_points
from ldp_erm.errors import ParameterError
from ldp_erm.primitives import (PublicRandomness, onebit_decode,
                                onebit_encode_many)
from ldp_erm.rng import TAG_BITS, TAG_PARTITION, derived_rng


def dense_grid_minimize(objective_many: Callable, dim: int,
                        step: float = 1e-3,
                        chunk: int = 1 << 16) -> Tuple[np.ndarray, float]:
    """Exhaustive scan of the unit ball in ``dim`` <= 2 dimensions;
    ``objective_many`` maps (M, dim) -> (M,).

    Serves as the independent cross-check for the gradient-based
    minimizers; cost grows like step^(-dim), so keep dim at 1 or 2.
    """
    if dim > 2:
        raise ParameterError(f"dense grid scan supports dim <= 2, got {dim}")
    axis = np.linspace(-1.0, 1.0, int(round(2.0 / step)) + 1)
    if dim == 1:
        pts = axis[:, None]
    else:
        mesh = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, dim)
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12]
    best_w, best_f = None, math.inf
    for lo in range(0, len(pts), chunk):
        block = pts[lo:lo + chunk]
        vals = np.asarray(objective_many(block), dtype=float)
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_w, best_f = block[i].copy(), float(vals[i])
    return best_w, best_f


def player_losses(term: Callable, spec, rows: np.ndarray) -> np.ndarray:
    """Every player's loss at every point of ``spec``'s grid, (G, n): per
    player and point, the mean over coordinates of the term, each term
    clipped into [0, 1] first."""
    grid = grid_points(spec.k, spec.p)
    terms = np.clip(term(rows[None, :, :], grid[:, None, :]), 0.0, 1.0)
    return terms.mean(axis=-1)


def per_player_grid_means(losses: np.ndarray, budget,
                          rng: np.random.Generator) -> np.ndarray:
    """The Laplace protocol's grid estimates from the (G, n) player losses:
    each point's n reports summed, plus the summed Laplace noise of n
    reports at the per-point budget, drawn for every point at once, over
    n."""
    return laplace_means(losses.sum(axis=1), losses.shape[1], 1.0,
                         budget.split(len(losses)), rng)


def per_cell_onebit_means(losses: np.ndarray, epsilon: float,
                          seed: int) -> np.ndarray:
    """The one-bit protocol's grid estimates from the (G, n) player losses:
    the seed's partition of the players into one cell per point, each
    player encoding their loss at their cell's point against the seed's
    public draws, and each cell's bits decoded."""
    size, n = losses.shape
    perm = derived_rng(seed, TAG_PARTITION, 0).permutation(n)
    cells = np.array_split(perm, size)
    values = np.empty(n)
    for g, cell in enumerate(cells):
        values[cell] = losses[g, cell]
    ys = PublicRandomness(seed=seed, scale=1.0 / epsilon, n=n).materialize()
    bits, _ = onebit_encode_many(values, ys, epsilon,
                                 derived_rng(seed, TAG_BITS))
    return np.array([onebit_decode(bits[cell], ys[cell]) for cell in cells])
