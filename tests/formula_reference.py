"""Closed-form densities, polynomials and Monte-Carlo oracles that the tests
check the mechanisms in ``ldp_erm`` against."""

import math

import numpy as np

from ldp_erm.polyapprox import (SubgradientSampler, chebyshev_eval,
                                sample_q_many)
from ldp_erm.primitives import laplace_sum


def laplace_logpdf(z, loc: float, scale: float):
    """Log density of Laplace(loc, scale) at z."""
    z = np.asarray(z, dtype=float)
    return -np.abs(z - loc) / scale - np.log(2.0 * scale)


def laplace_means(sums, n: int, width: float, budget, rng):
    """What n players' reports average to, per entry of ``sums``, the sums
    of their values over a range ``width`` wide: each report adds
    Lap(width / epsilon) to each value, and an entry's n noises are summed
    as that entry of one ``laplace_sum`` of count n over every entry."""
    sums = np.asarray(sums, dtype=float)
    if not budget.noiseless:
        sums = sums + laplace_sum(rng, width / budget.epsilon, n, sums.shape)
    return sums / n


def bernstein_poly_eval(coeffs: np.ndarray, x):
    """Evaluate sum_j c_j C(d,j) x^j (1-x)^(d-j).

    The form is a faithful approximation only on [0, 1]; it extrapolates
    (and can blow up) outside, which callers evaluating at signed margins
    need to keep in mind.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    d = len(coeffs) - 1
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)[..., None]
    j = np.arange(d + 1)
    binom = np.array([math.comb(d, jj) for jj in j], dtype=float)
    terms = coeffs * binom * x ** j * (1.0 - x) ** (d - j)
    out = terms.sum(axis=-1)
    return float(out[0]) if scalar else out


def abs_sampler() -> SubgradientSampler:
    """Kink-measure data of |x|: a point mass at 0."""
    fp = lambda x: np.where(np.asarray(x, dtype=float) < 0.0, -1.0, 1.0)
    return SubgradientSampler(fp, -1.0, 1.0)


def lemma40_reconstruct(sampler: SubgradientSampler, theta: float, m: int,
                        rng: np.random.Generator, anchor_value: float = 0.0,
                        anchor_point: float = 0.0) -> float:
    """Monte-Carlo check that the loss equals its kink-mixture representation.

    Estimates ``A * E|theta - s| + B * theta + c`` with
    A = (f'(1) - f'(-1)) / 2, B = (f'(1) + f'(-1)) / 2, and c fitted so the
    reconstruction matches ``anchor_value`` at ``anchor_point`` (f(0) at 0 by
    default). The same draws serve the anchor and the query point, which
    cancels most of the Monte-Carlo error.
    """
    a_coef = 0.5 * (sampler.upper - sampler.lower)
    b_coef = 0.5 * (sampler.upper + sampler.lower)
    if sampler.degenerate:
        return b_coef * theta + anchor_value - b_coef * anchor_point
    s = sample_q_many(sampler, m, rng)
    c = anchor_value - a_coef * float(np.mean(np.abs(anchor_point - s))) \
        - b_coef * anchor_point
    return a_coef * float(np.mean(np.abs(theta - s))) + b_coef * theta + c


def evaluate_expansion(coeffs: np.ndarray, alphas: np.ndarray,
                       y: np.ndarray) -> float:
    """Evaluate a multinomial coefficient vector at an arbitrary point."""
    y = np.asarray(y, dtype=float)
    powers = np.prod(y[None, :] ** alphas, axis=1)
    return float(coeffs @ powers)


def covered(rows: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """(n, D) booleans, one row at a time: whether every exponent of alpha
    sits on a set bit of the row."""
    return np.all((alphas[None, :, :] == 0) | (rows[:, None, :] > 0),
                  axis=-1)


def expand_rows(rows: np.ndarray, alphas: np.ndarray,
                per_alpha: np.ndarray) -> np.ndarray:
    """(n, D) marginal coefficient vectors of bit rows: entry alpha is
    per_alpha[alpha] when the row covers alpha, else 0."""
    return np.where(covered(rows, alphas), per_alpha[None, :], 0.0)


def covering_counts(rows: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Per exponent vector alpha, how many bit rows cover it, scanning the
    rows 1024 at a time."""
    return sum(covered(rows[lo:lo + 1024], alphas).sum(axis=0)
               for lo in range(0, len(rows), 1024))


def basis_matrix(rows: np.ndarray, t: int) -> np.ndarray:
    """(n, t^p) tensor Chebyshev basis vectors of rows in [-1, 1]^p, in the
    released C order: one factor per axis, multiplied in axis order."""
    n, p = rows.shape
    cur = np.ones((n, 1))
    for j in range(p):
        vj = chebyshev_eval(np.arange(t), rows[:, j])
        cur = (cur[:, :, None] * vj[:, None, :]).reshape(n, -1)
    return cur


def disjunction_fraction(rows: np.ndarray, y) -> float:
    """Fraction of bit rows with a set bit among y's selected attributes."""
    sel = np.flatnonzero(np.asarray(y))
    if len(sel) == 0:
        return 0.0
    return float(np.mean(rows[:, sel].any(axis=1)))
