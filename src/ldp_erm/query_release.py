"""Non-interactive private release of query classes.

Two mechanisms, one shape: every player expands their record into a bounded
coefficient/basis vector, the server privately averages the vectors once,
and afterwards any query in the class is answered offline by evaluating or
dotting the released table — no further player contact.

* Marginals: monotone k-way disjunctions over bit vectors. The record is
  expanded through a low-degree polynomial that approximates OR on counts,
  composed with the sum of selected bits and re-expanded into multinomial
  coefficients.
* Smooth queries: records in [-1,1]^p are expanded in a tensor Chebyshev
  basis; each smooth query is answered by its own tensor Chebyshev
  coefficients against the same released table.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .datasets import BinaryDataset, BoxDataset
from .errors import (ConfigurationError, ParameterError, QueryClassError,
                     SampleSizeWarning)
from .polyapprox import OrPolynomial, build_or_polynomial, chebyshev_eval
from .primitives import PrivacyBudget, Transcript, laplace_noise

CAP = 200_000  # most entries of a coefficient vector or basis (one real each)
BLOCK = 4096  # players whose vectors a release holds at once


@dataclass(frozen=True)
class QueryAnswer:
    """A released answer: the raw estimate plus the reported (clamped) one."""

    raw: float
    value: float


# --- marginals ---------------------------------------------------------------


@lru_cache(maxsize=32)
def _multi_indices(p: int, deg: int) -> np.ndarray:
    """All exponent vectors in N^p with total degree <= deg, fixed order."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == p:
            out.append(prefix)
            return
        for a in range(remaining + 1):
            rec(prefix + (a,), remaining - a)

    rec((), deg)
    return np.array(out, dtype=np.int64)


def _multinomial_factors(alphas: np.ndarray) -> np.ndarray:
    """|alpha|! / prod(alpha_j!) for each exponent vector."""
    totals = alphas.sum(axis=1)
    out = np.empty(len(alphas))
    for i, (alpha, tot) in enumerate(zip(alphas, totals)):
        denom = 1
        for a in alpha:
            denom *= math.factorial(int(a))
        out[i] = math.factorial(int(tot)) / denom
    return out


def _support_masks(vectors: np.ndarray) -> np.ndarray:
    """Bitmask of the nonzero entries along the last axis."""
    weights = 1 << np.arange(vectors.shape[-1], dtype=np.int64)
    return ((vectors > 0) * weights).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class MarginalCoefficientTable:
    """Released multinomial coefficients of the averaged record expansions."""

    values: np.ndarray
    alphas: np.ndarray
    p: int
    k: int
    t_k: int
    gamma: float
    bound: float  # per-coordinate magnitude bound used for the noise


def _expansion_pieces(p: int, orpoly: OrPolynomial):
    dim = math.comb(p + orpoly.degree, orpoly.degree)
    if dim > CAP:
        raise ConfigurationError(
            f"marginal expansion needs C({p}+{orpoly.degree},{orpoly.degree}) "
            f"= {dim} coefficients, above the cap {CAP}")
    alphas = _multi_indices(p, orpoly.degree)
    factors = _multinomial_factors(alphas)
    per_alpha = orpoly.coeffs[alphas.sum(axis=1)] * factors
    return alphas, per_alpha


def _expand_rows(rows: np.ndarray, alphas: np.ndarray,
                 per_alpha: np.ndarray) -> np.ndarray:
    """(n, D) matrix of the rows' coefficient vectors.

    By the multinomial theorem the y^alpha coefficient of
    p_k(sum_j y_j row_j) is a_{|alpha|} * |alpha|!/prod(alpha_j!) when
    supp(alpha) is inside the row's support and 0 otherwise, where a_m are
    the monomial coefficients of the count polynomial.
    """
    inside = (_support_masks(alphas)[None, :]
              & ~_support_masks(rows)[:, None]) == 0
    return np.where(inside, per_alpha[None, :], 0.0)


def coefficient_bound(orpoly: OrPolynomial, p: int) -> float:
    """Largest possible |coefficient| over any record — a public quantity."""
    _, per_alpha = _expansion_pieces(p, orpoly)
    return float(np.max(np.abs(per_alpha)))


def _guarantee_n_floor(p: int, k: int, gamma: float, epsilon: float,
                       fail_prob: float = 0.05) -> float:
    # shape of the accuracy guarantee's sample-size requirement with its
    # unspecified constants set to 1
    growth = p ** (math.sqrt(k) * math.log(1.0 / gamma))
    log_term = math.log(1.0 / fail_prob)
    return max(growth * log_term / (epsilon ** 2 * gamma ** 2),
               log_term / epsilon ** 2,
               growth * log_term)


def _private_column_means(rows_values: Callable[[int, int], np.ndarray],
                          n: int, dim: int, bound: float,
                          budget: PrivacyBudget,
                          rng: np.random.Generator) -> np.ndarray:
    """Laplace-noised per-column means of n player vectors in [0, bound]^dim.

    ``rows_values(lo, hi)`` gives the (hi - lo, dim) vectors of players lo
    to hi - 1. They are encoded, range-checked, noised and summed BLOCK
    players at a time, so memory stays O(BLOCK * dim) whatever n. The noise
    comes from ``laplace_noise``, which maps each uniform to its draw on its
    own, so row-major draws over consecutive blocks are the same stream as
    one (n, dim) draw. The result is bit-identical to one mean over the
    whole (n, dim) matrix: keeping the running total as row 0 of the buffer
    makes ``np.add.reduce`` add the rows one after another in player order,
    as an axis-0 sum does (adding per-block sums would not).
    """
    buf = np.empty((min(n, BLOCK) + 1, dim))
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        block = buf[1:hi - lo + 1]
        block[...] = rows_values(lo, hi)
        if block.min() < -1e-9 or block.max() > bound + 1e-9:
            raise ParameterError(
                f"values outside [0, {bound}] cannot be averaged at this bound")
        if not budget.noiseless:
            block += laplace_noise(rng, bound / budget.epsilon, block.shape)
        # the first block has no running total yet
        buf[0] = np.add.reduce(buf[0 if lo else 1:hi - lo + 1], axis=0)
    return buf[0] / n


def marginals_release(data: BinaryDataset, k: int, gamma: float,
                      budget: PrivacyBudget, rng: np.random.Generator,
                      split_budget: bool = False,
                      transcript: Optional[Transcript] = None) -> MarginalCoefficientTable:
    """Privately average the players' expansion vectors.

    Each player sends their whole coefficient vector once; every coordinate
    is averaged with Laplace noise calibrated to the constructed
    polynomial's true maximum coefficient magnitude (a public quantity),
    not the loose asymptotic bound. By default each coordinate is noised at
    the full budget, and then the message as a whole is not epsilon-LDP: a
    player spends epsilon times the largest L1 change of their vector over
    the noise bound, about 94.7 at epsilon = 2 (p = 8, k = 2, gamma =
    0.05). ``split_budget=True`` divides the budget across the D
    coordinates and is epsilon-LDP by basic composition.
    """
    if not 1 <= k <= data.dim:
        raise ParameterError(f"need 1 <= k <= p, got k={k}, p={data.dim}")
    orpoly = build_or_polynomial(k, gamma)
    p = data.dim
    alphas, per_alpha = _expansion_pieces(p, orpoly)
    dim = len(alphas)
    floor = _guarantee_n_floor(p, k, gamma, budget.epsilon)
    if data.n < floor:
        warnings.warn(
            f"n = {data.n} is below the accuracy guarantee's sample-size "
            f"shape (~{floor:.2e}); released answers may be noisy",
            SampleSizeWarning, stacklevel=2)

    b = coefficient_bound(orpoly, p)
    sub_budget = budget.split(dim) if split_budget else budget
    means = _private_column_means(
        lambda lo, hi: _expand_rows(data.rows[lo:hi], alphas, per_alpha) + b,
        data.n, dim, 2.0 * b, sub_budget, rng) - b
    if transcript is not None:
        transcript.add_bulk(data.n, reals_per=dim)
    return MarginalCoefficientTable(values=means, alphas=alphas, p=p, k=k,
                                    t_k=orpoly.degree, gamma=gamma, bound=b)


def marginals_answer(table: MarginalCoefficientTable,
                     y: np.ndarray) -> QueryAnswer:
    """Answer one disjunction query from the released table.

    For a bit vector y the monomial y^alpha is 1 exactly when supp(alpha)
    is inside supp(y), so the answer is a masked coefficient sum. Queries
    with more than k selected attributes are outside the class the
    polynomial was built for and are rejected.
    """
    y = np.asarray(y)
    if y.shape != (table.p,):
        raise ParameterError(f"query has shape {y.shape}, expected ({table.p},)")
    support = int(np.count_nonzero(y))
    if support > table.k:
        raise QueryClassError(
            f"query selects {support} attributes but the release only "
            f"covers up to k = {table.k}")
    inside = (_support_masks(table.alphas) & ~_support_masks(y)) == 0
    raw = float(table.values[inside].sum())
    return QueryAnswer(raw=raw, value=float(np.clip(raw, 0.0, 1.0)))


def disjunction_truth(data: BinaryDataset, y: np.ndarray) -> float:
    """Exact fraction of rows with at least one selected bit set."""
    y = np.asarray(y)
    sel = np.flatnonzero(y)
    if len(sel) == 0:
        return 0.0
    return float(np.mean(data.rows[:, sel].any(axis=1)))


# --- smooth queries ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CosineCoefficientTable:
    """Released tensor Chebyshev basis averages, indexed by {0..t-1}^p."""

    values: np.ndarray
    p: int
    t: int


def check_basis_cap(t: int, p: int) -> int:
    """The basis's t^p entry count; rejects t < 1 and a count above ``CAP``."""
    if t < 1:
        raise ParameterError(f"degree bound t must be >= 1, got {t}")
    dim = t ** p
    if dim > CAP:
        raise ConfigurationError(
            f"basis needs t^p = {dim} entries, above the cap {CAP}")
    return dim


def _basis_matrix(rows: np.ndarray, t: int) -> np.ndarray:
    """(n, t^p) matrix of products of per-axis Chebyshev values."""
    n, p = rows.shape
    check_basis_cap(t, p)
    cur = np.ones((n, 1))
    for j in range(p):
        vj = np.stack([chebyshev_eval(r, rows[:, j]) for r in range(t)],
                      axis=1)
        cur = (cur[:, :, None] * vj[:, None, :]).reshape(n, -1)
    return cur


def smooth_query_coefficients(f: Callable, t: int, p: int) -> np.ndarray:
    """Tensor Chebyshev coefficients of f by nested cosine quadrature.

    Evaluates f on the p-fold grid of the t first-kind Chebyshev nodes x_j
    per axis and applies a type-II cosine transform along every axis: the
    coefficient of T_r is (2/t) sum_j f(x_j) T_r(x_j), halved for r = 0.
    Exact for polynomials of per-axis degree below t, and near-minimax for
    smooth f. ``f`` maps an (m, p) array of points to their m values.
    Returns the flattened (C-order) coefficient vector aligned with the
    released basis table.
    """
    dim = check_basis_cap(t, p)
    angles = np.pi * (np.arange(t) + 0.5) / t
    nodes = np.cos(angles)
    mesh = np.meshgrid(*([nodes] * p), indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, p)
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (dim,):
        raise ParameterError(f"query gave shape {vals.shape} for {dim} "
                             f"points, expected ({dim},)")
    # transform[r, j] = (2/t) T_r(x_j), with row 0 halved
    transform = np.cos(np.arange(t)[:, None] * angles) * (2.0 / t)
    transform[0] /= 2.0
    coef = vals.reshape((t,) * p)
    for _ in range(p):
        # contracts the first axis and appends the transformed one, so
        # after p steps the axes are back in order
        coef = np.tensordot(coef, transform, axes=([0], [1]))
    return coef.reshape(-1)


def smooth_release(data: BoxDataset, t: int, budget: PrivacyBudget,
                   rng: np.random.Generator,
                   transcript: Optional[Transcript] = None) -> CosineCoefficientTable:
    """Privately average every player's basis vector (one message each).

    Basis values live in [-1, 1]; they are shifted to [0, 1] for the
    averaging primitive and shifted back, which leaves the noise scale
    matching a sensitivity-1 release per coordinate at the full budget.
    The message as a whole is therefore not epsilon-LDP: at epsilon = 2,
    t = 8 and p = 2 a player spends about 73.
    """
    dim = check_basis_cap(t, data.dim)
    means01 = _private_column_means(
        lambda lo, hi: (_basis_matrix(data.rows[lo:hi], t) + 1.0) / 2.0,
        data.n, dim, 1.0, budget, rng)
    if transcript is not None:
        transcript.add_bulk(data.n, reals_per=dim)
    return CosineCoefficientTable(values=2.0 * means01 - 1.0, p=data.dim, t=t)


def answer_smooth_query(table: CosineCoefficientTable,
                        f: Callable) -> QueryAnswer:
    """Answer one smooth query offline from the released table."""
    coeffs = smooth_query_coefficients(f, table.t, table.p)
    raw = float(table.values @ coeffs)
    return QueryAnswer(raw=raw, value=raw)


def smooth_release_and_answer(data: BoxDataset, t: int,
                              budget: PrivacyBudget,
                              queries: Sequence[Callable],
                              rng: np.random.Generator,
                              transcript: Optional[Transcript] = None):
    """One private release, then every query answered from it."""
    table = smooth_release(data, t, budget, rng, transcript)
    return table, [answer_smooth_query(table, f) for f in queries]


def recommended_t(n: int, p: int, h: int, epsilon: float) -> int:
    """Heuristic per-axis degree bound (sqrt(n) eps)^(2/(5p+2h))."""
    if n < 1 or p < 1 or h < 1 or not epsilon > 0:
        raise ParameterError("need n, p, h >= 1 and epsilon > 0")
    return max(1, round((math.sqrt(n) * epsilon) ** (2.0 / (5 * p + 2 * h))))
