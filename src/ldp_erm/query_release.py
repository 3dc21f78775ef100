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

The server uses only the column sums of the players' reports, so each
release computes those sums directly and never forms a player's vector:
marginals from counts of the players whose bits cover each monomial,
smooth queries from matrix products of per-axis Chebyshev tables. Both
then noise every column in one ``primitives.ldp_avg_1d`` call over
[-b, b], b the public bound on a coordinate.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .datasets import BinaryDataset, BoxDataset, bit_weights
from .errors import (ConfigurationError, ParameterError, QueryClassError,
                     SampleSizeWarning)
from .polyapprox import OrPolynomial, build_or_polynomial, chebyshev_eval
from .primitives import CAP, PrivacyBudget, ldp_avg_1d

BLOCK = 2048  # rows or distinct records a release handles at once
BLOCK_ENTRIES = 2 ** 19  # most basis entries one smooth-query block holds


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
    """Bitmask of the nonzero entries along the last axis, packed as a
    ``BinaryDataset`` packs its rows' bits."""
    weights = bit_weights(vectors.shape[-1])
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


def check_expansion_cap(p: int, degree: int) -> int:
    """The expansion's C(p+degree, degree) coefficient count; rejects a
    count above ``CAP``."""
    dim = math.comb(p + degree, degree)
    if dim > CAP:
        raise ConfigurationError(
            f"marginal expansion needs C({p}+{degree},{degree}) = {dim} "
            f"coefficients, above the cap {CAP}")
    return dim


def _expansion_pieces(p: int, orpoly: OrPolynomial):
    """``(alphas, per_alpha)``: every exponent vector in N^p of total degree
    at most the polynomial's, and what a record's coefficient on it is.

    By the multinomial theorem the y^alpha coefficient of
    p_k(sum_j y_j row_j) is per_alpha[alpha] = a_{|alpha|} *
    |alpha|!/prod(alpha_j!) when supp(alpha) is inside the row's support
    and 0 otherwise, where a_m are the monomial coefficients of the count
    polynomial.
    """
    check_expansion_cap(p, orpoly.degree)
    alphas = _multi_indices(p, orpoly.degree)
    factors = _multinomial_factors(alphas)
    per_alpha = orpoly.coeffs[alphas.sum(axis=1)] * factors
    return alphas, per_alpha


def _cover_counts(patterns: np.ndarray, counts: np.ndarray,
                  masks: np.ndarray) -> np.ndarray:
    """Per mask, how many records hold every bit it holds, where
    ``counts[u]`` records share the bit pattern ``patterns[u]`` (all packed
    as ``_support_masks`` packs them). The integer counts are exact; the
    patterns are tested ``BLOCK`` at a time, so memory stays
    O(BLOCK * len(masks)) however many distinct records there are."""
    covered = np.zeros(len(masks), dtype=np.int64)
    for lo in range(0, len(patterns), BLOCK):
        inside = (masks[None, :] & ~patterns[lo:lo + BLOCK, None]) == 0
        covered += counts[lo:lo + BLOCK] @ inside
    return covered


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


def marginals_release(data: BinaryDataset, k: int, gamma: float,
                      budget: PrivacyBudget, rng: np.random.Generator,
                      split_budget: bool = False) -> MarginalCoefficientTable:
    """Privately average the players' expansion vectors.

    Each player sends their whole coefficient vector once; every coordinate
    is averaged with Laplace noise calibrated to the constructed
    polynomial's true maximum coefficient magnitude b (a public quantity),
    not the loose asymptotic bound: one ``ldp_avg_1d`` call over [-b, b]
    noises every column sum at scale 2b / epsilon. By default each
    coordinate is noised at the full budget, and then the message as a
    whole is not epsilon-LDP: a player spends epsilon times the largest L1
    change of their vector over the noise bound, about 94.7 at epsilon = 2
    (p = 8, k = 2, gamma = 0.05). ``split_budget=True`` divides the budget
    across the D coordinates and is epsilon-LDP by basic composition.
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
    # column alpha sums per_alpha[alpha] over the players whose bits cover
    # supp(alpha)
    covered = _cover_counts(*data.patterns, _support_masks(alphas))
    means = ldp_avg_1d(per_alpha * covered, data.n, b, sub_budget, rng,
                       low=-b)
    return MarginalCoefficientTable(values=means, alphas=alphas, p=p, k=k,
                                    t_k=orpoly.degree, gamma=gamma, bound=b)


def _query_bits(y, p: int) -> np.ndarray:
    """``y`` as an array, once every entry is checked to be 0 or 1 and its
    shape to be (p,)."""
    y = np.asarray(y)
    if not np.all((y == 0) | (y == 1)):
        raise ParameterError(f"a disjunction query holds only 0s and 1s, "
                             f"got {y}")
    if y.shape != (p,):
        raise ParameterError(f"query has shape {y.shape}, expected ({p},)")
    return y


def marginals_answer(table: MarginalCoefficientTable,
                     y: np.ndarray) -> QueryAnswer:
    """Answer one disjunction query from the released table.

    For a bit vector y the monomial y^alpha is 1 exactly when supp(alpha)
    is inside supp(y), so the answer is a masked coefficient sum. A y with
    an entry other than 0 or 1 is rejected, and so are queries with more
    than k selected attributes, which are outside the class the polynomial
    was built for.
    """
    y = _query_bits(y, table.p)
    support = int(np.count_nonzero(y))
    if support > table.k:
        raise QueryClassError(
            f"query selects {support} attributes but the release only "
            f"covers up to k = {table.k}")
    inside = (_support_masks(table.alphas) & ~_support_masks(y)) == 0
    raw = float(table.values[inside].sum())
    return QueryAnswer(raw=raw, value=float(np.clip(raw, 0.0, 1.0)))


def disjunction_truth(data: BinaryDataset, y: np.ndarray) -> float:
    """Exact fraction of rows with at least one selected bit set.

    Counted over the distinct rows, each weighted by how many rows share it.
    The rows are packed into int64 patterns, so data of more than
    ``MAX_BITS`` = 64 attributes raises ``ParameterError``.
    """
    y = _query_bits(y, data.dim)
    patterns, counts = data.patterns
    hits = counts[(patterns & _support_masks(y)) != 0].sum()
    return float(hits / data.n)


# --- smooth queries ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CosineCoefficientTable:
    """Released tensor Chebyshev basis averages, indexed by {0..t-1}^p."""

    values: np.ndarray
    p: int
    t: int


def check_basis_cap(t: int, p: int) -> int:
    """The basis's t^p entry count; rejects t < 1, a count above ``CAP``,
    and a t x t coefficient transform above ``CAP``, which at p = 1 is
    larger than the basis."""
    if t < 1:
        raise ParameterError(f"degree bound t must be >= 1, got {t}")
    dim = t ** p
    if dim > CAP:
        raise ConfigurationError(
            f"basis needs t^p = {dim} entries, above the cap {CAP}")
    if t * t > CAP:
        raise ConfigurationError(
            f"coefficient transform needs t^2 = {t * t} entries, above the "
            f"cap {CAP}: t is at most {math.isqrt(CAP)}")
    return dim


def _basis_column_sums(rows: np.ndarray, t: int) -> np.ndarray:
    """Column sums of the rows' tensor Chebyshev basis vectors, in the
    released (C-order) layout, without forming the (n, t^p) basis.

    Per block of rows, one call gives every axis's Chebyshev values, the
    basis entries of the first p - 1 axes are multiplied out row by row,
    and a matrix product with the last axis's values sums their products
    over the block. A block is ``BLOCK`` rows, or fewer where a row's
    t^(p-1) head entries and p * t Chebyshev values would make the block
    hold more than ``BLOCK_ENTRIES``, so memory stays bounded at any t and
    p the cap admits.
    """
    n, p = rows.shape
    size = max(1, min(BLOCK, BLOCK_ENTRIES // (t ** (p - 1) + p * t)))
    total = np.zeros((t ** (p - 1), t))
    for lo in range(0, n, size):
        block = rows[lo:lo + size]
        # (p, rows, t): one (rows, t) table per axis
        tables = chebyshev_eval(np.arange(t), block.T)
        head = np.ones((len(block), 1))
        for vj in tables[:-1]:
            head = (head[:, :, None] * vj[:, None, :]).reshape(len(block), -1)
        total += head.T @ tables[-1]
    return total.reshape(-1)


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
                   rng: np.random.Generator) -> CosineCoefficientTable:
    """Privately average every player's basis vector (one message each).

    Basis values live in [-1, 1], so one ``ldp_avg_1d`` call over [-1, 1]
    gives each coordinate Laplace noise of scale 2 / epsilon: the full
    budget for that coordinate alone. The message as a whole is therefore
    not epsilon-LDP: at epsilon = 2, t = 8 and p = 2 a player spends about
    73.
    """
    check_basis_cap(t, data.dim)
    values = ldp_avg_1d(_basis_column_sums(data.rows, t), data.n, 1.0,
                        budget, rng, low=-1.0)
    return CosineCoefficientTable(values=values, p=data.dim, t=t)


def answer_smooth_query(table: CosineCoefficientTable,
                        f: Callable) -> QueryAnswer:
    """Answer one smooth query offline from the released table."""
    coeffs = smooth_query_coefficients(f, table.t, table.p)
    raw = float(table.values @ coeffs)
    return QueryAnswer(raw=raw, value=raw)


def smooth_release_and_answer(data: BoxDataset, t: int,
                              budget: PrivacyBudget,
                              queries: Sequence[Callable],
                              rng: np.random.Generator):
    """One private release, then every query answered from it."""
    table = smooth_release(data, t, budget, rng)
    return table, [answer_smooth_query(table, f) for f in queries]

