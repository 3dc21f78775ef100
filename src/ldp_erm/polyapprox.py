"""Polynomial approximation machinery.

Four families live here:

* Bernstein operators on [0, 1]^p, including the iterated (higher-order)
  variant ``B^(h) = I - (I - B_k)^h`` whose grid weights the private ERM
  protocols release, and the fold of that expansion into plain Bernstein
  coefficients.
* Chebyshev polynomials T_n, by the three-term recurrence (cosh outside
  [-1, 1]), and the low-degree polynomial approximating OR on counts,
  which is built from the monomial coefficients of one T_d.
* The smoothed surrogate of the hinge, whose derivative, averaged over a
  loss's kink locations, gives every GLM loss's Bernstein coefficients.
* A sampler for the measure that writes a 1-Lipschitz convex loss as a
  mixture of absolute-value kinks plus an affine part.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import EstimationError, ParameterError
from .primitives import check_values

# --- Bernstein operator -----------------------------------------------------


@dataclass(frozen=True)
class BernsteinOperatorSpec:
    """Order parameters of an iterated Bernstein operator on [0,1]^p."""

    k: int
    h: int
    p: int

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"grid order k must be >= 1, got {self.k}")
        if self.h < 1:
            raise ParameterError(f"iteration order h must be >= 1, got {self.h}")
        if self.p < 1:
            raise ParameterError(f"dimension p must be >= 1, got {self.p}")


def _raise_degree(b: np.ndarray, x: np.ndarray, degrees: range):
    # the degree recurrence b_v <- b_v (1-x) + b_{v-1} x, in place, from
    # degree degrees.start to degrees.stop; each step touches only the
    # entries already nonzero and the one it reaches, so the rest stay zero
    x = x[..., None]
    omx = 1.0 - x
    for d in degrees:
        b[..., 1:d + 3] = b[..., 1:d + 3] * omx + b[..., :d + 2] * x


def _padded_basis(k: int, x: np.ndarray, degree: int) -> np.ndarray:
    # x.shape + (k+3,): a zero, the degree+1 basis values of that degree at
    # x, then zeros
    b = np.zeros(x.shape + (k + 3,))
    b[..., 1] = 1.0
    _raise_degree(b, x, range(degree))
    return b


def bernstein_basis_vector(k: int, x) -> np.ndarray:
    """All k+1 basis values at x, computed by the degree recurrence.

    A scalar x gives shape (k+1,); an array of x gives x.shape + (k+1,),
    each point by the same elementwise recurrence.
    """
    return _padded_basis(k, np.asarray(x, dtype=float), k)[..., 1:-1]


def bernstein_basis_pair(k: int, x) -> tuple:
    """``bernstein_basis_vector(k, x)`` and the derivatives of the k+1 basis
    polynomials at x (shaped alike), from one run of the degree recurrence.

    The derivative is k times the shifted difference of the degree k-1
    basis, and one more step of the recurrence gives degree k.
    """
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones(x.shape + (1,)), np.zeros(x.shape + (1,))
    b = _padded_basis(k, x, k - 1)
    deriv = k * (b[..., :-2] - b[..., 1:-1])
    _raise_degree(b, x, range(k - 1, k))
    return b[..., 1:-1], deriv


@lru_cache(maxsize=64)
def _node_matrix(k: int) -> np.ndarray:
    # N[u, v] = b_{v,k}(u / k): applying the operator to grid data is N @ data
    nodes = np.arange(k + 1) / k if k else np.zeros(1)
    return bernstein_basis_vector(k, nodes)


def iterated_basis_weights(k: int, h: int, x) -> np.ndarray:
    """Grid weights of the iterated operator along one axis.

    Returns w with ``B^(h)(f; x) = sum_v w[v] f(v/k)``: w(x) = b(x)^T A,
    the basis vector times the fold matrix A of ``_iterate_matrix``, by one
    vector-matrix product per point, so a point's weights do not depend on
    how many points share the call. At h = 1 they are the basis itself. An
    array of x gives x.shape + (k+1,).
    """
    base = bernstein_basis_vector(k, x)
    if h == 1:
        return base
    return np.matmul(base[..., None, :], _iterate_matrix(k, h))[..., 0, :]


@lru_cache(maxsize=64)
def _iterate_matrix(k: int, h: int) -> np.ndarray:
    """A = sum_{i=1}^{h} C(h,i) (-1)^(i-1) N^(i-1), the expansion of ``I -
    (I - B_k)^h`` into powers of the one-step operator, whose node matrix
    is N; read-only. Each power is formed row by row, one vector-matrix
    product per row of the identity."""
    mat = _node_matrix(k)
    cur = np.eye(k + 1)
    acc = h * cur
    for i in range(2, h + 1):
        cur = np.matmul(cur[:, None, :], mat)[:, 0, :]
        acc = acc + (-1) ** (i - 1) * math.comb(h, i) * cur
    acc.setflags(write=False)
    return acc


def fold_iterated(grid_values: np.ndarray, k: int, h: int) -> np.ndarray:
    """Plain degree-k Bernstein coefficients of the iterated operator
    applied to a grid.

    Since ``w(x) = b(x)^T A``, ``B^(h)`` of the (k+1,) * p grid equals the
    plain (h = 1) Bernstein form of the grid contracted on each axis with
    A: ``c[u] = sum_v prod_j A[u_j, v_j] grid[v]``. At h = 1, A is the
    identity and the grid itself is returned.
    """
    if h == 1:
        return grid_values
    mat = _iterate_matrix(k, h)
    coeffs = grid_values
    # each contraction moves the axis it contracts to the end, so after p
    # of them the axes are back in order
    for _ in range(grid_values.ndim):
        coeffs = np.tensordot(coeffs, mat, axes=([0], [1]))
    return coeffs


def contract_grid(grid_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_v grid[v] * prod_j weights[i, j, v_j]`` for each row i.

    ``grid_values`` has shape (k+1,) * p and ``weights`` shape (m, p, k+1),
    one weight vector per row and axis; the result has shape (m,). Each row
    is contracted by its own vector-matrix products, so a row's value does
    not depend on the other rows.
    """
    m, p, size = weights.shape
    cur = grid_values.reshape(1, -1)
    for j in range(p):
        cur = np.matmul(weights[:, j, None, :],
                        cur.reshape(len(cur), size, -1)).reshape(m, -1)
    return cur[:, 0]


def iterated_bernstein_eval(grid_values: np.ndarray, spec: BernsteinOperatorSpec,
                            y):
    """Evaluate the iterated operator of gridded data at points in [0,1]^p.

    ``grid_values`` holds f on the uniform grid {0, 1/k, ..., 1}^p as an
    array of shape (k+1,) * p; the multivariate operator is the tensor
    product of the per-axis weights. A point of shape (p,) gives a float,
    an (m, p) array of points gives shape (m,).
    """
    y = np.asarray(y, dtype=float)
    if grid_values.shape != (spec.k + 1,) * spec.p:
        raise ParameterError(
            f"grid shape {grid_values.shape} does not match spec {spec}"
        )
    rows = y.reshape(1, -1) if y.ndim <= 1 else y
    if rows.ndim != 2 or rows.shape[1] != spec.p:
        raise ParameterError(
            f"points have shape {y.shape}, expected ({spec.p},) or "
            f"(m, {spec.p})")
    check_values(rows, 1.0)
    vals = contract_grid(grid_values,
                         iterated_basis_weights(spec.k, spec.h, rows))
    return float(vals[0]) if y.ndim <= 1 else vals


# --- Chebyshev ---------------------------------------------------------------


def _times_degrees(theta: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    # theta[:, None] * degrees, with degree 0 giving 0 even where theta is
    # infinite, so that T_0 = cos(0) = cosh(0) = 1
    return np.multiply(theta[:, None], degrees,
                       out=np.zeros(theta.shape + degrees.shape),
                       where=degrees > 0)


def chebyshev_eval(n, x):
    """T_n: the three-term recurrence inside [-1, 1], cosh outside.

    ``n`` is one integer degree or a 1-d array of them, and the result has
    shape x.shape + n.shape, a float when both are scalars. One degree
    stays a valid ``n`` because T_n itself is what the Chebyshev identities
    are stated and checked for.
    Every entry first takes T_0 = 1, T_1 = x and T_{r+1} = 2x T_r - T_{r-1}
    at x clipped to [-1, 1], with 2x formed once, up to the largest degree
    asked for; so this takes (max degree + 1) * x.size doubles, and an
    entry's bits do not depend on the other degrees asked for. Only the
    entries above 1, below -1 or NaN, if there are any, are then written
    again by the cosh branches. A NaN entry, in none of the branches, gives
    NaN; any other x, infinite ones included, gives T_0 = 1.
    The recurrence needs no cos call. Its error grows like (r+1)^2 eps
    near x = +-1, where the trigonometric form cos(r arccos x) errs less at
    high degree. The largest error over r <= t, against cos(r arccos x) in
    long double, at x on a uniform grid of [-1, 1] plus points between
    1e-16 and 1e-8 from +-1:

    =======  ==========  ======================
    t        recurrence  cos(r arccos x), float
    =======  ==========  ======================
    8        2.1e-15     3.7e-15
    64       4.2e-14     3.1e-14
    1000     1.0e-11     5.4e-13
    200000   4.0e-7      9.7e-11
    =======  ==========  ======================
    """
    degrees = np.asarray(n)
    if (degrees.ndim > 1 or not np.issubdtype(degrees.dtype, np.integer)
            or np.any(degrees < 0)):
        raise ParameterError(
            f"need an integer degree >= 0 or a 1-d array of them, got {n}")
    x = np.asarray(x, dtype=float)
    shape = x.shape + degrees.shape
    x, degrees = x.reshape(-1), degrees.reshape(-1)
    inner = np.clip(x, -1.0, 1.0)
    table = np.empty((int(degrees.max(initial=0)) + 1, len(x)))
    table[0] = 1.0
    if len(table) > 1:
        table[1] = inner
    twice = 2.0 * inner
    for r in range(2, len(table)):
        np.multiply(twice, table[r - 1], out=table[r])
        table[r] -= table[r - 2]
    out = table[degrees].T
    hi = x > 1.0
    if hi.any():
        out[hi] = np.cosh(_times_degrees(np.arccosh(x[hi]), degrees))
    lo = x < -1.0
    if lo.any():
        out[lo] = (-1.0) ** degrees * np.cosh(
            _times_degrees(np.arccosh(-x[lo]), degrees))
    nan = np.isnan(x)
    if nan.any():
        out[nan] = np.nan  # the positive quiet NaN, not the recurrence's
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


# --- smoothed plus / hinge surrogates ---------------------------------------


@dataclass(frozen=True)
class SmoothedPlus:
    """Smooth surrogate of the margin loss max(0, 1/2 - x).

    The surrogate is 1-Lipschitz, (1/beta)-smooth, convex, and within beta/2
    of the hinge everywhere.
    """

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ParameterError(f"beta must lie in (0, 1], got {self.beta}")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        z = 0.5 - x
        out = 0.5 * (z + np.sqrt(z * z + self.beta ** 2))
        return float(out) if out.ndim == 0 else out

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        z = x - 0.5
        out = 0.5 * (-1.0 + z / np.sqrt(z * z + self.beta ** 2))
        return float(out) if out.ndim == 0 else out


# --- subgradient mixture sampler ---------------------------------------------


@dataclass(frozen=True)
class SubgradientSampler:
    """Loss-derivative data for sampling the kink-location measure.

    ``f_prime`` is a non-decreasing (sub)derivative of a convex 1-Lipschitz
    loss on [-1, 1]; ``lower`` and ``upper`` are derived from it, its
    endpoint values f'(-1) and f'(1).
    """

    f_prime: Callable
    lower: float = field(init=False)
    upper: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.f_prime(-1.0)))
        object.__setattr__(self, "upper", float(self.f_prime(1.0)))
        if self.upper < self.lower:
            raise ParameterError("endpoint derivatives must satisfy lower <= upper")

    @property
    def degenerate(self) -> bool:
        return self.upper - self.lower <= 1e-15 * max(1.0, abs(self.upper))


def hinge_prime(x):
    """The hinge max(0, 1/2 - x)'s subgradient: -1 below its kink at 1/2,
    else 0."""
    return np.where(np.asarray(x, dtype=float) < 0.5, -1.0, 0.0)


def hinge_sampler() -> SubgradientSampler:
    """The hinge's kink measure, a point mass at 1/2. Built from one
    module-level derivative, so every call gives an equal, equally hashed
    sampler."""
    return SubgradientSampler(hinge_prime)


def sample_q_many(sampler: SubgradientSampler, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw kink locations: u ~ U[f'(-1), f'(1)], then ``kink_locations``."""
    if sampler.degenerate:
        raise ParameterError(
            "degenerate sampler (f'(-1) == f'(1)); the loss is affine and "
            "has no kink measure"
        )
    return kink_locations(sampler,
                          rng.uniform(sampler.lower, sampler.upper, size))


def kink_locations(sampler: SubgradientSampler, u: np.ndarray) -> np.ndarray:
    """The maximal s in [-1, 1] with f'(s) <= u, elementwise, for uniform
    draws u of any shape; vectorized bisection to ~1e-14."""
    u = np.asarray(u, dtype=float)
    at_top = u >= sampler.upper
    lo = np.full(u.shape, -1.0)
    hi = np.ones(u.shape)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        le = np.asarray(sampler.f_prime(mid), dtype=float) <= u
        lo = np.where(le, mid, lo)
        hi = np.where(le, hi, mid)
    return np.where(at_top, 1.0, lo)


# --- disjunction polynomial ---------------------------------------------------


@dataclass(frozen=True)
class OrPolynomial:
    """Univariate polynomial with p(0) = 0 and p(j) within gamma of 1 on 1..k."""

    k: int
    gamma: float
    degree: int
    coeffs: np.ndarray  # monomial coefficients, constant term exactly 0

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float),
                                                self.coeffs)


def build_or_polynomial(k: int, gamma: float) -> OrPolynomial:
    """Low-degree approximation of the k-input OR on counts {0, 1, ..., k}.

    The construction rides Chebyshev growth: map [1, k] onto [-1, 1] by the
    affine m(x) = (2x - k - 1) / (k - 1), note |m(0)| > 1, and set
    ``p(x) = 1 - T_d(m(x)) / T_d(m(0))`` with the smallest degree d making
    ``1 / |T_d(m(0))| <= gamma``. Then p(0) = 0 exactly and |p(j) - 1| <=
    gamma for j in 1..k; the degree grows like sqrt(k) * log(1/gamma).

    For k = 1 the affine map degenerates and the limit construction is the
    identity p(x) = x.
    """
    if k < 1:
        raise ParameterError(f"arity k must be >= 1, got {k}")
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"gamma must lie in (0, 1), got {gamma}")
    if k == 1:
        return OrPolynomial(k=1, gamma=gamma, degree=1,
                            coeffs=np.array([0.0, 1.0]))
    z = (k + 1.0) / (k - 1.0)
    d = max(1, math.ceil(math.acosh(1.0 / gamma) / math.acosh(z)))
    while math.cosh(d * math.acosh(z)) < 1.0 / gamma:
        d += 1
    cheb = np.zeros(d + 1)
    cheb[d] = 1.0
    t_mono = np.polynomial.polynomial.Polynomial(np.polynomial.chebyshev.cheb2poly(cheb))
    affine = np.polynomial.polynomial.Polynomial([-(k + 1.0) / (k - 1.0), 2.0 / (k - 1.0)])
    composed = t_mono(affine)
    denom = composed.coef[0]  # equals T_d(m(0)) exactly
    coeffs = -composed.coef / denom
    coeffs[0] += 1.0  # exactly zero: 1 - denom/denom
    poly = OrPolynomial(k=k, gamma=gamma, degree=d, coeffs=coeffs)
    checks = poly(np.arange(1, k + 1, dtype=float))
    if np.max(np.abs(checks - 1.0)) > gamma * (1.0 + 1e-9) + 1e-12:
        raise EstimationError(
            f"disjunction polynomial failed its guarantee at k={k}, gamma={gamma}"
        )
    return poly
