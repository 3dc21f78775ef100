"""Polynomial approximation machinery.

Four families live here:

* Bernstein operators on [0, 1]^p, including the iterated (higher-order)
  variant ``B^(h) = I - (I - B_k)^h`` whose grid weights the private ERM
  protocols release.
* Chebyshev polynomials, including the growth branch
  ``cosh(n * arccosh(x))`` outside [-1, 1] that the disjunction
  polynomial construction relies on.
* Smoothed surrogates for the hinge and plus functions and the Bernstein
  coefficient grids of their derivatives.
* A sampler for the measure that writes a 1-Lipschitz convex loss as a
  mixture of absolute-value kinks plus an affine part, together with the
  Monte-Carlo reconstruction used to validate it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import EstimationError, ParameterError

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

    @property
    def grid_size(self) -> int:
        return (self.k + 1) ** self.p

    @property
    def weight_l1_bound(self) -> float:
        # sum_v |w_v(y)| never exceeds (2^h - 1)^p at any y
        return float((2 ** self.h - 1) ** self.p)


def bernstein_basis(v: int, k: int, x):
    """Basis polynomial ``C(k,v) x^v (1-x)^(k-v)``; valid for any real x."""
    if not 0 <= v <= k:
        raise ParameterError(f"basis index v={v} outside 0..{k}")
    x = np.asarray(x, dtype=float)
    out = math.comb(k, v) * x ** v * (1.0 - x) ** (k - v)
    return float(out) if out.ndim == 0 else out


def _padded_basis(k: int, x: np.ndarray) -> np.ndarray:
    # x.shape + (k+3,): a zero, the k+1 basis values at x, a zero
    b = np.zeros(x.shape + (k + 3,))
    b[..., 1] = 1.0
    x = x[..., None]
    omx = 1.0 - x
    for _ in range(k):
        # degree recurrence b_v <- b_v (1-x) + b_{v-1} x; the zero pads and
        # the not yet reached entries stay zero
        b[..., 1:-1] = b[..., 1:-1] * omx + b[..., :-2] * x
    return b


def bernstein_basis_vector(k: int, x) -> np.ndarray:
    """All k+1 basis values at x, computed by the degree recurrence.

    A scalar x gives shape (k+1,); an array of x gives x.shape + (k+1,),
    each point by the same elementwise recurrence.
    """
    return _padded_basis(k, np.asarray(x, dtype=float))[..., 1:-1]


def bernstein_basis_vector_deriv(k: int, x) -> np.ndarray:
    """Derivatives of all k+1 basis polynomials at x (shaped as above)."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.zeros(x.shape + (1,))
    lower = _padded_basis(k - 1, x)
    return k * (lower[..., :-1] - lower[..., 1:])


@lru_cache(maxsize=64)
def _node_matrix(k: int) -> np.ndarray:
    # N[u, v] = b_{v,k}(u / k): applying the operator to grid data is N @ data
    nodes = np.arange(k + 1) / k if k else np.zeros(1)
    return bernstein_basis_vector(k, nodes)


def iterated_basis_weights(k: int, h: int, x,
                           derivative: bool = False) -> np.ndarray:
    """Grid weights of the iterated operator along one axis.

    Returns w with ``B^(h)(f; x) = sum_v w[v] f(v/k)``. The weights follow
    from expanding ``I - (I - B_k)^h`` into powers of the one-step operator:
    ``w(x) = sum_{i=1}^{h} C(h,i) (-1)^(i-1) b(x)^T N^(i-1)``.
    With ``derivative=True`` the basis vector is replaced by its derivative,
    giving d/dx of the same weights. An array of x gives x.shape + (k+1,).
    """
    base = (bernstein_basis_vector_deriv(k, x) if derivative
            else bernstein_basis_vector(k, x))
    if h == 1:
        return base
    mat = _node_matrix(k)
    cur = base
    acc = math.comb(h, 1) * cur
    for i in range(2, h + 1):
        # one vector-matrix product per point, so a point's weights do not
        # depend on how many points share the call
        cur = np.matmul(cur[..., None, :], mat)[..., 0, :]
        acc = acc + (-1) ** (i - 1) * math.comb(h, i) * cur
    return acc


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
    outside = np.any((rows < -1e-12) | (rows > 1.0 + 1e-12), axis=1)
    if outside.any():
        raise ParameterError(f"evaluation point {rows[outside][0]} is "
                             f"outside [0, 1]^{spec.p}")
    vals = contract_grid(grid_values,
                         iterated_basis_weights(spec.k, spec.h, rows))
    return float(vals[0]) if y.ndim <= 1 else vals


# --- Chebyshev ---------------------------------------------------------------


def chebyshev_eval(n: int, x):
    """T_n via the trigonometric branches: cos inside [-1,1], cosh outside."""
    if n < 0:
        raise ParameterError(f"degree must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    inner = np.abs(x) <= 1.0
    out[inner] = np.cos(n * np.arccos(np.clip(x[inner], -1.0, 1.0)))
    hi = x > 1.0
    out[hi] = np.cosh(n * np.arccosh(x[hi]))
    lo = x < -1.0
    out[lo] = (-1.0) ** n * np.cosh(n * np.arccosh(-x[lo]))
    return float(out[0]) if scalar else out


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


def hbeta_value(beta: float, x):
    """Smooth surrogate of the plus function: (x + sqrt(x^2 + beta^2)) / 2."""
    if not beta > 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    x = np.asarray(x, dtype=float)
    out = 0.5 * (x + np.sqrt(x * x + beta ** 2))
    return float(out) if out.ndim == 0 else out


def hbeta_deriv(beta: float, x):
    if not beta > 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    x = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + x / np.sqrt(x * x + beta ** 2))
    return float(out) if out.ndim == 0 else out


def bernstein_deriv_coeffs(deriv: Callable, d: int) -> np.ndarray:
    """Coefficient grid c_j = deriv(j/d), j = 0..d, for the degree-d form."""
    if d < 1:
        raise ParameterError(f"degree d must be >= 1, got {d}")
    return np.asarray([float(deriv(j / d)) for j in range(d + 1)])


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


# --- subgradient mixture sampler ---------------------------------------------


@dataclass(frozen=True)
class SubgradientSampler:
    """Loss-derivative data for sampling the kink-location measure.

    ``f_prime`` is a non-decreasing (sub)derivative of a convex 1-Lipschitz
    loss on [-1, 1]; ``lower`` and ``upper`` are its endpoint values
    f'(-1) and f'(1).
    """

    f_prime: Callable
    lower: float
    upper: float

    def __post_init__(self):
        if self.upper < self.lower:
            raise ParameterError("endpoint derivatives must satisfy lower <= upper")

    @property
    def degenerate(self) -> bool:
        return self.upper - self.lower <= 1e-15 * max(1.0, abs(self.upper))


def hinge_sampler() -> SubgradientSampler:
    fp = lambda x: np.where(np.asarray(x, dtype=float) < 0.5, -1.0, 0.0)
    return SubgradientSampler(fp, -1.0, 0.0)


def abs_sampler() -> SubgradientSampler:
    fp = lambda x: np.where(np.asarray(x, dtype=float) < 0.0, -1.0, 1.0)
    return SubgradientSampler(fp, -1.0, 1.0)


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
    at_top = u >= np.asarray(sampler.f_prime(1.0), dtype=float)
    lo = np.full(u.shape, -1.0)
    hi = np.ones(u.shape)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        le = np.asarray(sampler.f_prime(mid), dtype=float) <= u
        lo = np.where(le, mid, lo)
        hi = np.where(le, hi, mid)
    return np.where(at_top, 1.0, lo)


def lemma40_reconstruct(sampler: SubgradientSampler, theta: float, m: int,
                        rng: np.random.Generator, anchor_value: float = 0.0,
                        anchor_point: float = 0.0) -> float:
    """Monte-Carlo check that the loss equals its kink-mixture representation.

    Estimates ``A * E|theta - s| + B * theta + c`` with
    A = (f'(1) - f'(-1)) / 2, B = (f'(1) + f'(-1)) / 2, and c fitted so the
    reconstruction matches ``anchor_value`` at ``anchor_point`` (f(0) at 0 by
    default). The same draws serve the anchor and the query point, which
    cancels most of the Monte-Carlo error. Verification oracle only.
    """
    a_coef = 0.5 * (sampler.upper - sampler.lower)
    b_coef = 0.5 * (sampler.upper + sampler.lower)
    if sampler.degenerate:
        return b_coef * theta + anchor_value - b_coef * anchor_point
    s = sample_q_many(sampler, m, rng)
    c = anchor_value - a_coef * float(np.mean(np.abs(anchor_point - s))) \
        - b_coef * anchor_point
    return a_coef * float(np.mean(np.abs(theta - s))) + b_coef * theta + c


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
