"""Truncated Chebyshev series fitted by cosine quadrature, the tests'
reference for one-dimensional Chebyshev approximation, and T_n one degree
at a time: by its three-term recurrence inside [-1, 1], and at finite or
NaN points by its trigonometric branches."""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.fft

from ldp_erm.errors import ParameterError


@dataclass(frozen=True)
class ChebyshevSeries:
    """A truncated Chebyshev expansion, evaluated by Clenshaw recursion."""

    coef: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.coef) - 1

    def __call__(self, x):
        return np.polynomial.chebyshev.chebval(x, self.coef)


def chebyshev_series_fit(f: Callable, n: int) -> ChebyshevSeries:
    """Degree-n Chebyshev coefficients of f by cosine quadrature.

    Samples f at the n+1 Chebyshev extrema cos(pi*j/n) and applies a type-I
    cosine transform; the result interpolates f and reproduces polynomials
    of degree <= n exactly.
    """
    if n < 0:
        raise ParameterError(f"degree must be >= 0, got {n}")
    if n == 0:
        return ChebyshevSeries(np.array([float(f(0.0))]))
    nodes = np.cos(np.pi * np.arange(n + 1) / n)
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape != nodes.shape:
        vals = np.array([float(f(x)) for x in nodes])
    c = scipy.fft.dct(vals, type=1) / n
    c[0] /= 2.0
    c[n] /= 2.0
    return ChebyshevSeries(c)


def chebyshev_recurrence(n: int, x: np.ndarray) -> np.ndarray:
    """T_n at each entry of x in [-1, 1] by T_0 = 1, T_1 = x and
    T_{r+1} = 2x T_r - T_{r-1}, with 2x formed once, keeping only the last
    two degrees."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x)
    twice = 2.0 * x
    prev, cur = np.ones_like(x), x
    for _ in range(n - 1):
        prev, cur = cur, twice * cur - prev
    return cur


def chebyshev_branches(n: int, x: np.ndarray) -> np.ndarray:
    """T_n at each finite or NaN entry of x: cos(n arccos x) inside [-1, 1],
    cosh(n arccosh x) above it, (-1)^n cosh(n arccosh(-x)) below it, NaN at
    NaN."""
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, np.nan)
    inner = np.abs(x) <= 1.0
    out[inner] = np.cos(n * np.arccos(np.clip(x[inner], -1.0, 1.0)))
    hi = x > 1.0
    out[hi] = np.cosh(n * np.arccosh(x[hi]))
    lo = x < -1.0
    out[lo] = (-1.0) ** n * np.cosh(n * np.arccosh(-x[lo]))
    return out
