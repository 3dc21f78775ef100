"""Truncated Chebyshev series fitted by cosine quadrature, the tests'
reference for one-dimensional Chebyshev approximation."""

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
