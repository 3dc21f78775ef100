"""Feasible sets used by the optimizers: boxes and Euclidean balls."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoxConstraint:
    """Axis-aligned box ``[lo, hi]^p``."""

    lo: float
    hi: float
    dim: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty box: lo={self.lo}, hi={self.hi}")

    def project(self, w: np.ndarray) -> np.ndarray:
        """Clip a point, or each row of an (m, dim) array, into the box."""
        return np.clip(w, self.lo, self.hi)

    @property
    def radius(self) -> float:
        # half-diameter in the Euclidean norm
        return 0.5 * (self.hi - self.lo) * float(np.sqrt(self.dim))

    def center(self) -> np.ndarray:
        return np.full(self.dim, 0.5 * (self.lo + self.hi))

    def linear_minimizer(self, g: np.ndarray) -> np.ndarray:
        """A corner of the box minimising <g, v>; ``hi`` where g_j <= 0."""
        return np.where(g > 0, self.lo, self.hi)


@dataclass(frozen=True)
class BallConstraint:
    """Euclidean ball of a given center and radius."""

    center_point: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        # solvers project once or twice per step, so keep the centre array
        object.__setattr__(self, "_center",
                           np.asarray(self.center_point, dtype=float))

    @classmethod
    def origin(cls, dim: int, radius: float = 1.0) -> "BallConstraint":
        return cls(center_point=(0.0,) * dim, radius=radius)

    @property
    def dim(self) -> int:
        return len(self.center_point)

    def center(self) -> np.ndarray:
        return self._center.copy()

    def linear_minimizer(self, g: np.ndarray) -> np.ndarray:
        """The point of the ball minimising <g, v>; the centre when g = 0."""
        nrm = math.sqrt(g @ g)
        if nrm == 0.0:
            return self.center()
        return self._center - g * (self.radius / nrm)

    def project(self, w: np.ndarray) -> np.ndarray:
        """Project a point, or each row of an (m, dim) array, onto the ball."""
        d = w - self._center
        if d.ndim == 1:
            nrm = math.sqrt(d @ d)  # what np.linalg.norm computes for a vector
            if nrm <= self.radius:
                return np.asarray(w, dtype=float)
            return self._center + d * (self.radius / nrm)
        # a stack of 1 x dim @ dim x 1 products takes the same dot kernel
        # per row as the 1-d path, so every row is projected bit-identically
        nrm = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
        out = np.array(w, dtype=float)
        far = nrm > self.radius
        out[far] = self._center + d[far] * (self.radius / nrm[far])[:, None]
        return out
