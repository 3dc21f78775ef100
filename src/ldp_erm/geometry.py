"""The Euclidean ball, the feasible set of the GLM solver and its baseline."""

import math
from dataclasses import dataclass

import numpy as np

_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class BallConstraint:
    """Euclidean ball of a given center and radius."""

    center_point: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        # solvers project once or twice per step, so keep the centre array
        center = np.asarray(self.center_point, dtype=float)
        object.__setattr__(self, "_center", center)
        # centred at +0.0 exactly: w - centre is then w bit for bit
        object.__setattr__(self, "_at_origin", not (
            center.any() or np.signbit(center).any()))

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
        """Project a point, or each row of an (m, dim) array, onto the ball.

        ``w`` may be a list or an integer array. A point inside the ball
        comes back as ``w`` itself when it is already a float array. For a
        float array and a ball centred at +0.0, ``w - centre`` is skipped:
        x - 0.0 is x bit for bit, -0.0 included. A point outside still gets
        the centre added, as 0.0 + -0.0 is +0.0, so the result has the same
        bits as the general path.
        """
        if self._at_origin and type(w) is np.ndarray and w.dtype is _FLOAT:
            d = w
        else:
            d = w - self._center
        if d.ndim == 1:
            nrm = math.sqrt(d @ d)  # what np.linalg.norm computes for a vector
            if nrm <= self.radius:
                return d if d is w else np.asarray(w, dtype=float)
            return self._center + d * (self.radius / nrm)
        # a stack of 1 x dim @ dim x 1 products takes the same dot kernel
        # per row as the 1-d path, so every row is projected bit-identically
        nrm = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
        out = np.array(w, dtype=float)
        far = nrm > self.radius
        out[far] = self._center + d[far] * (self.radius / nrm[far])[:, None]
        return out
