"""The unit ball, the feasible set of the GLM solver and its baseline."""

import math

import numpy as np


def project_unit_ball(w: np.ndarray) -> np.ndarray:
    """Project a float point, or each float row of an (m, dim) array, onto
    the unit ball {v : ||v|| <= 1}.

    A point inside the ball comes back as ``w`` itself; rows come back in a
    new array. A point outside is scaled to norm 1 as 0.0 + w * (1 / ||w||),
    the 0.0 turning a -0.0 coordinate into +0.0.
    """
    if w.ndim == 1:
        nrm = math.sqrt(w @ w)  # what np.linalg.norm computes for a vector
        if nrm <= 1.0:
            return w
        return 0.0 + w * (1.0 / nrm)
    # a stack of 1 x dim @ dim x 1 products takes the same dot kernel
    # per row as the 1-d path, so every row is projected bit-identically
    nrm = np.sqrt(np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0])
    out = w.copy()
    far = nrm > 1.0
    out[far] = 0.0 + w[far] * (1.0 / nrm[far])[:, None]
    return out
