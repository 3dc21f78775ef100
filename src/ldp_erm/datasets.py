"""Player-record formats, and the dataset families and files that give them.

Every family is deterministic given its seed and produces data already
satisfying the constraint-set contracts of its consumer (cube entries in
[0,1], ball norms <= 1, bits in {0,1}).
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError
from .rng import TAG_DATASET, derived_rng

# --- record formats -------------------------------------------------------------


@dataclass(frozen=True)
class RowDataset:
    """Player records as the rows of a non-empty (n, dim) array.

    A subclass's ``_checked`` validates the rows and returns them converted.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ParameterError(
                f"dataset must be a non-empty 2-d array, got shape {rows.shape}")
        object.__setattr__(self, "rows", self._checked(rows))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


class CubeDataset(RowDataset):
    """Rows with entries in [0, 1], one player per row."""

    def _checked(self, rows):
        rows = rows.astype(float, copy=False)
        if rows.min() < -1e-12 or rows.max() > 1.0 + 1e-12:
            raise ParameterError("dataset entries must lie in [0, 1]")
        return rows


class BoxDataset(RowDataset):
    """Rows in [-1, 1]^p, one player per row."""

    def _checked(self, rows):
        rows = rows.astype(float, copy=False)
        if np.abs(rows).max() > 1.0 + 1e-12:
            raise ParameterError("entries must lie in [-1, 1]")
        return rows


class BinaryDataset(RowDataset):
    """Rows of bits, one player per row."""

    def _checked(self, rows):
        if not np.isin(rows, (0, 1)).all():
            raise ParameterError("entries must be bits")
        return rows.astype(np.int64)


@dataclass(frozen=True)
class BallDataset:
    """Labelled records with ||x_i|| <= 1 and |y_i| <= 1."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ParameterError(
                f"features must be a non-empty 2-d array, got {x.shape}")
        if y.shape != (x.shape[0],):
            raise ParameterError(
                f"labels shape {y.shape} does not match {x.shape[0]} rows")
        norms = np.linalg.norm(x, axis=1)
        if norms.max() > 1.0 + 1e-9:
            raise ParameterError(
                f"feature norms must be <= 1, max is {norms.max():.6f}")
        if np.abs(y).max() > 1.0 + 1e-9:
            raise ParameterError("labels must lie in [-1, 1]")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


# the record format each generated family and each file kind gives
FAMILIES = {
    "uniform-cube": CubeDataset,
    "gaussian-ball-clipped": BoxDataset,
    "separable-two-class": BallDataset,
    "bernoulli-bits": BinaryDataset,
}
KINDS = {"cube": CubeDataset, "box": BoxDataset, "binary": BinaryDataset,
         "ball": BallDataset}

# spec keys that describe generated data; a sweep over one varies the dataset
DATA_KEYS = ("n", "dim", "margin", "q", "sigma")
# the data keys each family reads
FAMILY_KEYS = {
    "uniform-cube": ("n", "dim"),
    "gaussian-ball-clipped": ("n", "dim", "sigma"),
    "separable-two-class": ("n", "dim", "margin"),
    "bernoulli-bits": ("n", "dim", "q"),
}


def is_integral(value) -> bool:
    return not isinstance(value, bool) and (
        isinstance(value, int)
        or isinstance(value, float) and value.is_integer())


def check_range(name: str, value, test, wanted: str):
    """Reject a value that is not a number passing ``test``."""
    # consumers take float(value), so a string such as "inf" is a number
    try:
        ok = not isinstance(value, bool) and test(float(value))
    except (TypeError, ValueError):
        ok = False
    if not ok:  # also catches nan, which fails every comparison
        raise ConfigurationError(f"{name} must be {wanted}, got {value!r}")


def check_spec(spec: dict) -> type:
    """The record type a dataset spec gives, or ``ConfigurationError``.

    Checks all that can be checked without the data: the family, a file's
    ``path`` and ``kind`` (and that it sets none of ``DATA_KEYS``), that a
    family's spec sets only the data keys the family reads, the sizes ``n``
    and ``dim``, a bit probability ``q``, a separation ``margin`` and a
    Gaussian scale ``sigma``.
    """
    family = spec.get("family")
    if family == "file":
        unused = [key for key in DATA_KEYS if key in spec]
        if unused:
            raise ConfigurationError(
                f"a file dataset takes its records from the file; it has no "
                f"{', '.join(map(repr, unused))} to set or sweep")
        path = spec.get("path")
        if not isinstance(path, str) or not os.path.isfile(path):
            raise ConfigurationError(
                f"file dataset spec needs a 'path' to a file, got {path!r}")
        kind = spec.get("kind", "cube")
        if not isinstance(kind, str) or kind not in KINDS:
            raise ConfigurationError(
                f"unknown dataset kind {kind!r}; known: {', '.join(KINDS)}")
        return KINDS[kind]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigurationError(
            f"unknown dataset family {family!r}; known: "
            f"{', '.join(FAMILIES)}, file")
    unused = [key for key in DATA_KEYS
              if key in spec and key not in FAMILY_KEYS[family]]
    if unused:
        raise ConfigurationError(
            f"dataset family {family!r} reads only "
            f"{', '.join(map(repr, FAMILY_KEYS[family]))}; it has no "
            f"{', '.join(map(repr, unused))} to set or sweep")
    if "n" not in spec:
        raise ConfigurationError("dataset spec is missing 'n'")
    for key in ("n", "dim"):
        value = spec.get(key, 1)
        if not (is_integral(value) and value >= 1):
            raise ConfigurationError(
                f"dataset {key!r} must be an integer >= 1, got {value!r}")
    if family == "bernoulli-bits":
        check_range("bit probability 'q'", spec.get("q", 0.5),
                    lambda q: 0.0 <= q <= 1.0, "a number in [0, 1]")
    if family == "separable-two-class":
        check_range("separation 'margin'", spec.get("margin", 0.2),
                    lambda margin: 0.0 < margin < 1.0, "a number in (0, 1)")
    if family == "gaussian-ball-clipped":
        check_range("Gaussian scale 'sigma'", spec.get("sigma", 0.5),
                    lambda sigma: math.isfinite(sigma) and sigma > 0.0,
                    "a finite number > 0")
    return FAMILIES[family]


# --- families -------------------------------------------------------------------


def separable_two_class(n: int, dim: int, margin: float,
                        rng: np.random.Generator) -> BallDataset:
    """Labelled points y(m*u + xi) with xi orthogonal to u and +-xi paired.

    Every point satisfies y<u, x> = margin, so a margin-m separator exists
    by construction. The pairing of xi with -xi makes the empirical hinge
    optimum exactly max(0, 1/2 - margin), attained at u: by convexity the
    loss averaged over a pair is at least the loss at the pair's mean
    argument, which the ball constraint keeps at or above 1/2 - margin.
    """
    if not 0.0 < margin < 1.0:
        raise ParameterError(f"margin must lie in (0, 1), got {margin}")
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    spread = math.sqrt(1.0 - margin ** 2)
    xi = np.zeros((n, dim))
    for pair in range(n // 2):
        zeta = rng.standard_normal(dim)
        zeta -= (zeta @ u) * u
        nrm = np.linalg.norm(zeta)
        if nrm > 1e-12:
            zeta *= rng.uniform(0.0, spread) / nrm
        else:
            zeta[:] = 0.0
        xi[2 * pair] = zeta
        xi[2 * pair + 1] = -zeta
    labels = rng.choice([-1.0, 1.0], size=n)
    features = labels[:, None] * (margin * u[None, :] + xi)
    return BallDataset(features=features, labels=labels)


def generate_dataset(spec: dict, seed: int):
    """Build the dataset a spec names; a spec ``check_spec`` rejects raises."""
    record = check_spec(spec)
    family = spec["family"]
    if family == "file":
        # the record type checks the raw values, so a non-bit in a binary
        # file is rejected rather than truncated
        rows = np.loadtxt(spec["path"], delimiter=",", ndmin=2)
        if record is not BallDataset:
            return record(rows)
        if rows.shape[1] < 2:
            raise ConfigurationError(
                "ball dataset files need feature columns plus a label column")
        return BallDataset(features=rows[:, :-1], labels=rows[:, -1])
    n, dim = int(spec["n"]), int(spec.get("dim", 1))
    rng = derived_rng(seed, TAG_DATASET)
    if family == "uniform-cube":
        return CubeDataset(rng.random((n, dim)))
    if family == "gaussian-ball-clipped":
        sigma = float(spec.get("sigma", 0.5))
        x = rng.normal(0.0, sigma, (n, dim))
        norms = np.linalg.norm(x, axis=1)
        x *= np.minimum(1.0, 1.0 / np.maximum(norms, 1e-300))[:, None]
        return BoxDataset(x)
    if family == "separable-two-class":
        margin = float(spec.get("margin", 0.2))
        return separable_two_class(n, dim, margin, rng)
    q = float(spec.get("q", 0.5))
    return BinaryDataset((rng.random((n, dim)) < q).astype(np.int64))
