"""Player-record formats, the dataset families and files that give them, and
the vocabulary every config value (data key or mechanism param) is declared in.

Every family is deterministic given its seed and produces data already
satisfying the constraint-set contracts of its consumer (cube entries in
[0,1], ball norms <= 1, bits in {0,1}).
"""

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ParameterError
from .primitives import check_values
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
        check_values(rows, 1.0)
        return rows


class BoxDataset(RowDataset):
    """Rows in [-1, 1]^p, one player per row."""

    def _checked(self, rows):
        rows = rows.astype(float, copy=False)
        check_values(rows, 1.0, low=-1.0)
        return rows


MAX_BITS = 64  # the most bits one int64 pattern holds


def bit_weights(p: int) -> np.ndarray:
    """The int64 weights 2^j, j < p, that pack p bits into one pattern.

    Bit 63 packs as the sign bit; above 64 bits the shifts wrap to 0, so
    distinct records would share a pattern, and such a ``p`` is rejected.
    """
    if p > MAX_BITS:
        raise ParameterError(
            f"{p} bits do not fit in one int64 pattern; at most {MAX_BITS}")
    return 1 << np.arange(p, dtype=np.int64)


class BinaryDataset(RowDataset):
    """Rows of bits, one player per row."""

    def _checked(self, rows):
        if not ((rows == 0) | (rows == 1)).all():
            raise ParameterError("entries must be bits")
        return rows.astype(np.int64)

    @cached_property
    def patterns(self):
        """``(values, counts)``: the distinct rows packed as int64 patterns
        by ``bit_weights`` in ascending order, and how many rows share each.
        Rows with the same bits give the same pattern, and computing this
        once lets work that depends only on a row's bits be done once per
        distinct row."""
        return np.unique(self.rows @ bit_weights(self.dim),
                         return_counts=True)


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
        if not norms.max() <= 1.0 + 1e-9:
            raise ParameterError(
                f"feature norms must be <= 1, max is {norms.max():.6f}")
        if not (-1.0 - 1e-9 <= y.min() and y.max() <= 1.0 + 1e-9):
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

# --- config values: one declaration each, and the parsers they use ------------


@dataclass(frozen=True)
class Param:
    """One config value: its default, what it accepts in words, and a parser
    from a JSON value to what the value's consumer uses, which raises
    ``ValueError`` or ``TypeError`` on a value it does not accept."""

    default: object
    wanted: str
    parse: Callable

    def parsed(self, name: str, value):
        """``parse(value)``, or a ``ConfigurationError`` that names ``name``."""
        try:
            return self.parse(value)
        # float() of an int too large for a float overflows
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{name} must be {self.wanted}, got {value!r}") from None


def number(test):
    """A parser of a float passing ``test``; nan fails every test, and a
    numeric string counts, so ``--set params.epsilon=inf`` gives inf."""
    def parse(value) -> float:
        if isinstance(value, bool):
            raise TypeError(value)
        value = float(value)
        if not test(value):
            raise ValueError(value)
        return value
    return parse


def count(value, least: int = 1) -> int:
    """Parse an integer >= ``least``; an integral float such as 50.0 counts
    too."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if isinstance(value, float) and not value.is_integer() or value < least:
        raise ValueError(value)
    return int(value)


def numbers(test):
    """A parser of a non-empty list of floats, each passing ``test``."""
    each = number(test)

    def parse(value) -> list:
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(value)
        return [each(item) for item in value]
    return parse


def flag(value) -> bool:
    """Parse true or false."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def optional(parse):
    """A parser that takes None as itself and anything else to ``parse``."""
    return lambda value: None if value is None else parse(value)


# the data keys each family reads; ``n`` has no default and must be given
_SIZES = {"n": Param(None, "an integer >= 1", count),
          "dim": Param(1, "an integer >= 1", count)}
FAMILY_KEYS = {
    "uniform-cube": _SIZES,
    "gaussian-ball-clipped": {**_SIZES, "sigma": Param(
        0.5, "a finite number > 0",
        number(lambda sigma: math.isfinite(sigma) and sigma > 0.0))},
    "separable-two-class": {**_SIZES, "margin": Param(
        0.2, "a number in (0, 1)", number(lambda margin: 0.0 < margin < 1.0))},
    "bernoulli-bits": {**_SIZES, "q": Param(
        0.5, "a number in [0, 1]", number(lambda q: 0.0 <= q <= 1.0))},
}
# spec keys that describe generated data; a sweep over one varies the dataset
DATA_KEYS = tuple(dict.fromkeys(key for keys in FAMILY_KEYS.values()
                                for key in keys))


def spec_value(spec: dict, key: str):
    """A synthetic spec's parsed value of a data key, or its family's default."""
    param = FAMILY_KEYS[spec["family"]][key]
    return param.parsed(f"dataset {key!r}", spec.get(key, param.default))


def check_spec(spec: dict) -> type:
    """The record type a dataset spec gives, or ``ConfigurationError``.

    Checks all that can be checked without the data: the family, a file's
    ``path`` and ``kind`` (and that it sets none of ``DATA_KEYS``), and that
    a family's spec gives ``n``, sets only the data keys the family reads
    and gives each a value its ``FAMILY_KEYS`` entry parses.
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
    keys = FAMILY_KEYS[family]
    unused = [key for key in DATA_KEYS if key in spec and key not in keys]
    if unused:
        raise ConfigurationError(
            f"dataset family {family!r} reads only "
            f"{', '.join(map(repr, keys))}; it has no "
            f"{', '.join(map(repr, unused))} to set or sweep")
    if "n" not in spec:
        raise ConfigurationError("dataset spec is missing 'n'")
    for key in keys:
        spec_value(spec, key)
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

    Draws, in order: u from ``standard_normal(dim)``; one Gaussian zeta per
    pair from ``standard_normal((n // 2, dim))``; one length per pair from
    ``uniform(0, sqrt(1 - margin^2), n // 2)``; the n labels from ``choice``.
    Each zeta is projected off u and scaled to its length, giving the xi of
    rows 2i (+xi) and 2i + 1 (-xi). A zeta whose projection has norm at most
    1e-12, which is every one at dim 1, gives xi = 0, and so does the last
    row of an odd n.
    """
    if not 0.0 < margin < 1.0:
        raise ParameterError(f"margin must lie in (0, 1), got {margin}")
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    spread = math.sqrt(1.0 - margin ** 2)
    half = n // 2
    zeta = rng.standard_normal((half, dim))
    lengths = rng.uniform(0.0, spread, half)
    labels = rng.choice([-1.0, 1.0], size=n)
    zeta -= np.outer(zeta @ u, u)
    norms = np.linalg.norm(zeta, axis=1)
    scale = np.divide(lengths, norms, out=np.zeros(half),
                      where=norms > 1e-12)
    zeta *= scale[:, None]
    # only zeta is still needed once the n-row buffer is allocated
    del lengths, norms, scale
    xi = np.zeros((n, dim))
    xi[0:2 * half:2] = zeta
    np.negative(zeta, out=xi[1:2 * half:2])
    del zeta
    # labels * (margin u + xi), formed in xi's own buffer
    xi += margin * u
    xi *= labels[:, None]
    return BallDataset(features=xi, labels=labels)


DRAW_ROWS = 4096  # rows of bernoulli-bits uniforms drawn at once


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
    n, dim = spec_value(spec, "n"), spec_value(spec, "dim")
    rng = derived_rng(seed, TAG_DATASET)
    if family == "uniform-cube":
        return CubeDataset(rng.random((n, dim)))
    if family == "gaussian-ball-clipped":
        x = rng.normal(0.0, spec_value(spec, "sigma"), (n, dim))
        norms = np.linalg.norm(x, axis=1)
        x *= np.minimum(1.0, 1.0 / np.maximum(norms, 1e-300))[:, None]
        return BoxDataset(x)
    if family == "separable-two-class":
        return separable_two_class(n, dim, spec_value(spec, "margin"), rng)
    # the uniforms are drawn DRAW_ROWS rows at a time, the same stream as
    # one (n, dim) draw without its float64 temporary; _checked makes the
    # one int64 copy of the boolean rows
    q = spec_value(spec, "q")
    bits = np.empty((n, dim), dtype=bool)
    for lo in range(0, n, DRAW_ROWS):
        hi = min(lo + DRAW_ROWS, n)
        np.less(rng.random((hi - lo, dim)), q, out=bits[lo:hi])
    return BinaryDataset(bits)
