"""Local-randomizer building blocks.

Every protocol in this package reduces to a handful of primitives: a
private scalar average (each player reports her value plus Laplace noise
and the server takes the mean), a private vector average (each player
reports one uniformly chosen coordinate, scaled by the dimension), and a
one-bit randomizer in which players compare their value against a shared
public Laplace draw and send a single Bernoulli bit.

API sketch::

    budget = PrivacyBudget(epsilon=1.0)
    a = ldp_avg_1d(values, bound=1.0, budget=budget, rng=rng)

    pub = PublicRandomness(seed=7, scale=2.0, n=1000)
    bits, probs = onebit_encode_many(values, pub.materialize(), 0.5, rng)
    est = onebit_decode(bits, pub.materialize())
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ParameterError, SampleSizeWarning
from .rng import derived_rng, TAG_PUBLIC

BITS_PER_REAL = 64  # accounting convention for real-valued messages


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) local privacy budget.

    ``delta=0`` gives the pure regime. ``epsilon=math.inf`` is accepted and
    means "noise disabled"; it exists for zero-noise surrogate runs and is
    never a privacy claim.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise ParameterError(f"delta must lie in [0, 1), got {self.delta}")

    @property
    def noiseless(self) -> bool:
        return math.isinf(self.epsilon)

    def split(self, parts: int) -> "PrivacyBudget":
        """Budget for one of ``parts`` sequential releases (basic composition)."""
        if parts < 1:
            raise ParameterError("parts must be >= 1")
        return PrivacyBudget(self.epsilon / parts, self.delta / parts if self.delta else 0.0)


class PublicRandomness:
    """Shared Laplace draws, materialized lazily from a seed.

    The draws are never stored per player: ``materialize`` regenerates the
    full array bit-exactly from the seed each time, so holding one of these
    objects costs O(1) memory regardless of ``n``.
    """

    def __init__(self, seed: int, scale: float, n: int):
        if not scale > 0:
            raise ParameterError(f"scale must be positive, got {scale}")
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        self.seed = int(seed)
        self.scale = float(scale)
        self.n = int(n)

    def materialize(self) -> np.ndarray:
        rng = derived_rng(self.seed, TAG_PUBLIC)
        return rng.laplace(0.0, self.scale, self.n)


@dataclass
class Transcript:
    """Message accounting for one protocol run."""

    n_messages: int = 0
    total_bits: float = 0.0
    total_reals: float = 0.0

    def add_bulk(self, n: int, *, reals_per: float = 0.0,
                 protocol_bits_per: float = 0.0):
        """Count ``n`` messages, each of ``reals_per`` reals and
        ``protocol_bits_per`` further bits.

        Each real is charged BITS_PER_REAL bits here, so ``protocol_bits_per``
        holds only the bits that are not reals (a coordinate index, a
        one-bit report).
        """
        for name, value in (("n", n), ("reals_per", reals_per),
                            ("protocol_bits_per", protocol_bits_per)):
            if not (math.isfinite(value) and value >= 0):
                raise ParameterError(
                    f"{name} must be finite and >= 0, got {value}")
        if n != int(n):
            raise ParameterError(f"n must be a whole number, got {n}")
        self.n_messages += int(n)
        self.total_bits += float(n) * (protocol_bits_per
                                       + reals_per * BITS_PER_REAL)
        self.total_reals += float(n) * reals_per

    def bits_per_player(self) -> float:
        return self.total_bits / self.n_messages if self.n_messages else 0.0

    def reals_per_player(self) -> float:
        return self.total_reals / self.n_messages if self.n_messages else 0.0


def laplace_logpdf(z, loc: float, scale: float):
    """Log density of Laplace(loc, scale) at z. Used by likelihood-ratio checks."""
    z = np.asarray(z, dtype=float)
    return -np.abs(z - loc) / scale - np.log(2.0 * scale)


def _check_values(values: np.ndarray, bound: float):
    if not bound > 0:
        raise ParameterError(f"bound must be positive, got {bound}")
    if values.size and (values.min() < -1e-12 or values.max() > bound + 1e-12):
        raise ParameterError(
            f"values must lie in [0, {bound}]; saw range "
            f"[{values.min()}, {values.max()}]"
        )


def ldp_avg_1d(values, bound: float, budget: PrivacyBudget, rng: np.random.Generator,
               transcript: Transcript | None = None) -> float:
    """Private mean of scalars in [0, bound].

    Each player reports ``v_i + Lap(bound / epsilon)`` and the server
    averages the reports. With probability at least ``1 - beta`` the result
    is within ``2 * bound * sqrt(log(2/beta)) / (sqrt(n) * epsilon)`` of the
    true mean.

    Budget splitting is the caller's job: pass the per-invocation epsilon,
    not a total to be divided here.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ParameterError("values must be a non-empty 1-d array")
    _check_values(values, bound)
    n = values.size
    if budget.noiseless:
        reports = values
    else:
        reports = values + rng.laplace(0.0, bound / budget.epsilon, n)
    if transcript is not None:
        transcript.add_bulk(n, reals_per=1.0)
    return float(reports.mean())


def avg_error_bound(bound: float, n: int, epsilon: float, beta: float) -> float:
    """High-probability error bound for ``ldp_avg_1d`` at confidence 1 - beta."""
    return 2.0 * bound * math.sqrt(math.log(2.0 / beta)) / (math.sqrt(n) * epsilon)


def ldp_avg_vec(vectors, bound: float, budget: PrivacyBudget, rng: np.random.Generator,
                beta: float = 0.05, transcript: Transcript | None = None) -> np.ndarray:
    """Private coordinate-wise mean of vectors in [0, bound]^p at O(1) player cost.

    Each player draws one coordinate index uniformly, privatizes that single
    entry with the full epsilon, and the server rescales by ``p``:
    ``a_j = (p / n) * sum_{i : j_i = j} (v_{i,j} + Lap(bound / epsilon))``.
    The estimate of every coordinate is unbiased; the max-coordinate error is
    O(bound * p * sqrt(log(p / beta)) / (sqrt(n) * epsilon)).

    Emits a SampleSizeWarning when ``n`` is below the accuracy thresholds
    ``n >= 8 p log(8 p / beta)`` or ``sqrt(n) >= (12 / epsilon) sqrt(log(32 / beta))``.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.size == 0:
        raise ParameterError("vectors must be a non-empty (n, p) array")
    _check_values(vectors.reshape(-1), bound)
    n, p = vectors.shape
    if n < 8 * p * math.log(8 * p / beta):
        warnings.warn(
            f"n={n} is below the vector-averaging threshold "
            f"8*p*log(8p/beta)={8 * p * math.log(8 * p / beta):.0f}; "
            "the error guarantee does not apply",
            SampleSizeWarning,
        )
    if not budget.noiseless and math.sqrt(n) < (12.0 / budget.epsilon) * math.sqrt(math.log(32.0 / beta)):
        warnings.warn(
            f"sqrt(n)={math.sqrt(n):.1f} is below (12/eps)*sqrt(log(32/beta)); "
            "the error guarantee does not apply",
            SampleSizeWarning,
        )
    coords = rng.integers(0, p, size=n)
    picked = vectors[np.arange(n), coords]
    if not budget.noiseless:
        picked = picked + rng.laplace(0.0, bound / budget.epsilon, n)
    if transcript is not None:
        # one coordinate index plus one real per player
        transcript.add_bulk(n, reals_per=1.0,
                             protocol_bits_per=math.ceil(math.log2(max(p, 2))))
    sums = np.bincount(coords, weights=picked, minlength=p)
    return sums * (p / n)


# --- one-bit protocol -------------------------------------------------------

_EPS_MAX = math.log(2.0)


def _onebit_probs(values: np.ndarray, ys: np.ndarray, epsilon: float) -> np.ndarray:
    # acceptance probability: half the density ratio between the player's
    # shifted Laplace and the public (unshifted) one, evaluated at y
    return 0.5 * np.exp(-epsilon * (np.abs(ys - values) - np.abs(ys)))


def check_onebit_epsilon(epsilon: float):
    """Reject an epsilon the one-bit encoder cannot honour."""
    if not 0 < epsilon <= _EPS_MAX + 1e-15:
        raise ParameterError(
            f"one-bit protocol requires 0 < eps <= ln 2, got {epsilon}")


def onebit_encode_many(values, ys, epsilon: float, rng: np.random.Generator,
                       transcript: Transcript | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Encode each player's value in [0, 1] as one bit against its public draw.

    Player i sends 1 with probability
    ``p_i = exp(-epsilon * (|y_i - v_i| - |y_i|)) / 2``, which lies in
    [exp(-epsilon)/2, exp(epsilon)/2] and so stays inside [0, 1] because
    epsilon <= ln 2. A single player is a one-element block. Returns the
    bits and the probabilities they were drawn with.
    """
    check_onebit_epsilon(epsilon)
    values = np.asarray(values, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if values.shape != ys.shape:
        raise ParameterError("values and public draws must align")
    _check_values(values, 1.0)
    probs = _onebit_probs(values, ys, epsilon)
    bits = (rng.random(values.shape) < probs).astype(np.int8)
    if transcript is not None:
        transcript.add_bulk(values.size, protocol_bits_per=1.0)
    return bits, probs


def onebit_decode(bits, ys) -> float:
    """Unbiased cell-mean estimate from one-bit messages.

    Keeping the public draw when the bit is 1 and zero otherwise has
    expectation v/2 conditioned on the player's value, so the decoder
    rescales the kept draws by 2: ``(2 / |I|) * sum_i y_i * bit_i``.
    """
    bits = np.asarray(bits)
    ys = np.asarray(ys, dtype=float)
    if bits.size == 0:
        raise EstimationError("cannot decode an empty cell")
    if bits.shape != ys.shape:
        raise ParameterError("bits and public draws must align")
    return float(2.0 * np.mean(ys * bits))
