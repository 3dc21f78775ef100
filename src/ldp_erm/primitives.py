"""Local-randomizer building blocks.

Besides the privacy budget every mechanism uses, two local randomizers
live here: a private mean of bounded reals (each player reports their
values plus Laplace noise and the server averages the reports), and a
one-bit randomizer in which players compare their value against a shared
public Laplace draw and send a single Bernoulli bit.
Every Laplace draw in the package comes from ``laplace_sum``, and every
real-valued release is one ``ldp_avg_1d`` call.

Simulation contract: the privacy claim is about each player's report
``v_i + Lap(b)``. The server only ever uses the sum of the n reports, so
``ldp_avg_1d`` draws that sum's exact distribution, ``sum_i v_i`` plus
one ``laplace_sum`` of count n per entry, rather than n separate draws.
It takes what the server holds: the values' total, or an array of
per-entry totals, and their count. A one-player call (n = 1) is exactly
that player's report, so a check of what one player sends makes that
call.

API sketch::

    budget = PrivacyBudget(epsilon=1.0)
    check_values(values, 1.0)
    a = ldp_avg_1d(values.sum(), values.size, bound=1.0, budget=budget,
                   rng=rng)

    pub = PublicRandomness(seed=7, scale=2.0, n=1000)
    bits, probs = onebit_encode_many(values, pub.materialize(), 0.5, rng)
    est = onebit_decode(bits, pub.materialize())
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ParameterError
from .rng import derived_rng, TAG_PUBLIC

def laplace_sum(rng: np.random.Generator, scale: float, count: int,
                shape) -> np.ndarray:
    """Per entry of ``shape``, the sum of ``count`` iid Laplace(0, scale)
    draws, sampled exactly as ``scale * (G1 - G2)`` with G1, G2 ~
    Gamma(count, 1).

    A Laplace(b) draw is b times the difference of two unit exponentials,
    and a sum of ``count`` unit exponentials is Gamma(count, 1), so this is
    the exact distribution of the sum at a cost that does not grow with
    ``count``. At ``count = 1`` numpy draws Gamma(1, 1) as an exponential,
    so each entry is one Laplace draw. All first gammas are drawn before
    all second ones.
    """
    out = rng.standard_gamma(count, shape)
    out -= rng.standard_gamma(count, shape)
    out *= scale
    return out


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
    objects costs O(1) memory regardless of ``n``. Unlike the private means,
    the draws stay one per player (``laplace_sum`` at count 1), because
    each player's one-bit message depends on their own y_i.
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
        return laplace_sum(rng, self.scale, 1, self.n)


def check_values(values: np.ndarray, bound: float):
    """Reject values outside [0, bound] (up to 1e-12), NaN included."""
    if not bound > 0:
        raise ParameterError(f"bound must be positive, got {bound}")
    # written so that a NaN, which fails every comparison, fails the check
    if values.size and not (-1e-12 <= values.min()
                            and values.max() <= bound + 1e-12):
        raise ParameterError(
            f"values must lie in [0, {bound}]; saw range "
            f"[{values.min()}, {values.max()}]"
        )


def ldp_avg_1d(total, n: int, bound: float, budget: PrivacyBudget,
               rng: np.random.Generator, low: float = 0.0):
    """Private mean of n values in [low, bound], from their total; or, for
    an array of totals, one private mean per entry.

    Each player reports ``v_i + Lap((bound - low) / epsilon)`` per entry
    and the server averages the reports. With probability at least
    ``1 - beta`` an entry is within
    ``2 * (bound - low) * sqrt(log(2/beta)) / (sqrt(n) * epsilon)`` of its
    true mean.

    The server sees only the sums of the reports, so the simulator draws
    those sums exactly: the values' totals plus one ``laplace_sum`` of
    count n over all entries together. With n = 1 this is exactly that
    player's report. Every total must lie in [n * low, n * bound], up to
    1e-9 per value; a caller that holds the values checks each of them
    itself (``check_values``). A scalar total gives a float, an array of
    totals an array of the same shape.

    Budget splitting is the caller's job: pass the per-entry epsilon, not a
    total to be divided here.
    """
    if not low < bound:
        raise ParameterError(f"need low < bound, got [{low}, {bound}]")
    if not n >= 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    totals = np.asarray(total, dtype=float)
    # written so that a NaN, which fails every comparison, fails the check
    inside = ((low - 1e-9) * n <= totals) & (totals <= (bound + 1e-9) * n)
    if not inside.all():
        raise ParameterError(
            f"values must lie in [{low}, {bound}]; a total of {n} of them is "
            f"{totals[~inside].flat[0]}, outside [{n * low}, {n * bound}]")
    if not budget.noiseless:
        totals = totals + laplace_sum(rng, (bound - low) / budget.epsilon, n,
                                      totals.shape)
    means = totals / n
    return float(means) if means.ndim == 0 else means


def avg_error_bound(bound: float, n: int, epsilon: float, beta: float) -> float:
    """High-probability error bound for ``ldp_avg_1d`` at confidence 1 - beta."""
    return 2.0 * bound * math.sqrt(math.log(2.0 / beta)) / (math.sqrt(n) * epsilon)


# --- one-bit protocol -------------------------------------------------------

_EPS_MAX = math.log(2.0)
ENCODE_BLOCK = 1 << 13  # players per block of the one-bit encoder


def _onebit_probs(values: np.ndarray, ys: np.ndarray, epsilon: float) -> np.ndarray:
    # acceptance probability: half the density ratio between the player's
    # shifted Laplace and the public (unshifted) one, evaluated at y
    return 0.5 * np.exp(-epsilon * (np.abs(ys - values) - np.abs(ys)))


def check_onebit_epsilon(epsilon: float) -> float:
    """The epsilon, or ``ParameterError`` if the one-bit encoder cannot
    honour it."""
    if not 0 < epsilon <= _EPS_MAX + 1e-15:
        raise ParameterError(
            f"one-bit protocol requires 0 < eps <= ln 2, got {epsilon}")
    return epsilon


def onebit_encode_many(values, ys, epsilon: float,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Encode each player's value in [0, 1] as one bit against its public draw.

    Player i sends 1 with probability
    ``p_i = exp(-epsilon * (|y_i - v_i| - |y_i|)) / 2``, which lies in
    [exp(-epsilon)/2, exp(epsilon)/2] and so stays inside [0, 1] because
    epsilon <= ln 2. A single player is a one-element block. Returns the
    bits and the probabilities they were drawn with.

    Players are encoded ``ENCODE_BLOCK`` at a time, in order, so the
    temporaries do not grow with the number of players. The uniforms of
    consecutive blocks are consecutive draws of one stream, so the bits do
    not depend on the block size.
    """
    check_onebit_epsilon(epsilon)
    values = np.asarray(values, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if values.shape != ys.shape:
        raise ParameterError("values and public draws must align")
    check_values(values, 1.0)
    probs = np.empty(values.shape)
    bits = np.empty(values.shape, dtype=np.int8)
    flat = [a.reshape(-1) for a in (values, ys, probs, bits)]
    for lo in range(0, values.size, ENCODE_BLOCK):
        v, y, p, b = (a[lo:lo + ENCODE_BLOCK] for a in flat)
        p[:] = _onebit_probs(v, y, epsilon)
        np.less(rng.random(p.size), p, out=b)
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
