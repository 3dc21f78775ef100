"""Local-randomizer building blocks.

Besides the privacy budget and the message accounting every mechanism
uses, two local randomizers live here: a private scalar average (each
player reports her value plus Laplace noise and the server takes the
mean), and a one-bit randomizer in which players compare their value
against a shared public Laplace draw and send a single Bernoulli bit.
Every Laplace draw in the package comes from ``laplace_noise``.

API sketch::

    budget = PrivacyBudget(epsilon=1.0)
    a = ldp_avg_1d(values, bound=1.0, budget=budget, rng=rng)

    pub = PublicRandomness(seed=7, scale=2.0, n=1000)
    bits, probs = onebit_encode_many(values, pub.materialize(), 0.5, rng)
    est = onebit_decode(bits, pub.materialize())
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ParameterError
from .rng import derived_rng, TAG_PUBLIC

BITS_PER_REAL = 64  # accounting convention for real-valued messages
_NOISE_CHUNK = 1 << 15  # draws ``laplace_noise`` transforms at once


def laplace_noise(rng: np.random.Generator, scale: float, shape) -> np.ndarray:
    """Laplace(0, scale) draws of the given shape, in row-major order.

    The inverse CDF that ``rng.laplace`` applies one draw at a time, run on
    chunks of ``_NOISE_CHUNK`` uniforms: for U from ``rng.random``, the draw
    is ``scale * log(min((2 - U) - U, U + U))`` with the sign of ``2U - 1``.
    It takes the same uniforms, rejecting U = 0 as numpy does, so it leaves
    the generator in the same state as ``rng.laplace(0, scale, shape)``;
    the draws agree with it to a few ulp (numpy's vectorised ``log``
    against the C library's).
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    work = np.empty(min(flat.size, _NOISE_CHUNK))
    for lo in range(0, flat.size, _NOISE_CHUNK):
        u = flat[lo:lo + _NOISE_CHUNK]
        w = work[:u.size]
        rng.random(out=u)
        while not u.all():
            # log(0) would be an infinite report: keep the nonzero uniforms
            # in order and top up from the stream, as numpy's redraw does
            kept = u[u != 0.0]
            u[:kept.size] = kept
            rng.random(out=u[kept.size:])
        np.subtract(2.0, u, out=w)
        w -= u
        u += u
        np.minimum(w, u, out=w)
        np.log(w, out=w)
        w *= scale
        u -= 1.0
        np.copysign(w, u, out=u)
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
    full array bit-exactly from the seed each time through ``laplace_noise``,
    so holding one of these objects costs O(1) memory regardless of ``n``.
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
        return laplace_noise(rng, self.scale, self.n)


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

    The noise comes from ``laplace_noise`` and the values are added into
    it in place, which gives the same sums as ``values + noise``.

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
        reports = laplace_noise(rng, bound / budget.epsilon, n)
        reports += values
    if transcript is not None:
        transcript.add_bulk(n, reals_per=1.0)
    return float(reports.mean())


def avg_error_bound(bound: float, n: int, epsilon: float, beta: float) -> float:
    """High-probability error bound for ``ldp_avg_1d`` at confidence 1 - beta."""
    return 2.0 * bound * math.sqrt(math.log(2.0 / beta)) / (math.sqrt(n) * epsilon)


# --- one-bit protocol -------------------------------------------------------

_EPS_MAX = math.log(2.0)


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
