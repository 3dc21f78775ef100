"""Non-interactive private ERM for losses of an inner product.

Players Gaussian-noise many replicas of their record and send them once;
the server turns each message into an unbiased sample of a polynomial
surrogate gradient (a Bernstein form of the smoothed loss derivative
evaluated via products over fresh replicas) and feeds the samples to the
averaged dual-averaging solver of ``sigm``.

Two gradient paths exist: a dedicated hinge path whose coefficients come
from the smoothed hinge derivative, and a general path for any convex
1-Lipschitz scalar loss, which additionally draws kink locations from the
loss's subgradient mixture per replica.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .datasets import BallDataset
from .errors import ParameterError, ProtocolError
from .geometry import BallConstraint
from .polyapprox import (SmoothedPlus, SubgradientSampler,
                         bernstein_deriv_coeffs, hbeta_deriv, hinge_sampler,
                         kink_locations, sample_q_many)
from .primitives import PrivacyBudget, Transcript
from .sigm import _CHUNK, SigmSchedule, sigm_run

PILOT_PROBES = 8  # points at which the pilot noise estimate probes
PILOT_SAMPLES = 8  # gradient samples it draws at each point

# --- data and configuration ---------------------------------------------------


@dataclass(frozen=True)
class ReplicaMessage:
    """One player's message: a head replica plus d(d+1) body replicas."""

    head_x: np.ndarray
    head_y: float
    body_x: np.ndarray
    body_y: np.ndarray

    @property
    def body_count(self) -> int:
        return self.body_y.shape[0]


def replica_noise_stds(budget: PrivacyBudget, d: int) -> tuple:
    """(head, body) Gaussian stds making the whole message private.

    The two scales bake basic composition over the d(d+1)+1 replicas into
    the calibration: head std = sqrt(32 log(1.25/delta))/eps and body std =
    sqrt(8 log(1.25/delta)) d(d+1)/eps.
    """
    if budget.noiseless:
        return 0.0, 0.0
    if budget.delta <= 0.0:
        raise ParameterError(
            "replica encoding uses the Gaussian mechanism and needs delta > 0")
    log_term = math.log(1.25 / budget.delta)
    head = math.sqrt(32.0 * log_term) / budget.epsilon
    body = math.sqrt(8.0 * log_term) * d * (d + 1) / budget.epsilon
    return head, body


def glm_player_encode(record: tuple, budget: PrivacyBudget, d: int,
                      rng: np.random.Generator,
                      transcript: Optional[Transcript] = None) -> ReplicaMessage:
    """Encode one record (x, y) into d(d+1)+1 independently noised replicas.

    A one-row call of the population encoder, so it draws the same noise in
    the same order as player i of a population does.
    """
    if d < 1:
        raise ParameterError(f"degree d must be >= 1, got {d}")
    x, y = record
    x = np.asarray(x, dtype=float)
    head_x, head_y, body_x, body_y = _encode_population(
        x[None, :], np.array([float(y)]), budget, d, rng, transcript)
    return ReplicaMessage(head_x=head_x[0], head_y=float(head_y[0]),
                          body_x=body_x[0], body_y=body_y[0])


@dataclass(frozen=True)
class GradientOracleConfig:
    """Degree and coefficient data of one gradient path."""

    d: int
    coeffs: np.ndarray
    sampler: Optional[SubgradientSampler] = None
    # c_j C(d, j), the weight of product block j; derived from coeffs
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"degree d must be >= 1, got {self.d}")
        if len(self.coeffs) != self.d + 1:
            raise ParameterError(
                f"need d+1 = {self.d + 1} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "weights", np.asarray(
            self.coeffs, dtype=float) * _binom_row(self.d))

    @property
    def flavor(self) -> str:
        """The path's name: the general-linear one carries a kink sampler."""
        return "hinge" if self.sampler is None else "general-linear"

    @property
    def kinked(self) -> bool:
        """Whether a gradient sample draws kink locations."""
        return self.flavor == "general-linear" and not self.sampler.degenerate


def hinge_oracle_config(d: int, beta: float) -> GradientOracleConfig:
    """Coefficients c_j = (smoothed hinge)'(j/d) for the dedicated path."""
    coeffs = bernstein_deriv_coeffs(SmoothedPlus(beta).deriv, d)
    return GradientOracleConfig(d=d, coeffs=coeffs)


def general_linear_oracle_config(d: int, beta: float,
                                 sampler: SubgradientSampler) -> GradientOracleConfig:
    """Coefficients c_j = (smoothed step)'(j/d - 1/2) for the general path.

    The half-shift centers the smoothed indicator so that the product
    arguments u - s + 1/2 land on the Bernstein domain around the kink; it
    also makes the hinge-through-this-path collapse onto the dedicated
    hinge coefficients exactly (the smoothed step at v - 1/2 equals the
    smoothed hinge derivative at v plus one).
    """
    coeffs = bernstein_deriv_coeffs(
        lambda v: hbeta_deriv(beta, v - 0.5), d)
    return GradientOracleConfig(d=d, coeffs=coeffs, sampler=sampler)


# --- gradient samples ----------------------------------------------------------


@lru_cache(maxsize=32)
def _binom_row(d: int) -> np.ndarray:
    return np.array([math.comb(d, j) for j in range(d + 1)], dtype=float)


@lru_cache(maxsize=32)
def _fold(d: int) -> tuple:
    """(signs, offsets, halves) of the d(d+1) product arguments of a sample.

    Entry l of block j enters the rising product, as t, when l < j and the
    falling one, as 1 - t, otherwise. Folding the sign into the argument
    makes every factor offset + (sign * t): -0.0 + t is t and 1 + (-t) is
    1 - t, bit for bit, signed zeros included. ``halves`` is sign * 1/2.
    """
    rising = (np.arange(d)[None, :] < np.arange(d + 1)[:, None]).ravel()
    signs = np.where(rising, 1.0, -1.0)
    return signs, np.where(rising, -0.0, 1.0), 0.5 * signs


def _check_replicas(message: ReplicaMessage, d: int):
    expect = d * (d + 1)
    if message.body_count != expect:
        raise ProtocolError(
            f"message carries {message.body_count} body replicas, the "
            f"degree-{d} oracle needs exactly {expect}")


def _replica_products(signed_args: np.ndarray, weights: np.ndarray,
                      d: int) -> np.ndarray:
    """sum_j weights[j] * prod(first j of block j) * prod(1 - rest of block j).

    The last axis of ``signed_args`` holds the d(d+1) product arguments t of
    one sample times their ``_fold`` signs, block j being the slice
    [j*d, (j+1)*d); its first j entries enter the rising product and the
    remaining d-j the falling one, so every replica is consumed by exactly
    one factor. Leading axes index samples.
    """
    factors = _fold(d)[1] + signed_args
    blocks = factors.reshape(signed_args.shape[:-1] + (d + 1, d))
    return np.multiply.reduce(blocks, axis=-1) @ weights


def _gradient_scalars(margins: np.ndarray, kinks: Optional[np.ndarray],
                      cfg: GradientOracleConfig) -> np.ndarray:
    """The factor multiplying y_0 x_0 in each gradient sample.

    ``margins`` holds the body replicas' y_k <x_k, w> on its last axis and
    ``kinks`` the matching kink locations (None unless ``cfg.kinked``),
    both times the ``_fold`` signs: the product argument
    -((u - s) + 1/2) is (-u - (-s)) + (-1/2) exactly.
    """
    if cfg.flavor == "hinge":
        return _replica_products(margins, cfg.weights, cfg.d)
    sampler = cfg.sampler
    spread = sampler.upper - sampler.lower
    midpoint = 0.5 * (sampler.upper + sampler.lower)
    if sampler.degenerate:
        return np.full(margins.shape[:-1], midpoint)
    total = _replica_products(margins - kinks + _fold(cfg.d)[2], cfg.weights,
                              cfg.d)
    return spread * total + (midpoint - 0.5 * spread)


def _message_gradient(w: np.ndarray, message: ReplicaMessage,
                      kinks: Optional[np.ndarray],
                      cfg: GradientOracleConfig) -> np.ndarray:
    signs = _fold(cfg.d)[0]
    margins = (signs * message.body_y) * (message.body_x
                                          @ np.asarray(w, dtype=float))
    if kinks is not None:
        kinks = signs * kinks
    scalar = _gradient_scalars(margins, kinks, cfg)
    return scalar * (message.head_y * message.head_x)


def hinge_gradient_sample(w: np.ndarray, message: ReplicaMessage,
                          cfg: GradientOracleConfig,
                          rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """One gradient sample for the hinge surrogate; consumes no randomness.

    Because every replica carries independent noise and appears in exactly
    one product factor, the expectation over the noise of the returned
    vector is the Bernstein-form surrogate gradient P_d(y<w,x>) * y * x.
    """
    if cfg.flavor != "hinge":
        raise ParameterError("config is not for the hinge path")
    _check_replicas(message, cfg.d)
    return _message_gradient(w, message, None, cfg)


def general_linear_gradient_sample(w: np.ndarray, message: ReplicaMessage,
                                   cfg: GradientOracleConfig,
                                   rng: np.random.Generator) -> np.ndarray:
    """One gradient sample for an arbitrary convex 1-Lipschitz scalar loss.

    Draws one kink location per replica from the loss's subgradient
    mixture, forms shifted product arguments u_k - s_k + 1/2, and scales by
    the derivative range: G = [(f'(1)-f'(-1)) * sum_j c_j C(d,j) t_j r_j +
    (f'(1)+f'(-1))/2 - (f'(1)-f'(-1))/2] * y_0 * x_0. For an affine loss
    (degenerate mixture) the product term drops, no kinks are drawn, and the
    midpoint slope multiplies the head direction alone.
    """
    if cfg.flavor != "general-linear":
        raise ParameterError("config is not for the general-linear path")
    _check_replicas(message, cfg.d)
    kinks = (sample_q_many(cfg.sampler, message.body_count, rng)
             if cfg.kinked else None)
    return _message_gradient(w, message, kinks, cfg)


def _replay_draws(rng: np.random.Generator, n: int, count: int, m: int,
                  cfg: GradientOracleConfig) -> tuple:
    """Rows and kink locations of ``count`` server-side gradient samples.

    Draws in the order one sample at a time would: a row index from an
    ``integers`` call, then, for a kinked loss, m uniforms. Without kinks
    the rows are drawn in one batched call, which takes the same values
    from the generator in the same order as ``count`` scalar calls and
    leaves it in the same state. With kinks each row needs its own scalar
    call, or every row would be drawn ahead of the uniforms between them;
    the kink locations of all samples are then found in one bisection.
    """
    if not cfg.kinked:
        return rng.integers(n, size=count), None
    rows = np.empty(count, dtype=np.intp)
    lower, upper = cfg.sampler.lower, cfg.sampler.upper
    u = np.empty((count, m))
    for t in range(count):
        rows[t] = rng.integers(n)
        u[t] = rng.uniform(lower, upper, m)
    return rows, kink_locations(cfg.sampler, u)


def _draw_stream(rows: np.ndarray, kinks: Optional[np.ndarray]):
    """Yield (row as a Python int, kink row or None), one per sample.

    Rows are converted ``_CHUNK`` at a time, so no whole-run list is held.
    """
    for lo in range(0, len(rows), _CHUNK):
        block = rows[lo:lo + _CHUNK].tolist()
        yield from zip(block, itertools.repeat(None) if kinks is None
                       else kinks[lo:lo + _CHUNK])


# --- full protocol -------------------------------------------------------------


@dataclass(frozen=True)
class LossFlavor:
    """A scalar loss with the pieces both the oracle and reporting need.

    ``scalar_loss`` and ``scalar_subgrad`` act on the margin y<w,x> and
    must be vectorized; ``sampler`` is required for the general path only.
    """

    name: str
    scalar_loss: Callable
    scalar_subgrad: Callable
    sampler: Optional[SubgradientSampler] = None


def hinge_flavor() -> LossFlavor:
    return LossFlavor(
        name="hinge",
        scalar_loss=lambda t: np.maximum(0.0, 0.5 - np.asarray(t, dtype=float)),
        scalar_subgrad=lambda t: np.where(np.asarray(t, dtype=float) < 0.5,
                                          -1.0, 0.0),
    )


def hinge_via_general_flavor() -> LossFlavor:
    base = hinge_flavor()
    return LossFlavor(name="general-linear", scalar_loss=base.scalar_loss,
                      scalar_subgrad=base.scalar_subgrad,
                      sampler=hinge_sampler())


@dataclass(frozen=True)
class GlmRunReport:
    w_priv: np.ndarray
    err_empirical: float
    baseline_err: float
    excess: float
    d: int
    d_theory: int
    beta: float
    sigma: float
    iters: int
    flavor: str


def empirical_risk(data: BallDataset, flavor: LossFlavor,
                   w: np.ndarray) -> float:
    margins = data.labels * (data.features @ np.asarray(w, dtype=float))
    return float(np.mean(flavor.scalar_loss(margins)))


def _encode_population(features: np.ndarray, labels: np.ndarray,
                       budget: PrivacyBudget, d: int,
                       rng: np.random.Generator,
                       transcript: Optional[Transcript]) -> tuple:
    """Vectorized encoding of every player; one message each."""
    n, dim = features.shape
    m = d * (d + 1)
    head_std, body_std = replica_noise_stds(budget, d)
    if head_std == 0.0:
        head_x = features.copy()
        head_y = labels.copy()
        body_x = np.repeat(features[:, None, :], m, axis=1)
        body_y = np.repeat(labels[:, None], m, axis=1)
    else:
        head_x = features + rng.normal(0.0, head_std, (n, dim))
        head_y = labels + rng.normal(0.0, head_std, n)
        body_x = features[:, None, :] + rng.normal(0.0, body_std,
                                                   (n, m, dim))
        body_y = labels[:, None] + rng.normal(0.0, body_std, (n, m))
    if transcript is not None:
        transcript.add_bulk(n, reals_per=(m + 1) * (dim + 1))
    return head_x, head_y, body_x, body_y


def _pilot_sigma(gradients: Callable, replay: Callable, dim: int,
                 rng: np.random.Generator) -> float:
    """Crude gradient-noise scale: spread of samples at a few probe points."""
    worst = 0.0
    for _ in range(PILOT_PROBES):
        v = rng.standard_normal(dim)
        w = v / max(1.0, np.linalg.norm(v))
        grads = gradients(w, *replay(PILOT_SAMPLES))
        centered = grads - grads.mean(axis=0)
        worst = max(worst, float(np.sqrt(np.mean(np.sum(centered ** 2,
                                                        axis=1)))))
    return worst


def glm_erm_run(data: BallDataset, flavor: LossFlavor, target_alpha: float,
                budget: PrivacyBudget, rng: np.random.Generator,
                d_cap: int = 8, iters: Optional[int] = None,
                sigma_safety: float = 4.0,
                baseline_w: Optional[np.ndarray] = None,
                transcript: Optional[Transcript] = None) -> GlmRunReport:
    """Full protocol: encode every player once, then optimize.

    The smoothing level and degree follow the accuracy target (beta =
    alpha/4, d = 2/(beta^2 alpha)) except that d is capped — the
    theoretical degree explodes cubically in 1/alpha and the report carries
    both values. The solver runs for n steps (overridable) on uniformly
    resampled player messages; resampling is sound because messages are
    sent exactly once and reused only server-side. The gradient-noise scale
    fed to the schedule is a pilot estimate inflated by ``sigma_safety``;
    conservative scales cost a constant factor in rate but keep early
    iterates from wandering when the replica products are heavy-tailed.
    """
    if not 0.0 < target_alpha <= 1.0:
        raise ParameterError(
            f"target_alpha must lie in (0, 1], got {target_alpha}")
    beta = target_alpha / 4.0
    d_theory = max(1, math.ceil(2.0 / (beta ** 2 * target_alpha)))
    d = min(d_theory, d_cap)

    if flavor.name == "hinge":
        cfg = hinge_oracle_config(d, beta)
    else:
        if flavor.sampler is None:
            raise ParameterError("general-linear flavor needs a sampler")
        cfg = general_linear_oracle_config(d, beta, flavor.sampler)

    head_x, head_y, body_x, body_y = _encode_population(
        data.features, data.labels, budget, d, rng, transcript)

    # The server replays the frozen messages. Its randomness (rows and kink
    # locations) does not depend on the iterate, so it is drawn up front.
    # Labels and kinks carry the product signs (see _fold) from here on.
    n, dim, m = data.n, data.dim, d * (d + 1)
    head = head_y[:, None] * head_x
    signs = _fold(d)[0]
    body_y *= signs

    def gradients(w, rows, kinks):
        margins = body_y[rows] * (body_x[rows] @ w)
        return _gradient_scalars(margins, kinks, cfg)[..., None] * head[rows]

    def replay(count):
        rows, kinks = _replay_draws(rng, n, count, m, cfg)
        if kinks is not None:
            kinks *= signs
        return rows, kinks

    sigma_hat = _pilot_sigma(gradients, replay, dim, rng)
    sigma = sigma_safety * sigma_hat
    constraint = BallConstraint.origin(dim, 1.0)
    schedule = SigmSchedule(sigma=sigma, radius=1.0, smoothness=1.0 / beta)

    steps = iters if iters is not None else n
    draws = _draw_stream(*replay(steps))

    def oracle(w, _rng):
        row, kinks = next(draws)
        margins = body_y[row] * (body_x[row] @ w)
        return _gradient_scalars(margins, kinks, cfg) * head[row]

    w_priv = sigm_run(oracle, constraint, schedule, steps, rng)

    err = empirical_risk(data, flavor, w_priv)
    if baseline_w is None:
        from .baselines import glm_baseline
        baseline_w, _ = glm_baseline(data, flavor)
    base_err = empirical_risk(data, flavor, baseline_w)
    return GlmRunReport(
        w_priv=w_priv, err_empirical=err, baseline_err=base_err,
        excess=err - base_err, d=d, d_theory=d_theory, beta=beta,
        sigma=sigma, iters=steps, flavor=flavor.name)
