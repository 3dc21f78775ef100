"""Non-interactive private ERM for losses of an inner product.

Players Gaussian-noise many replicas of their record and send them once;
the server turns each message into an unbiased sample of a polynomial
surrogate gradient (a Bernstein form of the smoothed loss derivative
evaluated via products over fresh replicas) and feeds the averaged
dual-averaging solver of ``sigm`` one mini-batch mean of such samples per
step, taking only as many steps as the solver's bound can use (see
``solver_batches``). The steps walk one pass over a random permutation of
the messages, so no message is used twice before every one has been used
once.

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
from .errors import ConfigurationError, ParameterError, ProtocolError
from .geometry import project_unit_ball
from .polyapprox import (SmoothedPlus, SubgradientSampler,
                         bernstein_deriv_coeffs, hinge_sampler,
                         kink_locations, sample_q_many)
from .primitives import PrivacyBudget
from .sigm import SigmSchedule, sigm_run

PILOT_PROBES = 8  # points at which the pilot noise estimate probes
PILOT_SAMPLES = 8  # gradient samples it draws at each point
SIGMA_SAFETY = 4.0  # factor the pilot estimate is inflated by
# rows of a solver step's batch evaluated at once; a block gathers its
# rows' (m, dim) body replicas, so this bounds the server's scratch memory
BATCH_BLOCK = 1024

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
                      rng: np.random.Generator) -> ReplicaMessage:
    """Encode one record (x, y) into d(d+1)+1 independently noised replicas.

    A one-row call of the population encoder, so it draws the same noise in
    the same order as player i of a population does.
    """
    if d < 1:
        raise ParameterError(f"degree d must be >= 1, got {d}")
    x, y = record
    x = np.asarray(x, dtype=float)
    head_x, head_y, body_x, body_y = _encode_population(
        x[None, :], np.array([float(y)]), budget, d, rng)
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
    # the path's gradient-scalar kernel (see _scalar_kernel); derived
    scalars: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"degree d must be >= 1, got {self.d}")
        if len(self.coeffs) != self.d + 1:
            raise ParameterError(
                f"need d+1 = {self.d + 1} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "weights", np.asarray(
            self.coeffs, dtype=float) * _binom_row(self.d))
        object.__setattr__(self, "scalars", _scalar_kernel(self))

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
    """Coefficients c_j = (smoothed hinge)'(j/d) + 1 for the general path.

    That is a smoothed step rising from 0 to 1 around 1/2, so the product
    arguments u - s + 1/2 put the kink s at the step. Being the hinge
    path's coefficients plus one, they make the hinge through this path
    collapse onto the dedicated hinge path up to rounding.
    """
    coeffs = bernstein_deriv_coeffs(SmoothedPlus(beta).deriv, d) + 1.0
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


def _block_products(weights: np.ndarray, d: int) -> Callable:
    """The function sum_j weights[j] * prod(first j of block j) * prod(1 -
    rest of block j) of ``signed_args``.

    The last axis of ``signed_args`` holds the d(d+1) product arguments t of
    one sample times their ``_fold`` signs, block j being the slice
    [j*d, (j+1)*d); its first j entries enter the rising product and the
    remaining d-j the falling one, so every replica is consumed by exactly
    one factor. Leading axes index samples. The offsets and the block shape
    are bound once, outside the returned function.
    """
    offsets, shape = _fold(d)[1], (d + 1, d)
    reduce = np.multiply.reduce

    def products(signed_args):
        blocks = (offsets + signed_args).reshape(signed_args.shape[:-1] + shape)
        return reduce(blocks, axis=-1) @ weights
    return products


def _scalar_kernel(cfg: GradientOracleConfig) -> Callable:
    """kernel(margins, kinks) -> the factor multiplying y_0 x_0 per sample.

    ``margins`` holds the body replicas' y_k <x_k, w> on its last axis and
    ``kinks`` the matching kink locations (None unless ``cfg.kinked``),
    both times the ``_fold`` signs: the product argument
    -((u - s) + 1/2) is (-u - (-s)) + (-1/2) exactly. Built once per
    config, so a call looks up nothing on it: the folded offsets and
    halves, the weights and block shape, and for the general path the
    derivative spread f'(1) - f'(-1) and the affine shift are bound here.
    Every gradient sample, the server's, the pilot's and a message's, is
    one call of it.
    """
    products = _block_products(cfg.weights, cfg.d)
    if cfg.sampler is None:
        return lambda margins, kinks: products(margins)
    sampler = cfg.sampler
    spread = sampler.upper - sampler.lower
    midpoint = 0.5 * (sampler.upper + sampler.lower)
    if sampler.degenerate:
        return lambda margins, kinks: np.full(margins.shape[:-1], midpoint)
    halves, shift = _fold(cfg.d)[2], midpoint - 0.5 * spread
    return lambda margins, kinks: (
        spread * products(margins - kinks + halves) + shift)


def _message_gradient(w: np.ndarray, message: ReplicaMessage,
                      kinks: Optional[np.ndarray],
                      cfg: GradientOracleConfig) -> np.ndarray:
    signs = _fold(cfg.d)[0]
    margins = (signs * message.body_y) * (message.body_x
                                          @ np.asarray(w, dtype=float))
    if kinks is not None:
        kinks = signs * kinks
    scalar = cfg.scalars(margins, kinks)
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


def _kink_draws(rng: np.random.Generator, cfg: GradientOracleConfig,
                count: int) -> Optional[np.ndarray]:
    """Kink locations of ``count`` samples, one row of d(d+1) each, from one
    uniform call and one bisection, times the product signs (see _fold).
    None for a loss that draws no kinks."""
    if not cfg.kinked:
        return None
    sampler = cfg.sampler
    kinks = kink_locations(sampler, rng.uniform(
        sampler.lower, sampler.upper, (count, cfg.d * (cfg.d + 1))))
    kinks *= _fold(cfg.d)[0]
    return kinks


def _step_draws(rows: np.ndarray, kinks: Optional[np.ndarray], batch: int):
    """Iterator of each solver step's (rows, kinks or None).

    The draws are cut into runs of ``batch`` in draw order. With one draw a
    step, a step's rows are a single row index and its kinks one row of
    kink locations, as a per-message sample takes them.
    """
    if batch > 1:
        rows = rows.reshape(-1, batch)
        if kinks is not None:
            kinks = kinks.reshape(rows.shape + (-1,))
    return zip(rows, itertools.repeat(None) if kinks is None else kinks)


def _batch_mean(sample_scalars: Callable, head: np.ndarray, w: np.ndarray,
                rows: np.ndarray, kinks: Optional[np.ndarray]) -> np.ndarray:
    """Mean gradient sample over one step's draws.

    A draw's sample is its gradient scalar times its head row, so a block's
    sum is one product of the block's scalars with its head rows. Rows are
    taken ``BATCH_BLOCK`` at a time and the block sums added in order, so no
    gather of a whole batch's replicas is held.
    """
    total = None
    for lo in range(0, len(rows), BATCH_BLOCK):
        block = rows[lo:lo + BATCH_BLOCK]
        part = sample_scalars(w, block, None if kinks is None
                              else kinks[lo:lo + BATCH_BLOCK]) @ head[block]
        total = part if total is None else total + part
    return total / len(rows)


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
    """A private fit and its diagnostics. ``sigma`` is the gradient-noise
    scale of one message's sample; ``iters`` is the solver's step count K,
    each step averaging n // K messages (one when K >= n)."""

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
                       rng: np.random.Generator) -> tuple:
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
    return head_x, head_y, body_x, body_y


def _pilot_sigma(gradients: Callable, n: int, cfg: GradientOracleConfig,
                 dim: int, rng: np.random.Generator) -> float:
    """Crude gradient-noise scale: spread of samples at a few probe points.

    Each probe draws its point, then its messages' rows (with replacement),
    then their kink locations. It is NaN when a sample is, and infinite
    when a spread overflows."""
    spreads = []
    for _ in range(PILOT_PROBES):
        w = project_unit_ball(rng.standard_normal(dim))
        rows = rng.integers(n, size=PILOT_SAMPLES)
        grads = gradients(w, rows, _kink_draws(rng, cfg, PILOT_SAMPLES))
        centered = grads - grads.mean(axis=0)
        spreads.append(np.sqrt(np.mean(np.sum(centered ** 2, axis=1))))
    return float(np.max(spreads))


def glm_degree(target_alpha: float, d_cap: int) -> tuple:
    """(d, d_theory): the theory's degree d_theory = 2/(beta^2 alpha) at
    beta = alpha/4, rounded up and at least 1, and d, that degree capped at
    ``d_cap``."""
    if not 0.0 < target_alpha <= 1.0:
        raise ParameterError(
            f"target_alpha must lie in (0, 1], got {target_alpha}")
    beta = target_alpha / 4.0
    d_theory = max(1, math.ceil(2.0 / (beta ** 2 * target_alpha)))
    return min(d_theory, d_cap), d_theory


def solver_batches(n: int, sigma: float, smoothness: float,
                   iters: Optional[int] = None) -> tuple:
    """(K, B): the solver's step count and the messages each step averages.

    K is ``iters`` when given. Otherwise K = min(n, ceil(L R sqrt(n) /
    sigma)) at L = ``smoothness`` and R = 1, the unit ball's radius: after
    K steps that each average B messages the solver's bound is L R^2 / K +
    sigma R / sqrt(K B), and in one pass (K B = n) the second term is sigma
    R / sqrt(n) whatever K, so steps beyond L R sqrt(n) / sigma add work and
    no accuracy. sigma = 0 gives K = n. B = max(1, n // K), so K B <= n,
    except that an ``iters`` above n takes one message a step.
    """
    if iters is None:
        reach = smoothness * math.sqrt(n)
        # compared before dividing, which overflows at a subnormal sigma
        if sigma * n <= reach:
            iters = n
        else:
            iters = max(1, min(n, math.ceil(reach / sigma)))
    return iters, max(1, n // iters)


def glm_erm_run(data: BallDataset, flavor: LossFlavor, target_alpha: float,
                budget: PrivacyBudget, rng: np.random.Generator,
                d_cap: int = 8, iters: Optional[int] = None) -> GlmRunReport:
    """Full protocol: encode every player once, then optimize.

    The smoothing level and degree follow the accuracy target (beta =
    alpha/4, d = 2/(beta^2 alpha)) except that d is capped — the
    theoretical degree explodes cubically in 1/alpha and the report carries
    both values. The gradient-noise scale sigma of one message's sample
    is a pilot estimate inflated by ``SIGMA_SAFETY``; conservative scales
    cost a constant factor in rate but keep early iterates from wandering
    when the replica products are heavy-tailed.

    The solver takes K steps, each on the mean sample of B = max(1, n // K)
    messages, so its schedule sees the noise scale sigma / sqrt(B). K is
    ``iters`` when given, and otherwise min(n, ceil(L sqrt(n) / sigma)) at
    L = 1/beta (``solver_batches``): more steps than that leave the
    solver's bound where one pass puts it. The K B messages are the first
    K B of successive random permutations of the n messages, drawn in one
    pass when K B <= n, so no step sees a message an earlier step used; an
    ``iters`` above n walks ceil(iters / n) passes. Their kink locations
    are drawn after the rows, in one uniform call.
    """
    d, d_theory = glm_degree(target_alpha, d_cap)
    beta = target_alpha / 4.0

    if flavor.name == "hinge":
        cfg = hinge_oracle_config(d, beta)
    else:
        if flavor.sampler is None:
            raise ParameterError("general-linear flavor needs a sampler")
        cfg = general_linear_oracle_config(d, beta, flavor.sampler)

    head_x, head_y, body_x, body_y = _encode_population(
        data.features, data.labels, budget, d, rng)

    # The server's randomness (rows and kink locations) does not depend on
    # the iterate, so it is drawn up front. Labels and kinks carry the
    # product signs (see _fold) from here on.
    n, dim = data.n, data.dim
    head = head_y[:, None] * head_x
    body_y *= _fold(d)[0]
    scalars = cfg.scalars

    def sample_scalars(w, rows, kinks):
        return scalars(body_y[rows] * (body_x[rows] @ w), kinks)

    def gradients(w, rows, kinks):
        return sample_scalars(w, rows, kinks)[..., None] * head[rows]

    # products of d noised replicas grow like the noise std to the power d,
    # and at a high enough degree they or their squares overflow float64
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_hat = _pilot_sigma(gradients, n, cfg, dim, rng)
    if not math.isfinite(sigma_hat):
        raise ConfigurationError(
            f"degree d = {d} is too high at epsilon = {budget.epsilon}: the "
            f"products of d noised replicas overflow float64, so the "
            f"gradient-noise scale is not finite; lower d_cap (now {d_cap}) "
            f"or raise epsilon")
    sigma = SIGMA_SAFETY * sigma_hat
    smoothness = 1.0 / beta
    steps, batch = solver_batches(n, sigma, smoothness, iters)
    schedule = SigmSchedule(sigma=sigma / math.sqrt(batch),
                            smoothness=smoothness)
    # successive passes over random permutations, cut to the K B draws
    count = steps * batch
    rows = np.concatenate([rng.permutation(n) for _ in range(-(-count // n))])
    draws = _step_draws(rows[:count], _kink_draws(rng, cfg, count), batch)

    def oracle(w):
        rows, kinks = next(draws)
        if batch == 1:  # one message's own sample: no gather and no sum
            return sample_scalars(w, rows, kinks) * head[rows]
        return _batch_mean(sample_scalars, head, w, rows, kinks)

    w_priv = sigm_run(oracle, dim, schedule, steps)

    err = empirical_risk(data, flavor, w_priv)
    # looked up in ``baselines`` at each call, so a wrapper put there sees it
    from .baselines import glm_baseline
    baseline_w, _ = glm_baseline(data, flavor)
    base_err = empirical_risk(data, flavor, baseline_w)
    return GlmRunReport(
        w_priv=w_priv, err_empirical=err, baseline_err=base_err,
        excess=err - base_err, d=d, d_theory=d_theory, beta=beta,
        sigma=sigma, iters=steps, flavor=flavor.name)
