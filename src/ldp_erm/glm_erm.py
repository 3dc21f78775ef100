"""Non-interactive private ERM for losses of an inner product.

Players Gaussian-noise many replicas of their record and send them once;
the server turns each message into an unbiased sample of a polynomial
surrogate gradient (a Bernstein form of the smoothed loss derivative
evaluated via products over fresh replicas) and feeds the averaged
dual-averaging solver of ``sigm`` one mini-batch mean of such samples per
step, taking only as many steps as the solver's bound can use (see
``solver_batches``, at the closed-form ``noise_scale``). The steps walk one
pass over a random permutation of the messages, so no message is used twice
before every one has been used once.

Every loss runs one gradient path and one coefficient rule. A loss is its
name, its value f and its derivative f' (``LossFlavor``), and its Bernstein
coefficients are the smoothed step averaged over the kink-location measure
of f' (``general_linear_oracle_config``); the hinge is the point-mass case.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .datasets import BallDataset
from .errors import ConfigurationError, ParameterError, ProtocolError
# sample_q_many is unused here: perfbench/spans.py wraps glm_erm.sample_q_many
from .polyapprox import (SmoothedPlus, SubgradientSampler, hinge_sampler,
                         kink_locations, sample_q_many)
from .primitives import PrivacyBudget
from .sigm import SigmSchedule, sigm_run

# the (y, <x, w>) points, corners included, the noise scale is maximised over
NOISE_GRID = (np.linspace(0.0, 1.0, 21)[:, None], np.linspace(-1.0, 1.0, 41))
KINK_POINTS = 512  # midpoint-rule points of the kink-location average
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


@dataclass(frozen=True, eq=False)
class GradientOracleConfig:
    """Degree and Bernstein coefficients of a loss's gradient samples.

    ``coeffs`` is kept as a read-only float copy, and ``weights`` is
    read-only too, so a config ``glm_oracle`` hands to several callers
    cannot be changed under them. Configs compare and hash by identity:
    their fields are arrays.
    """

    d: int
    coeffs: np.ndarray
    # c_j C(d, j), the weight of product block j; derived from coeffs
    weights: np.ndarray = field(init=False, repr=False)
    # the gradient-scalar kernel (see _block_products); derived
    scalars: Callable = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"degree d must be >= 1, got {self.d}")
        if len(self.coeffs) != self.d + 1:
            raise ParameterError(
                f"need d+1 = {self.d + 1} coefficients, got {len(self.coeffs)}")
        coeffs = np.array(self.coeffs, dtype=float)
        weights = coeffs * _binom_row(self.d)
        coeffs.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "scalars",
                           _block_products(self.weights, self.d))


def general_linear_oracle_config(d: int, beta: float,
                                 sampler: SubgradientSampler) -> GradientOracleConfig:
    """Coefficients c_j = f'(-1) + (f'(1) - f'(-1)) E_s[step(j/d - s + 1/2)]
    for a convex 1-Lipschitz loss with derivative f' on [-1, 1].

    step is the smoothed hinge derivative plus one, a smoothed step rising
    from 0 to 1 around 1/2, and s is the loss's kink location: s =
    ``kink_locations(sampler, u)`` with u uniform on [f'(-1), f'(1)], so
    f' is f'(-1) plus the spread times the s-average of the unit step at s.
    The expectation is the ``KINK_POINTS`` midpoint rule over u.

    The paper's construction draws one kink per replica and shifts that
    replica's product argument by it. Averaging the kink into the
    coefficients instead is a Rao-Blackwell step on that draw: no sample
    draws a kink, and the sample is unbiased for B_d[c](y<x, w>) y x, the
    kink-average of the Bernstein forms of the shifted steps. For the
    hinge's point mass at 1/2 these are the smoothed hinge derivative at
    j/d up to rounding, and for an affine loss the constant slope.
    """
    spread = sampler.upper - sampler.lower
    kinks = kink_locations(sampler, sampler.lower + spread * (
        np.arange(KINK_POINTS) + 0.5) / KINK_POINTS)
    steps = SmoothedPlus(beta).deriv(
        np.arange(d + 1)[:, None] / d - kinks + 0.5) + 1.0
    coeffs = sampler.lower + spread * steps.mean(axis=1)
    return GradientOracleConfig(d=d, coeffs=coeffs)


# --- gradient samples ----------------------------------------------------------


@lru_cache(maxsize=32)
def _binom_row(d: int) -> np.ndarray:
    return np.array([math.comb(d, j) for j in range(d + 1)], dtype=float)


@lru_cache(maxsize=32)
def _fold(d: int) -> tuple:
    """(signs, offsets) of the d(d+1) product arguments of a sample.

    Entry l of block j enters the rising product, as t, when l < j and the
    falling one, as 1 - t, otherwise. Folding the sign into the argument
    makes every factor offset + (sign * t): -0.0 + t is t and 1 + (-t) is
    1 - t, bit for bit, signed zeros included.
    """
    rising = (np.arange(d)[None, :] < np.arange(d + 1)[:, None]).ravel()
    return np.where(rising, 1.0, -1.0), np.where(rising, -0.0, 1.0)


def _check_replicas(message: ReplicaMessage, d: int):
    expect = d * (d + 1)
    if message.body_count != expect:
        raise ProtocolError(
            f"message carries {message.body_count} body replicas, the "
            f"degree-{d} oracle needs exactly {expect}")


def _block_products(weights: np.ndarray, d: int) -> Callable:
    """The function sum_j weights[j] * prod(first j of block j) * prod(1 -
    rest of block j) of ``signed_args``: the factor multiplying y_0 x_0 in
    a gradient sample.

    The last axis of ``signed_args`` holds the d(d+1) product arguments t =
    y_k <x_k, w> of one sample's body replicas times their ``_fold`` signs,
    block j being the slice [j*d, (j+1)*d); its first j entries enter the
    rising product and the remaining d-j the falling one, so every replica
    is consumed by exactly one factor. Leading axes index samples. The
    offsets and the block shape are bound once, outside the returned
    function, so every gradient sample, the server's and a message's, is
    one call of it.
    """
    offsets, shape = _fold(d)[1], (d + 1, d)
    reduce = np.multiply.reduce

    def products(signed_args):
        blocks = (offsets + signed_args).reshape(signed_args.shape[:-1] + shape)
        return reduce(blocks, axis=-1) @ weights
    return products


def hinge_gradient_sample(w: np.ndarray, message: ReplicaMessage,
                          cfg: GradientOracleConfig) -> np.ndarray:
    """One gradient sample of any loss's config; consumes no randomness.

    Because every replica carries independent noise and appears in exactly
    one product factor, the expectation over the noise of the returned
    vector is the Bernstein-form surrogate gradient B_d[c](y<w,x>) * y * x.
    """
    _check_replicas(message, cfg.d)
    margins = (_fold(cfg.d)[0] * message.body_y) * (
        message.body_x @ np.asarray(w, dtype=float))
    return cfg.scalars(margins) * (message.head_y * message.head_x)


# every loss's sample; the second name stays for perfbench/spans.py's binding
general_linear_gradient_sample = hinge_gradient_sample


def _batch_mean(sample_scalars: Callable, head: np.ndarray, w: np.ndarray,
                rows: np.ndarray) -> np.ndarray:
    """Mean gradient sample over one step's draws.

    A draw's sample is its gradient scalar times its head row, so a block's
    sum is one product of the block's scalars with its head rows. Rows are
    taken ``BATCH_BLOCK`` at a time and the block sums added in order, so no
    gather of a whole batch's replicas is held.
    """
    total = None
    for lo in range(0, len(rows), BATCH_BLOCK):
        block = rows[lo:lo + BATCH_BLOCK]
        part = sample_scalars(w, block) @ head[block]
        total = part if total is None else total + part
    return total / len(rows)


# --- noise scale -------------------------------------------------------------


def _gradient_variance(cfg: GradientOracleConfig, budget: PrivacyBudget,
                       dim: int, y, v) -> np.ndarray:
    """Var G of one message's sample G = s head_y head_x, elementwise in the
    record's label y and v = <x, w>, at ||x|| = ||w|| = 1.

    A body argument t = y_k <x_k, w> has E t = y v and E t^2 = (y^2 + b^2)
    (v^2 + b^2) at body std b. Each replica enters one factor of one block,
    so E s sums products of first moments, and E s^2 those of second
    moments plus the cross-block terms (E s)^2 - sum_j (weight_j mean_j)^2.
    At head std h, Var G = E s^2 (y^2 + h^2)(1 + dim h^2) - (E s)^2 y^2."""
    head_std, body_std = replica_noise_stds(budget, cfg.d)
    y, v = np.asarray(y, dtype=float), np.asarray(v, dtype=float)
    first = (y * v)[..., None]
    second = ((y * y + body_std ** 2) * (v * v + body_std ** 2))[..., None]
    j = np.arange(cfg.d + 1)
    means = first ** j * (1.0 - first) ** (cfg.d - j)
    squares = second ** j * (1.0 - 2.0 * first + second) ** (cfg.d - j)
    mean = means @ cfg.weights
    square = (squares - means * means) @ cfg.weights ** 2 + mean * mean
    return (square * (y * y + head_std ** 2) * (1.0 + dim * head_std ** 2)
            - mean * mean * y * y)


def noise_scale(cfg: GradientOracleConfig, budget: PrivacyBudget,
                dim: int) -> float:
    """sigma: the largest std of one message's gradient sample about its
    record's surrogate gradient over |y|, ||x||, ||w|| <= 1, from the public
    replica stds alone. The variance grows with ||x||, and (-y, -v) has the
    moments of (y, v), so it is maximised at ||x|| = 1 over ``NOISE_GRID``.
    0 for a noiseless budget; inf or NaN when the moments overflow."""
    if budget.noiseless:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        top = float(np.max(_gradient_variance(cfg, budget, dim, *NOISE_GRID)))
    # NaN is checked before the clamp, as max(0.0, nan) is 0.0
    return top if math.isnan(top) else math.sqrt(max(top, 0.0))


# --- full protocol -------------------------------------------------------------


@dataclass(frozen=True)
class LossFlavor:
    """A scalar loss f with the pieces both the oracle and reporting need.

    ``scalar_loss`` is f, acting on the margin y<w,x>, and must be
    vectorized; ``sampler`` holds its derivative f' (``sampler.f_prime``,
    vectorized too), whose kink-location measure sets the loss's
    coefficients (see ``glm_oracle``) and which the non-private baseline
    steps along.
    """

    name: str
    scalar_loss: Callable
    sampler: SubgradientSampler


def _hinge_loss(t):
    return np.maximum(0.0, 0.5 - np.asarray(t, dtype=float))


# The flavors are built from module-level functions, so equal calls give
# equal, equally hashed flavors, and ``glm_oracle``'s memo finds them.
def hinge_flavor() -> LossFlavor:
    return LossFlavor(name="hinge", scalar_loss=_hinge_loss,
                      sampler=hinge_sampler())


def hinge_via_general_flavor() -> LossFlavor:
    return LossFlavor(name="general-linear", scalar_loss=_hinge_loss,
                      sampler=hinge_sampler())


@dataclass(frozen=True)
class GlmRunReport:
    """A private fit and its diagnostics. ``sigma`` is the gradient-noise
    scale of one message's sample (``noise_scale``); ``steps`` is the
    solver's step count K, each step averaging n // K messages."""

    w_priv: np.ndarray
    err_empirical: float
    baseline_err: float
    excess: float
    d: int
    d_theory: int
    beta: float
    sigma: float
    steps: int
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
        # each replica is its std times a standard normal draw, plus the
        # true value, formed in place in the draw's own array
        head_x = _noised(features, head_std, (n, dim), rng)
        head_y = _noised(labels, head_std, (n,), rng)
        body_x = _noised(features[:, None, :], body_std, (n, m, dim), rng)
        body_y = _noised(labels[:, None], body_std, (n, m), rng)
    return head_x, head_y, body_x, body_y


def _noised(values: np.ndarray, std: float, shape: tuple,
            rng: np.random.Generator) -> np.ndarray:
    out = rng.standard_normal(shape)
    out *= std
    out += values
    return out


@lru_cache(maxsize=32)
def glm_oracle(flavor: LossFlavor, target_alpha: float, budget: PrivacyBudget,
               dim: int, d_cap: int = 8) -> tuple:
    """(cfg, d_theory, sigma): the gradient config of ``flavor`` at beta =
    alpha/4 and degree d, the theory's d_theory = 2/(beta^2 alpha) rounded
    up (at least 1) capped at ``d_cap``, and its finite ``noise_scale`` at
    ``dim``, or a ``ConfigurationError`` naming d_cap when it overflows.

    Memoised: a config check, a trial's message declaration and its run
    ask for the same oracle, and equal arguments get the one tuple built
    first (the config's arrays are read-only, so it can be shared). A
    failure is not memoised and is raised again on each call."""
    if not 0.0 < target_alpha <= 1.0:
        raise ParameterError(
            f"target_alpha must lie in (0, 1], got {target_alpha}")
    beta = target_alpha / 4.0
    d_theory = max(1, math.ceil(2.0 / (beta ** 2 * target_alpha)))
    d = min(d_theory, d_cap)
    cfg = general_linear_oracle_config(d, beta, flavor.sampler)
    sigma = noise_scale(cfg, budget, dim)
    if not math.isfinite(sigma):
        raise ConfigurationError(
            f"degree d = {d} is too high at epsilon = {budget.epsilon}: the "
            f"products of d noised replicas overflow float64, so the "
            f"gradient-noise scale is not finite; lower d_cap (now {d_cap}) "
            f"or raise epsilon")
    return cfg, d_theory, sigma


def solver_batches(n: int, sigma: float, smoothness: float) -> tuple:
    """(K, B): the solver's step count and the messages each step averages.

    K = min(n, ceil(L R sqrt(n) / sigma)) at L = ``smoothness`` and R = 1,
    the unit ball's radius: after K steps that each average B messages the
    solver's bound is L R^2 / K + sigma R / sqrt(K B), and in one pass (K B
    = n) the second term is sigma R / sqrt(n) whatever K, so steps beyond
    L R sqrt(n) / sigma add work and no accuracy. sigma = 0 gives K = n.
    B = n // K, and K is then raised to n // B, so K B <= n and fewer than
    B messages go unused.
    """
    reach = smoothness * math.sqrt(n)
    # compared before dividing, which overflows at a subnormal sigma
    if sigma * n <= reach:
        return n, 1
    batch = n // max(1, math.ceil(reach / sigma))  # here reach / sigma < n
    return n // batch, batch


def glm_erm_run(data: BallDataset, flavor: LossFlavor, target_alpha: float,
                budget: PrivacyBudget, rng: np.random.Generator,
                d_cap: int = 8) -> GlmRunReport:
    """Full protocol: encode every player once, then optimize.

    The smoothing level and degree follow the accuracy target (beta =
    alpha/4, d = 2/(beta^2 alpha)) except that d is capped — the
    theoretical degree explodes cubically in 1/alpha and the report carries
    both values. The gradient-noise scale sigma of one message's sample
    is ``noise_scale``, data-free, so ``rng`` draws only the encoding and
    the rows. It counts the replicas' noise, not the spread of
    the surrogate gradient across records: a noiseless run has sigma = 0.

    The solver takes K steps, each on the mean sample of B messages, so its
    schedule sees the noise scale sigma / sqrt(B). (K, B) come from
    ``solver_batches`` at L = 1/beta: more steps than min(n, ceil(L sqrt(n)
    / sigma)) leave the solver's bound where one pass puts it. The K B
    messages are the first K B of one random permutation of the n
    messages, so no step sees a message an earlier step used.
    """
    cfg, d_theory, sigma = glm_oracle(flavor, target_alpha, budget, data.dim,
                                      d_cap)
    d, beta = cfg.d, target_alpha / 4.0
    head_x, head_y, body_x, body_y = _encode_population(
        data.features, data.labels, budget, d, rng)

    # The server's rows do not depend on the iterate, so they are drawn up
    # front. Labels carry the product signs (see _fold) from here on.
    n, dim = data.n, data.dim
    head = head_y[:, None] * head_x
    body_y *= _fold(d)[0]
    scalars = cfg.scalars

    def sample_scalars(w, rows):
        return scalars(body_y[rows] * (body_x[rows] @ w))

    smoothness = 1.0 / beta
    steps, batch = solver_batches(n, sigma, smoothness)
    schedule = SigmSchedule(sigma=sigma / math.sqrt(batch),
                            smoothness=smoothness)
    # one pass over a random permutation, cut to K steps of B rows
    rows = iter(rng.permutation(n)[:steps * batch].reshape(steps, batch))

    def oracle(w):
        return _batch_mean(sample_scalars, head, w, next(rows))

    w_priv = sigm_run(oracle, dim, schedule, steps)

    err = empirical_risk(data, flavor, w_priv)
    # looked up in ``baselines`` at each call, so a wrapper put there sees it
    from .baselines import glm_baseline
    baseline_w, _ = glm_baseline(data, flavor)
    base_err = empirical_risk(data, flavor, baseline_w)
    return GlmRunReport(
        w_priv=w_priv, err_empirical=err, baseline_err=base_err,
        excess=err - base_err, d=d, d_theory=d_theory, beta=beta,
        sigma=sigma, steps=steps, flavor=flavor.name)
