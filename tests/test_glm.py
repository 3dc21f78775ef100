"""Tests for the replica-encoding gradient oracles and the full private
margin-loss fit."""

import math

import numpy as np
import pytest

from formula_reference import abs_sampler, bernstein_poly_eval
from ldp_erm.datasets import generate_dataset
from ldp_erm.errors import ParameterError, ProtocolError
from ldp_erm.geometry import project_unit_ball
from ldp_erm import glm_erm
from ldp_erm.glm_erm import (BallDataset, LossFlavor, ReplicaMessage,
                             _binom_row, _block_products, _encode_population,
                             _fold, empirical_risk,
                             general_linear_gradient_sample,
                             general_linear_oracle_config, glm_erm_run,
                             glm_player_encode, hinge_flavor,
                             hinge_gradient_sample, hinge_oracle_config,
                             hinge_via_general_flavor, replica_noise_stds,
                             solver_batches)
from ldp_erm.polyapprox import (SmoothedPlus, SubgradientSampler,
                                hinge_sampler, kink_locations)
from ldp_erm.primitives import PrivacyBudget
from ldp_erm.rng import derived_rng
from ldp_erm.sigm import SigmSchedule, sigm_run
from trial_messages import trial_messages

NOISELESS = PrivacyBudget(epsilon=float("inf"))
LOG_TERM = math.log(1.25e5)  # log(1.25/delta) at delta = 1e-5


def _record(rng, dim=3):
    x = rng.normal(size=dim)
    x *= rng.random() / np.linalg.norm(x)
    y = rng.uniform(-1, 1)
    return x, y


def test_ball_dataset_validation():
    with pytest.raises(ParameterError):
        BallDataset(np.array([[2.0, 0.0]]), np.array([0.5]))
    with pytest.raises(ParameterError):
        BallDataset(np.array([[0.5, 0.0]]), np.array([1.5]))
    d = BallDataset(np.array([[0.5, 0.0]]), np.array([1.0]))
    assert d.n == 1 and d.dim == 2


def test_replica_std_formulas():
    head, body = replica_noise_stds(PrivacyBudget(epsilon=1.0, delta=1e-5), 3)
    assert head == pytest.approx(math.sqrt(32 * LOG_TERM), rel=1e-12)
    assert head == pytest.approx(19.379, abs=5e-4)
    assert body == pytest.approx(math.sqrt(8 * LOG_TERM) * 12, rel=1e-12)
    assert body == pytest.approx(116.275, abs=5e-3)
    assert replica_noise_stds(NOISELESS, 3) == (0.0, 0.0)
    with pytest.raises(ParameterError):
        replica_noise_stds(PrivacyBudget(epsilon=1.0, delta=0.0), 3)


def test_encode_noiseless_copies_record():
    x, y = np.array([0.3, -0.2, 0.1]), 0.7
    msg = glm_player_encode((x, y), NOISELESS, 3, derived_rng(0))
    assert np.array_equal(msg.head_x, x) and msg.head_y == y
    assert msg.body_x.shape == (12, 3)
    assert np.all(msg.body_x == x) and np.all(msg.body_y == y)


def test_encode_head_std_empirical():
    budget = PrivacyBudget(epsilon=1.0, delta=1e-5)
    rng = derived_rng(1)
    x, y = np.array([0.5]), 0.2
    heads = np.array([glm_player_encode((x, y), budget, 3, rng).head_y
                      for _ in range(100_000)])
    want = math.sqrt(32 * LOG_TERM)
    assert abs(heads.std() - want) <= 0.02 * want


def test_encode_transcript_accounting(tmp_path):
    x, y = np.array([0.1, 0.2, 0.3, 0.4]), -0.5
    msg = glm_player_encode((x, y), PrivacyBudget(epsilon=1.0, delta=1e-5),
                            3, derived_rng(2))
    sizes = [np.size(part) for part in (msg.head_x, msg.head_y, msg.body_x,
                                        msg.body_y)]
    assert sum(sizes) == 13 * 5  # (d(d+1)+1) * (p+1)
    # a hinge trial on this one record declares what the encoder sent
    sent = trial_messages(tmp_path, "hinge", np.append(x, y)[None, :],
                          "ball", {"epsilon": 1.0, "delta": 1e-5,
                                   "d_cap": 3})
    assert int(sent["messages"]) == 1
    assert float(sent["reals_per_player"]) == 13 * 5
    assert float(sent["bits_per_player"]) == 64 * 13 * 5


def test_encode_player_draw_order():
    # one player's message: head x, head y, body x, body y, drawn in turn
    budget = PrivacyBudget(epsilon=1.0, delta=1e-5)
    head_std, body_std = replica_noise_stds(budget, 3)
    x, y = np.array([0.3, -0.2, 0.1]), 0.7
    rng, ref = derived_rng(20), derived_rng(20)
    for _ in range(3):
        msg = glm_player_encode((x, y), budget, 3, rng)
        assert np.array_equal(msg.head_x, x + ref.normal(0.0, head_std, 3))
        assert msg.head_y == y + float(ref.normal(0.0, head_std))
        assert np.array_equal(msg.body_x,
                              x + ref.normal(0.0, body_std, (12, 3)))
        assert np.array_equal(msg.body_y, y + ref.normal(0.0, body_std, 12))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_hinge_sample_d1_expansion():
    beta = 0.3
    cfg = hinge_oracle_config(1, beta)
    rng = derived_rng(3)
    for _ in range(10):
        x, y = _record(rng)
        w = rng.normal(size=3)
        w /= max(1.0, np.linalg.norm(w))
        msg = glm_player_encode((x, y), NOISELESS, 1, rng)
        u = y * float(w @ x)
        want = (SmoothedPlus(beta).deriv(0.0) * (1 - u)
                + SmoothedPlus(beta).deriv(1.0) * u) * y * x
        got = hinge_gradient_sample(w, msg, cfg)
        assert np.max(np.abs(got - want)) < 1e-12


def _per_block_products(args, coeffs, d):
    # the block-by-block form of the replica product sum
    binom = [math.comb(d, j) for j in range(d + 1)]
    total = 0.0
    for j in range(d + 1):
        block = args[j * d:(j + 1) * d]
        total += (coeffs[j] * binom[j] * np.prod(block[:j])
                  * np.prod(1.0 - block[j:]))
    return total


def test_replica_products_match_per_block_form():
    rng = derived_rng(21)
    for d in range(1, 6):
        m = d * (d + 1)
        coeffs = rng.uniform(-1.0, 1.0, d + 1)
        weights = coeffs * _binom_row(d)
        for scale in (1.0, 30.0, 1e3):  # noised replicas reach ~1e3
            args = rng.uniform(-scale, scale, (40, m))
            batch = _block_products(weights, d)(args * _fold(d)[0])
            assert batch.shape == (40,)
            for row, got in zip(args, batch):
                want = _per_block_products(row, coeffs, d)
                assert abs(got - want) <= 1e-12 * abs(want)


def test_hinge_sample_zero_label():
    cfg = hinge_oracle_config(2, 0.25)
    msg = glm_player_encode((np.array([0.5, 0.1]), 0.0), NOISELESS, 2,
                            derived_rng(4))
    assert np.array_equal(hinge_gradient_sample(np.array([0.3, 0.3]), msg, cfg),
                          np.zeros(2))


def test_replica_count_mismatch_rejected():
    cfg = hinge_oracle_config(3, 0.25)
    msg = glm_player_encode((np.array([0.5]), 0.5), NOISELESS, 2, derived_rng(5))
    with pytest.raises(ProtocolError):
        hinge_gradient_sample(np.array([0.5]), msg, cfg)


def test_gradient_affine_in_each_replica():
    # freshness: every body replica enters exactly one product factor, so
    # the sample is affine in any single replica's contribution
    d = 3
    cfg = hinge_oracle_config(d, 0.25)
    rng = derived_rng(6)
    x, y = _record(rng)
    w = rng.normal(size=3)
    w /= np.linalg.norm(w)
    base = glm_player_encode((x, y), NOISELESS, d, rng)
    for k in (0, 4, 11):
        outs = []
        for t in (0.0, 1.0, 0.5):
            by = base.body_y.copy()
            by[k] = t
            msg = ReplicaMessage(head_x=base.head_x, head_y=base.head_y,
                                 body_x=base.body_x, body_y=by)
            outs.append(hinge_gradient_sample(w, msg, cfg))
        mid = 0.5 * (outs[0] + outs[1])
        assert np.max(np.abs(outs[2] - mid)) < 1e-10


def test_hinge_unbiased_monte_carlo():
    budget = PrivacyBudget(epsilon=1.0, delta=1e-5)
    d, beta = 2, 0.25
    cfg = hinge_oracle_config(d, beta)
    rng = derived_rng(7)
    x = np.array([0.6, -0.3, 0.2])
    y = 0.8
    w = np.array([0.4, 0.4, -0.1])
    u = y * float(w @ x)
    want = bernstein_poly_eval(cfg.coeffs, u) * y * x
    reps = 20_000
    samples = np.empty((reps, 3))
    for i in range(reps):
        msg = glm_player_encode((x, y), budget, d, rng)
        samples[i] = hinge_gradient_sample(w, msg, cfg)
    se = samples.std(axis=0) / math.sqrt(reps)
    assert np.all(np.abs(samples.mean(axis=0) - want) <= 3 * se)


def test_general_abs_d1_hand_formula():
    beta = 0.3
    cfg = general_linear_oracle_config(1, beta, abs_sampler())
    rng = derived_rng(8)
    for _ in range(10):
        x, y = _record(rng)
        w = rng.normal(size=3)
        w /= max(1.0, np.linalg.norm(w))
        msg = glm_player_encode((x, y), NOISELESS, 1, rng)
        u = y * float(w @ x)
        a = u + 0.5  # the kink draw for |.| is the point mass at 0
        c0, c1 = (SmoothedPlus(beta).deriv(v) + 1.0 for v in (0.0, 1.0))
        want = (2.0 * (c0 * (1 - a) + c1 * a) - 1.0) * y * x
        got = general_linear_gradient_sample(w, msg, cfg, rng)
        assert np.max(np.abs(got - want)) < 1e-12


def test_general_affine_loss_degenerate():
    cfg = general_linear_oracle_config(
        2, 0.25, SubgradientSampler(lambda x: 0.3, 0.3, 0.3))
    rng = derived_rng(9)
    x, y = np.array([0.5, -0.5]), 0.9
    msg = glm_player_encode((x, y), NOISELESS, 2, rng)
    got = general_linear_gradient_sample(np.array([0.2, 0.2]), msg, cfg, rng)
    assert np.max(np.abs(got - 0.3 * y * x)) < 1e-15


def test_hinge_via_general_collapses_onto_hinge():
    beta, d = 0.25, 3
    hinge_cfg = hinge_oracle_config(d, beta)
    gen_cfg = general_linear_oracle_config(d, beta, hinge_sampler())
    rng = derived_rng(10)
    for _ in range(20):
        x, y = _record(rng)
        w = rng.normal(size=3)
        w /= max(1.0, np.linalg.norm(w))
        msg = glm_player_encode((x, y), NOISELESS, d, rng)
        a = hinge_gradient_sample(w, msg, hinge_cfg)
        b = general_linear_gradient_sample(w, msg, gen_cfg, rng)
        assert np.max(np.abs(a - b)) < 1e-8


def test_general_unbiased_monte_carlo():
    # x^2/2 loss: kink draws are uniform, so the expectation over (noise, s)
    # is the s-average of the shifted Bernstein form, computed by quadrature
    budget = PrivacyBudget(epsilon=1.0, delta=1e-5)
    d, beta = 2, 0.25
    ident = SubgradientSampler(lambda t: np.asarray(t, dtype=float), -1.0, 1.0)
    cfg = general_linear_oracle_config(d, beta, ident)
    rng = derived_rng(11)
    x = np.array([0.5, 0.3, -0.4])
    y = -0.7
    w = np.array([0.1, -0.5, 0.4])
    u = y * float(w @ x)
    sgrid = np.linspace(-1.0, 1.0, 4001)
    pbar = np.mean(bernstein_poly_eval(cfg.coeffs, u - sgrid + 0.5))
    want = (2.0 * pbar - 1.0) * y * x  # spread 2, midpoint 0
    reps = 20_000
    samples = np.empty((reps, 3))
    for i in range(reps):
        msg = glm_player_encode((x, y), budget, d, rng)
        samples[i] = general_linear_gradient_sample(w, msg, cfg, rng)
    se = samples.std(axis=0) / math.sqrt(reps)
    assert np.all(np.abs(samples.mean(axis=0) - want) <= 3 * se)


def test_zero_noise_gradient_bias_bound():
    beta, d = 0.25, 4
    sp = SmoothedPlus(beta)
    cfg = hinge_oracle_config(d, beta)
    rng = derived_rng(12)
    bound = 1.0 / (beta ** 2 * d)
    for _ in range(100):
        x, y = _record(rng, dim=5)
        w = rng.normal(size=5)
        w /= max(1.0, np.linalg.norm(w))
        u = y * float(w @ x)
        bias = abs(bernstein_poly_eval(cfg.coeffs, u) - sp.deriv(u))
        assert bias * abs(y) * np.linalg.norm(x) <= bound


def test_zero_noise_run_excess():
    data = generate_dataset({"family": "separable-two-class", "n": 4000,
                             "dim": 3, "margin": 0.1}, 17)
    rep = glm_erm_run(data, hinge_flavor(), target_alpha=0.4,
                      budget=NOISELESS, rng=derived_rng(18, 2), d_cap=8,
                      iters=30_000)
    assert rep.d == 8 and rep.beta == pytest.approx(0.1)
    assert rep.excess <= 0.08


def test_run_single_player_is_defined():
    data = BallDataset(np.array([[0.6, 0.0]]), np.array([1.0]))
    rep = glm_erm_run(data, hinge_via_general_flavor(), target_alpha=1.0,
                      budget=PrivacyBudget(epsilon=1.0, delta=1e-5),
                      rng=derived_rng(19), d_cap=2)
    assert np.linalg.norm(rep.w_priv) <= 1.0 + 1e-9
    assert rep.iters == 1
    assert rep.d_theory >= rep.d


def _permutation_rows(rng, n, count):
    # the server's rows: passes over random permutations, as many as cover
    # ``count`` draws
    rows = []
    while len(rows) < count:
        rows.extend(rng.permutation(n).tolist())
    return rows[:count]


def _replayed_run(data, flavor, budget, rng, d, iters, batch=1):
    # the server side of glm_erm_run, one message and one gradient sample
    # at a time through the public per-message API (target_alpha = 1); each
    # step averages the samples of ``batch`` messages. A probe's or the
    # server's rows are drawn before its samples, and each general-linear
    # sample draws its own kinks
    beta = 0.25
    if flavor.name == "hinge":
        cfg = hinge_oracle_config(d, beta)
        sample = hinge_gradient_sample
    else:
        cfg = general_linear_oracle_config(d, beta, flavor.sampler)
        sample = general_linear_gradient_sample
    n, dim, m = data.n, data.dim, d * (d + 1)
    head_std, body_std = replica_noise_stds(budget, d)
    shapes = ((n, dim), n, (n, m, dim), (n, m))
    stds = (head_std, head_std, body_std, body_std)
    # a noiseless budget copies the records and draws nothing
    noise = [rng.normal(0.0, std, shape) if head_std else np.zeros(shape)
             for std, shape in zip(stds, shapes)]
    x, y = data.features, data.labels
    msgs = [ReplicaMessage(head_x=x[i] + noise[0][i],
                           head_y=float(y[i] + noise[1][i]),
                           body_x=x[i] + noise[2][i],
                           body_y=y[i] + noise[3][i]) for i in range(n)]
    worst = 0.0
    for _ in range(8):
        v = rng.standard_normal(dim)
        w = v / max(1.0, np.linalg.norm(v))
        rows = rng.integers(n, size=8)
        grads = np.stack([sample(w, msgs[i], cfg, rng) for i in rows])
        centered = grads - grads.mean(axis=0)
        worst = max(worst, float(np.sqrt(np.mean(np.sum(centered ** 2,
                                                        axis=1)))))
    sigma = 4.0 * worst
    schedule = SigmSchedule(sigma=sigma / math.sqrt(batch),
                            smoothness=1.0 / beta)

    rows = iter(_permutation_rows(rng, n, iters * batch))

    def step(w):
        return np.mean([sample(w, msgs[next(rows)], cfg, rng)
                        for _ in range(batch)], axis=0)

    w_priv = sigm_run(step, dim, schedule, iters)
    return w_priv, sigma


# x^2/2: its kink locations are spread over [-1, 1], unlike the point
# masses of the hinge and |.|, so every kink draw moves the gradient
QUADRATIC_FLAVOR = LossFlavor(
    name="general-linear", scalar_loss=lambda t: 0.5 * np.square(t),
    scalar_subgrad=lambda t: np.asarray(t, dtype=float),
    sampler=SubgradientSampler(lambda t: np.asarray(t, dtype=float),
                               -1.0, 1.0))


@pytest.mark.parametrize("flavor", [hinge_flavor(),
                                    hinge_via_general_flavor(),
                                    QUADRATIC_FLAVOR],
                         ids=["hinge", "hinge-via-general", "quadratic"])
@pytest.mark.parametrize("budget", [PrivacyBudget(epsilon=2.0, delta=1e-5),
                                    NOISELESS], ids=["noised", "noiseless"])
def test_run_matches_per_message_replay(flavor, budget):
    data = generate_dataset({"family": "separable-two-class", "n": 60,
                             "dim": 3, "margin": 0.1}, 22)
    rng, ref = derived_rng(23), derived_rng(23)
    rep = glm_erm_run(data, flavor, target_alpha=1.0, budget=budget, rng=rng,
                      d_cap=2, iters=400)
    want_w, want_sigma = _replayed_run(data, flavor, budget, ref, 2, 400)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rep.sigma == pytest.approx(want_sigma, rel=1e-12)
    scale = float(np.max(np.abs(want_w)))
    assert scale > 0.0
    assert float(np.max(np.abs(rep.w_priv - want_w))) <= 1e-12 * scale


@pytest.mark.parametrize("flavor", [hinge_flavor(),
                                    hinge_via_general_flavor(),
                                    QUADRATIC_FLAVOR],
                         ids=["hinge", "hinge-via-general", "quadratic"])
@pytest.mark.parametrize("budget", [PrivacyBudget(epsilon=2.0, delta=1e-5),
                                    NOISELESS], ids=["noised", "noiseless"])
def test_batched_run_matches_per_message_replay(flavor, budget):
    # iters = 6 on n = 60: each step averages the samples of 10 messages
    data = generate_dataset({"family": "separable-two-class", "n": 60,
                             "dim": 3, "margin": 0.1}, 22)
    rng, ref = derived_rng(23), derived_rng(23)
    rep = glm_erm_run(data, flavor, target_alpha=1.0, budget=budget, rng=rng,
                      d_cap=2, iters=6)
    want_w, want_sigma = _replayed_run(data, flavor, budget, ref, 2, 6,
                                       batch=10)
    assert rep.iters == 6
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rep.sigma == pytest.approx(want_sigma, rel=1e-12)
    scale = float(np.max(np.abs(want_w)))
    assert scale > 0.0
    assert float(np.max(np.abs(rep.w_priv - want_w))) <= 1e-12 * scale


def test_empirical_risk_matches_direct_mean():
    data = generate_dataset({"family": "separable-two-class", "n": 200,
                             "dim": 2, "margin": 0.2}, 3)
    w = np.array([0.5, 0.1])
    direct = np.mean(np.maximum(0.0, 0.5 - data.labels * (data.features @ w)))
    assert empirical_risk(data, hinge_flavor(), w) == pytest.approx(direct)


# 0.3 t: f'(-1) == f'(1), so the sampler is degenerate and draws no kinks
AFFINE_FLAVOR = LossFlavor(
    name="general-linear", scalar_loss=lambda t: 0.3 * np.asarray(t),
    scalar_subgrad=lambda t: np.full(np.shape(t), 0.3),
    sampler=SubgradientSampler(lambda t: np.full(np.shape(t), 0.3), 0.3, 0.3))


def _unfolded_scalars(margins, kinks, cfg):
    # the gradient scalar with unsigned arguments: t or 1 - t by a mask
    d = cfg.d
    rising = np.arange(d)[None, :] < np.arange(d + 1)[:, None]

    def products(args):
        blocks = args.reshape(args.shape[:-1] + (d + 1, d))
        return np.where(rising, blocks, 1.0 - blocks).prod(axis=-1) @ cfg.weights

    if cfg.flavor == "hinge":
        return products(margins)
    sampler = cfg.sampler
    spread = sampler.upper - sampler.lower
    midpoint = 0.5 * (sampler.upper + sampler.lower)
    if sampler.degenerate:
        return np.full(margins.shape[:-1], midpoint)
    return spread * products(margins - kinks + 0.5) + (midpoint - 0.5 * spread)


def _sample_kinks(rng, count, m, cfg):
    # the kink locations of ``count`` samples, one sample's uniforms at a
    # time; None for a loss that draws none
    if not cfg.kinked:
        return None
    u = np.stack([rng.uniform(cfg.sampler.lower, cfg.sampler.upper, m)
                  for _ in range(count)])
    return kink_locations(cfg.sampler, u)


def _unfolded_mean(scalars_at, head, w, rows, kinks):
    # one step's mean sample: a single draw's own sample, or the sum of
    # the draws' scalars times their head rows taken BATCH_BLOCK at a time
    if rows.ndim == 0:
        return scalars_at(w, rows, kinks) * head[rows]
    block = glm_erm.BATCH_BLOCK
    total = None
    for lo in range(0, len(rows), block):
        part = (scalars_at(w, rows[lo:lo + block], None if kinks is None
                           else kinks[lo:lo + block])
                @ head[rows[lo:lo + block]])
        total = part if total is None else total + part
    return total / len(rows)


def _unfolded_run(data, flavor, budget, rng, d, iters):
    # glm_erm_run at target_alpha = 1 and an explicit iters, step by step
    # through per-sample kink draws and the unsigned gradient scalars
    beta = 0.25
    cfg = (hinge_oracle_config(d, beta) if flavor.name == "hinge" else
           general_linear_oracle_config(d, beta, flavor.sampler))
    head_x, head_y, body_x, body_y = _encode_population(
        data.features, data.labels, budget, d, rng)
    n, dim, m = data.n, data.dim, d * (d + 1)
    head = head_y[:, None] * head_x

    def scalars_at(w, rows, kinks):
        margins = body_y[rows] * (body_x[rows] @ w)
        return _unfolded_scalars(margins, kinks, cfg)

    def gradients(w, rows, kinks):
        return scalars_at(w, rows, kinks)[..., None] * head[rows]

    spreads = []
    for _ in range(8):
        w = project_unit_ball(rng.standard_normal(dim))
        rows = rng.integers(n, size=8)
        grads = gradients(w, rows, _sample_kinks(rng, 8, m, cfg))
        centered = grads - grads.mean(axis=0)
        spreads.append(np.sqrt(np.mean(np.sum(centered ** 2, axis=1))))
    sigma = 4.0 * float(np.max(spreads))
    batch = max(1, n // iters)
    schedule = SigmSchedule(sigma=sigma / math.sqrt(batch),
                            smoothness=1.0 / beta)
    rows = np.array(_permutation_rows(rng, n, iters * batch))
    kinks = _sample_kinks(rng, iters * batch, m, cfg)
    steps = iter(range(0, iters * batch, batch))

    def oracle(w):
        lo = next(steps)
        pick = lo if batch == 1 else slice(lo, lo + batch)
        return _unfolded_mean(scalars_at, head, w, rows[pick],
                              None if kinks is None else kinks[pick])

    return sigm_run(oracle, dim, schedule, iters), sigma


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("flavor", [hinge_flavor(),
                                    hinge_via_general_flavor(),
                                    QUADRATIC_FLAVOR, AFFINE_FLAVOR],
                         ids=["hinge", "hinge-via-general", "quadratic",
                              "affine"])
def test_run_equals_unfolded_sample_by_sample_oracle(flavor, d, monkeypatch):
    # iters = n takes one draw a step; iters = 7 takes 42 draws a step (294
    # in all), evaluated in one block and then, at a block of 16, in three
    data = generate_dataset({"family": "separable-two-class", "n": 300,
                             "dim": 3, "margin": 0.1}, 24)
    budget = PrivacyBudget(epsilon=2.0, delta=1e-5)
    for iters, block in ((300, glm_erm.BATCH_BLOCK), (7, glm_erm.BATCH_BLOCK),
                         (7, 16)):
        monkeypatch.setattr(glm_erm, "BATCH_BLOCK", block)
        rng, ref = derived_rng(25, d), derived_rng(25, d)
        rep = glm_erm_run(data, flavor, target_alpha=1.0, budget=budget,
                          rng=rng, d_cap=d, iters=iters)
        want_w, want_sigma = _unfolded_run(data, flavor, budget, ref, d,
                                           iters)
        assert rep.d == d and rep.iters == iters
        assert rep.sigma == want_sigma
        assert np.any(want_w != 0.0)
        assert np.array_equal(rep.w_priv, want_w)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("flavor", [hinge_flavor(), hinge_via_general_flavor()],
                         ids=["hinge", "hinge-via-general"])
def test_server_uses_each_message_once_a_pass(flavor, monkeypatch):
    # K B <= n draws are one pass, so no message twice: iters = 7 averages
    # 42 messages a step, 294 distinct ones. iters = 700 on n = 300 walks
    # three passes cut to 700 draws, so each message is used 2 or 3 times
    seen = []
    step_draws = glm_erm._step_draws

    def recording(rows, kinks, batch):
        seen.append(rows)
        return step_draws(rows, kinks, batch)

    monkeypatch.setattr(glm_erm, "_step_draws", recording)
    data = generate_dataset({"family": "separable-two-class", "n": 300,
                             "dim": 3, "margin": 0.1}, 24)
    for iters, draws, uses in ((1, 300, {1}), (7, 294, {0, 1}),
                               (300, 300, {1}), (700, 700, {2, 3})):
        rep = glm_erm_run(data, flavor, target_alpha=1.0,
                          budget=PrivacyBudget(epsilon=2.0, delta=1e-5),
                          rng=derived_rng(26, iters), d_cap=2, iters=iters)
        assert rep.iters == iters
        (rows,) = seen
        seen.clear()
        counts = np.bincount(rows, minlength=300)
        assert counts.sum() == draws
        assert set(counts.tolist()) == uses


def test_run_calls_solver_once_through_module_binding(monkeypatch):
    # tracing wraps glm_erm.sigm_run, so the run must look the name up there
    calls = []

    def counting_run(*args, **kwargs):
        calls.append(args[2:4])
        return sigm_run(*args, **kwargs)

    monkeypatch.setattr(glm_erm, "sigm_run", counting_run)
    data = generate_dataset({"family": "separable-two-class", "n": 50,
                             "dim": 2, "margin": 0.1}, 27)
    rep = glm_erm_run(data, hinge_flavor(), target_alpha=1.0,
                      budget=PrivacyBudget(epsilon=2.0, delta=1e-5),
                      rng=derived_rng(27), d_cap=2)
    steps, batch = solver_batches(50, rep.sigma, 1.0 / rep.beta)
    assert rep.iters == steps
    ((schedule, iters),) = calls
    assert iters == rep.iters
    # the schedule sees the noise of a mean of batch messages
    assert schedule.sigma == rep.sigma / math.sqrt(batch)
    assert schedule.smoothness == 1.0 / rep.beta


def test_solver_batches_rule():
    # no noise, or noise too small to divide by: one message a step
    assert solver_batches(4000, 0.0, 10.0) == (4000, 1)
    assert solver_batches(4000, 5e-324, 10.0) == (4000, 1)
    # K = ceil(L sqrt(n) / sigma): 10 * 100 / 3 = 333.3
    assert solver_batches(10_000, 3.0, 10.0) == (334, 29)
    # noise far above L sqrt(n): one step over every message
    assert solver_batches(20_000, 6.5e14, 4.0) == (1, 20_000)
    assert solver_batches(20_000, 1.7e308, 4.0) == (1, 20_000)
    # an explicit iters is the step count, and iters >= n takes one a step
    assert solver_batches(300, 1e9, 4.0, 7) == (7, 42)
    assert solver_batches(4000, 1e9, 10.0, 30_000) == (30_000, 1)
    assert solver_batches(60, 0.0, 4.0, 6) == (6, 10)
    for n in (1, 2, 3, 50, 999, 20_000):
        for sigma in (0.0, 1e-3, 0.7, 2.0, 13.0, 1e6):
            steps, batch = solver_batches(n, sigma, 4.0)
            assert 1 <= steps <= n and batch == max(1, n // steps)
            assert steps * batch <= n
