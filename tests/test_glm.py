"""Tests for the replica-encoding gradient oracles and the full private
margin-loss fit."""

import math

import numpy as np
import pytest

from formula_reference import abs_sampler, bernstein_poly_eval, hinge_coeffs
from ldp_erm.datasets import generate_dataset
from ldp_erm.errors import ParameterError, ProtocolError
from ldp_erm import glm_erm
from ldp_erm.glm_erm import (BallDataset, GradientOracleConfig, LossFlavor,
                             ReplicaMessage, _binom_row, _block_products,
                             _encode_population, _fold, _gradient_variance,
                             empirical_risk, general_linear_oracle_config,
                             glm_erm_run, glm_oracle, glm_player_encode,
                             hinge_flavor, hinge_gradient_sample,
                             hinge_via_general_flavor, noise_scale,
                             replica_noise_stds, solver_batches)
from ldp_erm.polyapprox import SmoothedPlus, SubgradientSampler, hinge_sampler
from ldp_erm.primitives import PrivacyBudget
from ldp_erm.rng import derived_rng
from ldp_erm.sigm import SigmSchedule, sigm_run
from trial_messages import trial_messages

NOISELESS = PrivacyBudget(epsilon=float("inf"))
LOG_TERM = math.log(1.25e5)  # log(1.25/delta) at delta = 1e-5
# the kink data of x^2/2: f' = t, so its kink locations are spread
# uniformly over [-1, 1], unlike the point masses of the hinge and |.|
IDENTITY = SubgradientSampler(lambda t: np.asarray(t, dtype=float))
# (1 - t)^2/4 has the same uniform kink locations, but unlike x^2/2, whose
# surrogate gradient vanishes at w = 0 where the solver starts, it moves
QUADRATIC_FLAVOR = LossFlavor(
    name="general-linear", scalar_loss=lambda t: 0.25 * np.square(1.0 - t),
    sampler=SubgradientSampler(
        lambda t: 0.5 * (np.asarray(t, dtype=float) - 1.0)))
# the mean over 4001 points, ends included, is within 2/4001 of the
# kink-location integral, and the midpoint rule closer still
TOL_QUADRATIC = 1e-3


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
    cfg = GradientOracleConfig(1, hinge_coeffs(1, beta))
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
    cfg = GradientOracleConfig(2, hinge_coeffs(2, 0.25))
    msg = glm_player_encode((np.array([0.5, 0.1]), 0.0), NOISELESS, 2,
                            derived_rng(4))
    assert np.array_equal(hinge_gradient_sample(np.array([0.3, 0.3]), msg, cfg),
                          np.zeros(2))


def test_replica_count_mismatch_rejected():
    cfg = GradientOracleConfig(3, hinge_coeffs(3, 0.25))
    msg = glm_player_encode((np.array([0.5]), 0.5), NOISELESS, 2, derived_rng(5))
    with pytest.raises(ProtocolError):
        hinge_gradient_sample(np.array([0.5]), msg, cfg)


def test_gradient_affine_in_each_replica():
    # freshness: every body replica enters exactly one product factor, so
    # the sample is affine in any single replica's contribution
    d = 3
    cfg = GradientOracleConfig(d, hinge_coeffs(d, 0.25))
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
    cfg = GradientOracleConfig(d, hinge_coeffs(d, beta))
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


def _step(beta, t):
    # the smoothed unit step at 1/2 whose kink-average sets the coefficients
    return SmoothedPlus(beta).deriv(t) + 1.0


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
        # the kink measure of |.| is the point mass at 0, so at d = 1 the
        # coefficients are c_j = -1 + 2 step(j + 1/2)
        c0, c1 = (2.0 * _step(beta, v + 0.5) - 1.0 for v in (0.0, 1.0))
        want = (c0 * (1 - u) + c1 * u) * y * x
        got = hinge_gradient_sample(w, msg, cfg)
        assert np.max(np.abs(got - want)) < 1e-12


def test_general_affine_loss_degenerate():
    # f'(-1) == f'(1): every coefficient is the slope, and the Bernstein
    # basis sums to one
    cfg = general_linear_oracle_config(
        2, 0.25, SubgradientSampler(lambda x: 0.3))
    assert np.array_equal(cfg.coeffs, np.full(3, 0.3))
    rng = derived_rng(9)
    x, y = np.array([0.5, -0.5]), 0.9
    msg = glm_player_encode((x, y), NOISELESS, 2, rng)
    got = hinge_gradient_sample(np.array([0.2, 0.2]), msg, cfg)
    assert np.max(np.abs(got - 0.3 * y * x)) < 1e-15


def test_hinge_via_general_collapses_onto_hinge():
    beta, d = 0.25, 3
    hinge_cfg = GradientOracleConfig(d, hinge_coeffs(d, beta))
    gen_cfg = general_linear_oracle_config(d, beta, hinge_sampler())
    rng = derived_rng(10)
    for _ in range(20):
        x, y = _record(rng)
        w = rng.normal(size=3)
        w /= max(1.0, np.linalg.norm(w))
        msg = glm_player_encode((x, y), NOISELESS, d, rng)
        a = hinge_gradient_sample(w, msg, hinge_cfg)
        b = hinge_gradient_sample(w, msg, gen_cfg)
        assert np.max(np.abs(a - b)) < 1e-8


def test_flavors_compare_equal_across_calls():
    # built from module-level functions, so glm_oracle's memo finds them
    assert hinge_flavor() == hinge_flavor()
    assert hash(hinge_flavor()) == hash(hinge_flavor())
    assert hinge_via_general_flavor() == hinge_via_general_flavor()
    assert hinge_sampler() == hinge_sampler()
    assert hinge_flavor() != hinge_via_general_flavor()


def test_glm_oracle_is_memoised_and_read_only():
    budget = PrivacyBudget(epsilon=2.0, delta=1e-5)
    for flavor in (hinge_flavor, hinge_via_general_flavor):
        first = glm_oracle(flavor(), 1.0, budget, 5, 3)
        assert glm_oracle(flavor(), 1.0, PrivacyBudget(2.0, 1e-5), 5,
                          3) is first
        cfg = first[0]
        with pytest.raises(ValueError):
            cfg.coeffs[0] = 1.0
        with pytest.raises(ValueError):
            cfg.weights[0] = 1.0
    # a read-only copy: the caller's array stays writable and unshared
    coeffs = np.array([0.1, 0.2])
    cfg = glm_erm.GradientOracleConfig(d=1, coeffs=coeffs)
    coeffs[0] = 5.0
    assert cfg.coeffs[0] == 0.1


@pytest.mark.parametrize("eps, d_cap", [(1.0, 2), (50.0, 2), (2.0, 8)])
def test_hinge_and_general_linear_oracles_agree_bitwise(eps, d_cap):
    # one coefficient rule: the hinge is its kink measure's point mass
    budget = PrivacyBudget(epsilon=eps, delta=1e-5)
    hinge = glm_oracle(hinge_flavor(), 1.0, budget, 5, d_cap)
    general = glm_oracle(hinge_via_general_flavor(), 1.0, budget, 5, d_cap)
    assert hinge[0].coeffs.tobytes() == general[0].coeffs.tobytes()
    assert hinge[1:] == general[1:]


def test_oracle_configs_compare_and_hash_by_identity():
    cfg = GradientOracleConfig(3, hinge_coeffs(3, 0.25))
    twin = GradientOracleConfig(3, hinge_coeffs(3, 0.25))
    assert cfg == cfg and cfg != twin
    assert len({cfg, twin, cfg}) == 2  # hashable


def test_general_linear_coefficients():
    # c_j = f'(-1) + (f'(1) - f'(-1)) E_s[step(j/d - s + 1/2)], checked
    # against references that find no kink locations
    for beta in (0.1, 0.25, 1.0):
        for d in range(1, 9):
            j = np.arange(d + 1) / d
            hinge = general_linear_oracle_config(d, beta, hinge_sampler())
            assert np.max(np.abs(hinge.coeffs
                                 - hinge_coeffs(d, beta))) <= 1e-12
            # |.|: the point mass at 0
            absolute = general_linear_oracle_config(d, beta, abs_sampler())
            assert np.max(np.abs(absolute.coeffs - (
                2.0 * _step(beta, j + 0.5) - 1.0))) <= 1e-12
            # x^2/2: f' = t, so s is uniform on [-1, 1]
            quadratic = general_linear_oracle_config(d, beta, IDENTITY)
            s = np.linspace(-1.0, 1.0, 4001)
            want = 2.0 * _step(beta, j[:, None] - s + 0.5).mean(axis=1) - 1.0
            assert np.max(np.abs(quadratic.coeffs - want)) <= TOL_QUADRATIC


def test_general_unbiased_monte_carlo():
    # x^2/2 loss: the uniform kink measure is averaged into the
    # coefficients, so the sample is unbiased for their Bernstein form
    budget = PrivacyBudget(epsilon=1.0, delta=1e-5)
    d, beta = 2, 0.25
    cfg = general_linear_oracle_config(d, beta, IDENTITY)
    rng = derived_rng(11)
    x = np.array([0.5, 0.3, -0.4])
    y = -0.7
    w = np.array([0.1, -0.5, 0.4])
    u = y * float(w @ x)
    want = bernstein_poly_eval(cfg.coeffs, u) * y * x
    reps = 20_000
    samples = np.empty((reps, 3))
    for i in range(reps):
        msg = glm_player_encode((x, y), budget, d, rng)
        samples[i] = hinge_gradient_sample(w, msg, cfg)
    se = samples.std(axis=0) / math.sqrt(reps)
    assert np.all(np.abs(samples.mean(axis=0) - want) <= 3 * se)


def test_zero_noise_gradient_bias_bound():
    beta, d = 0.25, 4
    sp = SmoothedPlus(beta)
    cfg = GradientOracleConfig(d, hinge_coeffs(d, beta))
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
                      budget=NOISELESS, rng=derived_rng(18, 2), d_cap=8)
    assert rep.d == 8 and rep.beta == pytest.approx(0.1)
    assert rep.steps == 4000  # sigma = 0: one message a step
    assert rep.excess <= 0.08


def test_run_single_player_is_defined():
    data = BallDataset(np.array([[0.6, 0.0]]), np.array([1.0]))
    rep = glm_erm_run(data, hinge_via_general_flavor(), target_alpha=1.0,
                      budget=PrivacyBudget(epsilon=1.0, delta=1e-5),
                      rng=derived_rng(19), d_cap=2)
    assert np.linalg.norm(rep.w_priv) <= 1.0 + 1e-9
    assert rep.steps == 1
    assert rep.d_theory >= rep.d


def _replayed_run(data, flavor, budget, rng, d):
    # the server side of glm_erm_run, one message and one gradient sample
    # at a time through the public per-message API (target_alpha = 1); each
    # of the K steps averages the samples of B messages drawn by one
    # permutation. Returns the fit, sigma and K
    n, dim, m = data.n, data.dim, d * (d + 1)
    cfg, _, sigma = glm_oracle(flavor, 1.0, budget, dim, d)
    steps, batch = solver_batches(n, sigma, 1 / 0.25)
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
    schedule = SigmSchedule(sigma / math.sqrt(batch), 1 / 0.25)

    rows = iter(rng.permutation(n)[:steps * batch].tolist())

    def step(w):
        return np.mean([hinge_gradient_sample(w, msgs[next(rows)], cfg)
                        for _ in range(batch)], axis=0)

    return sigm_run(step, dim, schedule, steps), sigma, steps


@pytest.mark.parametrize("flavor", [hinge_flavor(),
                                    hinge_via_general_flavor(),
                                    QUADRATIC_FLAVOR],
                         ids=["hinge", "hinge-via-general", "quadratic"])
@pytest.mark.parametrize("budget", [PrivacyBudget(epsilon=300.0, delta=1e-5),
                                    NOISELESS], ids=["noised", "noiseless"])
def test_run_matches_per_message_replay(flavor, budget):
    # K = n = 60 steps of one message each
    data = generate_dataset({"family": "separable-two-class", "n": 60,
                             "dim": 3, "margin": 0.1}, 22)
    rng, ref = derived_rng(23), derived_rng(23)
    rep = glm_erm_run(data, flavor, target_alpha=1.0, budget=budget, rng=rng,
                      d_cap=2)
    want_w, want_sigma, steps = _replayed_run(data, flavor, budget, ref, 2)
    assert rep.steps == steps == 60
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rep.sigma == pytest.approx(want_sigma, rel=1e-12)
    scale = float(np.max(np.abs(want_w)))
    assert scale > 0.0
    assert float(np.max(np.abs(rep.w_priv - want_w))) <= 1e-12 * scale


def test_general_linear_run_equals_hinge_run():
    # the hinge's kink measure gives the hinge's coefficients, so on the
    # runtime smoke's ball config the two mechanisms fit the same model,
    # in one step at epsilon = 1 and in 15 at epsilon = 50
    data = generate_dataset({"family": "separable-two-class", "n": 2000,
                             "dim": 2}, 5)
    for epsilon, steps in ((1.0, 1), (50.0, 15)):
        hinge, general = (glm_erm_run(
            data, flavor, target_alpha=1.0,
            budget=PrivacyBudget(epsilon=epsilon, delta=1e-5),
            rng=derived_rng(28), d_cap=2)
            for flavor in (hinge_flavor(), hinge_via_general_flavor()))
        assert hinge.steps == general.steps == steps
        assert general.sigma == pytest.approx(hinge.sigma, rel=1e-9)
        assert np.max(np.abs(general.w_priv - hinge.w_priv)) <= 1e-12


@pytest.mark.parametrize("flavor", [hinge_flavor(),
                                    hinge_via_general_flavor(),
                                    QUADRATIC_FLAVOR],
                         ids=["hinge", "hinge-via-general", "quadratic"])
@pytest.mark.parametrize("budget", [PrivacyBudget(epsilon=100.0, delta=1e-5)],
                         ids=["noised"])
def test_batched_run_matches_per_message_replay(flavor, budget):
    # at epsilon = 100 on n = 60, K = 10, 10 and 20 steps average the
    # samples of B = 6, 6 and 3 messages (noiseless, sigma = 0 takes K = n
    # steps of one: test_run_matches_per_message_replay)
    data = generate_dataset({"family": "separable-two-class", "n": 60,
                             "dim": 3, "margin": 0.1}, 22)
    rng, ref = derived_rng(23), derived_rng(23)
    rep = glm_erm_run(data, flavor, target_alpha=1.0, budget=budget, rng=rng,
                      d_cap=2)
    want_w, want_sigma, steps = _replayed_run(data, flavor, budget, ref, 2)
    assert rep.steps == steps
    assert 1 < steps < 60
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rep.sigma == pytest.approx(want_sigma, rel=1e-12)
    scale = float(np.max(np.abs(want_w)))
    assert scale > 0.0
    assert float(np.max(np.abs(rep.w_priv - want_w))) <= 1e-12 * scale


@pytest.mark.parametrize("eps", [8.0, 50.0])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("quadratic", [False, True], ids=["hinge", "quadratic"])
def test_noise_scale_matches_monte_carlo(quadratic, d, eps):
    # the production sample of one record, encoded 200k times, at the grid
    # point where the closed-form variance peaks: its std is sigma
    cfg = (general_linear_oracle_config(d, 0.25, IDENTITY) if quadratic
           else GradientOracleConfig(d, hinge_coeffs(d, 0.25)))
    budget, dim, reps = PrivacyBudget(epsilon=eps, delta=1e-5), 3, 200_000
    ys, vs = glm_erm.NOISE_GRID
    variance = _gradient_variance(cfg, budget, dim, ys, vs)
    peak = np.unravel_index(np.argmax(variance), variance.shape)
    y, v = ys[peak[0], 0], vs[peak[1]]
    x, w = np.eye(dim)[0], np.array([v, math.sqrt(1.0 - v * v), 0.0])
    rng = derived_rng(30, d, int(eps))
    head_x, head_y, body_x, body_y = _encode_population(
        np.tile(x, (reps, 1)), np.full(reps, y), budget, d, rng)
    margins = (_fold(d)[0] * body_y) * (body_x @ w)
    grads = (cfg.scalars(margins) * head_y)[:, None] * head_x
    spread = math.sqrt(np.mean(np.sum((grads - grads.mean(axis=0)) ** 2,
                                      axis=1)))
    assert spread == pytest.approx(noise_scale(cfg, budget, dim), rel=0.03)
    assert noise_scale(cfg, NOISELESS, dim) == 0.0


def test_empirical_risk_matches_direct_mean():
    data = generate_dataset({"family": "separable-two-class", "n": 200,
                             "dim": 2, "margin": 0.2}, 3)
    w = np.array([0.5, 0.1])
    direct = np.mean(np.maximum(0.0, 0.5 - data.labels * (data.features @ w)))
    assert empirical_risk(data, hinge_flavor(), w) == pytest.approx(direct)


# 0.3 t: f'(-1) == f'(1), so every coefficient is the slope 0.3
AFFINE_FLAVOR = LossFlavor(
    name="general-linear", scalar_loss=lambda t: 0.3 * np.asarray(t),
    sampler=SubgradientSampler(lambda t: np.full(np.shape(t), 0.3)))


def _unfolded_scalars(margins, cfg):
    # the gradient scalar with unsigned arguments: t or 1 - t by a mask
    d = cfg.d
    rising = np.arange(d)[None, :] < np.arange(d + 1)[:, None]
    blocks = margins.reshape(margins.shape[:-1] + (d + 1, d))
    return np.where(rising, blocks, 1.0 - blocks).prod(axis=-1) @ cfg.weights


def _unfolded_mean(scalars_at, head, w, rows):
    # one step's mean sample: the sum of the draws' scalars times their
    # head rows taken BATCH_BLOCK at a time
    block = glm_erm.BATCH_BLOCK
    total = None
    for lo in range(0, len(rows), block):
        part = scalars_at(w, rows[lo:lo + block]) @ head[rows[lo:lo + block]]
        total = part if total is None else total + part
    return total / len(rows)


def _unfolded_run(data, flavor, budget, rng, d):
    # glm_erm_run at target_alpha = 1, step by step through the unsigned
    # gradient scalars; returns the fit, sigma and K
    cfg, _, sigma = glm_oracle(flavor, 1.0, budget, data.dim, d)
    head_x, head_y, body_x, body_y = _encode_population(
        data.features, data.labels, budget, d, rng)
    n, dim = data.n, data.dim
    head = head_y[:, None] * head_x

    def scalars_at(w, rows):
        return _unfolded_scalars(body_y[rows] * (body_x[rows] @ w), cfg)

    steps, batch = solver_batches(n, sigma, 1 / 0.25)
    schedule = SigmSchedule(sigma / math.sqrt(batch), 1 / 0.25)
    rows = rng.permutation(n)[:steps * batch]
    starts = iter(range(0, steps * batch, batch))

    def oracle(w):
        lo = next(starts)
        return _unfolded_mean(scalars_at, head, w, rows[lo:lo + batch])

    return sigm_run(oracle, dim, schedule, steps), sigma, steps


# the epsilon at which every loss at degree d takes a few steps of at least
# 37 draws on n = 300
BATCHED_EPSILON = {1: 10.0, 2: 40.0, 3: 150.0}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("flavor", [hinge_flavor(),
                                    hinge_via_general_flavor(),
                                    QUADRATIC_FLAVOR, AFFINE_FLAVOR],
                         ids=["hinge", "hinge-via-general", "quadratic",
                              "affine"])
def test_run_equals_unfolded_sample_by_sample_oracle(flavor, d, monkeypatch):
    # noiseless, K = n takes one draw a step; at the batched epsilon K is
    # 2 to 8 steps of 37 to 150 draws, evaluated in one block and then, at
    # a block of 16, in three or more
    data = generate_dataset({"family": "separable-two-class", "n": 300,
                             "dim": 3, "margin": 0.1}, 24)
    batched = PrivacyBudget(epsilon=BATCHED_EPSILON[d], delta=1e-5)
    for budget, block in ((NOISELESS, glm_erm.BATCH_BLOCK),
                          (batched, glm_erm.BATCH_BLOCK), (batched, 16)):
        monkeypatch.setattr(glm_erm, "BATCH_BLOCK", block)
        rng, ref = derived_rng(25, d), derived_rng(25, d)
        rep = glm_erm_run(data, flavor, target_alpha=1.0, budget=budget,
                          rng=rng, d_cap=d)
        want_w, want_sigma, steps = _unfolded_run(data, flavor, budget, ref,
                                                  d)
        assert rep.d == d and rep.steps == steps
        assert (steps == 300 if budget is NOISELESS else 1 < steps <= 8)
        assert rep.sigma == want_sigma
        assert np.any(want_w != 0.0)
        assert np.array_equal(rep.w_priv, want_w)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("flavor", [hinge_flavor(), hinge_via_general_flavor()],
                         ids=["hinge", "hinge-via-general"])
def test_server_uses_each_message_once_a_pass(flavor, monkeypatch):
    # the K steps of B rows come from one permutation: no message twice,
    # and fewer than B unused. On n = 300, epsilon = 2 gives one step over
    # every message and epsilon = 1000 n steps of one; at epsilon = 55 both
    # take 7 steps of 42, 294 messages
    seen = []
    batch_mean = glm_erm._batch_mean

    def recording(sample_scalars, head, w, rows):
        seen.append(rows)
        return batch_mean(sample_scalars, head, w, rows)

    monkeypatch.setattr(glm_erm, "_batch_mean", recording)
    data = generate_dataset({"family": "separable-two-class", "n": 300,
                             "dim": 3, "margin": 0.1}, 24)
    for epsilon, seed in ((2.0, 1), (55.0, 7), (1000.0, 300)):
        rep = glm_erm_run(data, flavor, target_alpha=1.0,
                          budget=PrivacyBudget(epsilon=epsilon, delta=1e-5),
                          rng=derived_rng(26, seed), d_cap=2)
        batch = 300 // rep.steps
        assert len(seen) == rep.steps
        assert all(len(rows) == batch for rows in seen)
        counts = np.bincount(np.concatenate(seen), minlength=300)
        seen.clear()
        assert counts.max() == 1 and 300 - counts.sum() < batch


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
    assert rep.steps == steps
    ((schedule, run_steps),) = calls
    assert run_steps == rep.steps
    # the schedule sees the noise of a mean of batch messages
    assert schedule.sigma == rep.sigma / math.sqrt(batch)
    assert schedule.smoothness == 1.0 / rep.beta


def test_solver_batches_rule():
    # no noise, or noise too small to divide by: one message a step
    assert solver_batches(4000, 0.0, 10.0) == (4000, 1)
    assert solver_batches(4000, 5e-324, 10.0) == (4000, 1)
    # K = ceil(L sqrt(n) / sigma): 10 * 100 / 3 = 333.3, so B = 29, and
    # K = n // B = 344 steps leave 24 messages unused (334 would leave 314)
    assert solver_batches(10_000, 3.0, 10.0) == (344, 29)
    # noise far above L sqrt(n): one step over every message
    assert solver_batches(20_000, 6.5e14, 4.0) == (1, 20_000)
    assert solver_batches(20_000, 1.7e308, 4.0) == (1, 20_000)
    for n in (1, 2, 3, 50, 999, 20_000):
        for sigma in (0.0, 1e-3, 0.7, 2.0, 13.0, 1e6):
            steps, batch = solver_batches(n, sigma, 4.0)
            assert 1 <= steps <= n and batch == n // steps
            assert steps * batch <= n and n - steps * batch < batch
