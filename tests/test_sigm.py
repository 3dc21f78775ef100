"""Tests for the averaged dual-averaging solver and its schedule."""

import numpy as np
import pytest

from ldp_erm.errors import ParameterError
from ldp_erm.geometry import BallConstraint
from ldp_erm.rng import derived_rng
from ldp_erm.sigm import _CHUNK, SigmSchedule, sigm_run

WSTAR = np.array([0.3, -0.4])  # ||w*|| = 0.5
BALL = BallConstraint((0.0, 0.0), 1.0)


def exact_oracle(x, rng):
    return x - WSTAR


def test_schedule_arrays_equal_scalar_values():
    # the solver evaluates the schedule on an index array up front
    sch = SigmSchedule(sigma=0.7, radius=0.9, smoothness=2.0)
    idx = np.arange(0, 5_000)
    got = sch.beta(idx)
    assert got.shape == idx.shape
    assert isinstance(sch.beta(3), float)
    assert np.array_equal(got, [sch.beta(int(i)) for i in idx])


def test_ball_projection_off_origin():
    center = np.array([2.0, -1.0, 0.5])
    ball = BallConstraint(tuple(center), 0.5)
    rng = derived_rng(4)
    for _ in range(200):
        w = center + rng.normal(0.0, 0.6, 3)
        got = ball.project(w)
        offset = w - center
        if np.linalg.norm(offset) <= 0.5:
            assert np.array_equal(got, w)
        else:
            want = center + 0.5 * offset / np.linalg.norm(offset)
            assert np.allclose(got, want, rtol=0.0, atol=1e-15)
            assert abs(np.linalg.norm(got - center) - 0.5) <= 1e-15
    assert np.array_equal(ball.center(), center)
    ball.center()[0] = 9.0  # the returned centre is the caller's copy
    assert np.array_equal(ball.center(), center)
    assert np.array_equal(ball.project(center + 1e-3), center + 1e-3)


def test_ball_projection_rows_equal_one_row_projection():
    rng = derived_rng(5)
    for dim in (1, 2, 3, 5, 9):
        center = rng.normal(0.0, 2.0, dim)
        ball = BallConstraint(tuple(center), 0.7)
        rows = center + rng.normal(0.0, 0.6, (50, dim))
        rows[0] = center  # the centre itself stays put
        got = ball.project(rows)
        assert got.shape == rows.shape
        for w, row in zip(rows, got):
            assert np.array_equal(row, ball.project(w))


def test_schedule_validation():
    with pytest.raises(ParameterError):
        SigmSchedule(sigma=-1.0, radius=1.0)
    with pytest.raises(ParameterError):
        SigmSchedule(sigma=1.0, radius=0.0)
    with pytest.raises(ParameterError):
        SigmSchedule(sigma=0.0, radius=1.0, smoothness=0.0)  # no step scale


def _general_p_schedule(sch, p):
    # alpha, beta and B of the general-exponent SIGM schedule, each taken
    # one index at a time through a one-element array
    a = 2.0 ** ((p - 1) / 2.0)
    b = 2.0 ** ((5.0 - 2.0 * p) / 4.0) * p ** ((1.0 - 2.0 * p) / 2.0)

    def alpha(i):
        return float((((np.atleast_1d(i) + p) / p) ** (p - 1) / a)[0])

    def beta(i):
        growth = (np.atleast_1d(i) + p + 1.0) ** ((2.0 * p - 1.0) / 2.0)
        return float((sch.smoothness + b * sch.sigma / sch.radius * growth)[0])

    def big_b(i):
        return a * alpha(i) ** 2

    return alpha, beta, big_b


def _general_p_loop_run(oracle, constraint, schedule, iters, rng, trace):
    # the general-exponent SIGM loop at p = 1, with its extrapolation and
    # prox-point blends, every schedule value taken inside the loop
    alpha, beta, big_b = _general_p_schedule(schedule, 1)
    y = constraint.center()
    x = y.copy()
    grad_sum = alpha(1) * np.asarray(oracle(x, rng), dtype=float)
    a_running = alpha(0) + alpha(1)
    for k in range(1, iters):
        beta_k = beta(k)
        alpha_next = alpha(k + 1)
        b_next = big_b(k + 1)
        eta = alpha_next / b_next
        z = constraint.project(-grad_sum / beta_k)
        x = eta * z + (1.0 - eta) * y
        grad = np.asarray(oracle(x, rng), dtype=float)
        x_hat = constraint.project(z - (alpha_next / beta_k) * grad)
        w = eta * x_hat + (1.0 - eta) * y
        a_running += alpha_next
        y = ((a_running - b_next) / a_running) * y + (b_next / a_running) * w
        grad_sum += alpha_next * grad
        trace.append(y.copy())
    return y


@pytest.mark.parametrize("oracle", [
    lambda x, rng: x - WSTAR + rng.normal(0.0, 0.4, x.shape),
    exact_oracle,
], ids=["noisy", "exact"])
def test_run_equals_scalar_schedule_loop(oracle):
    sch = SigmSchedule(sigma=0.4, radius=1.0, smoothness=1.0)
    ball = BallConstraint((0.2, -0.1), 0.8)
    got, want = [], []
    rng_got, rng_want = derived_rng(8), derived_rng(8)
    y_got = sigm_run(oracle, ball, sch, 300, rng_got, trace=got)
    y_want = _general_p_loop_run(oracle, ball, sch, 300, rng_want, want)
    assert len(got) == len(want) == 299
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(y_got, y_want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def _step_loop_run(oracle, constraint, schedule, iters, rng, trace):
    # one step at a time: query, prox point and average, all in the loop;
    # also counts the dual-averaging points that fell outside the ball
    ks = np.arange(1, iters)
    beta = schedule.beta(ks)
    a_k = ks + 2.0
    steps = zip(beta.tolist(), (1.0 / beta).tolist(),
                ((a_k - 1.0) / a_k).tolist(), (1.0 / a_k).tolist())
    y = constraint.center()
    grad_sum = np.array(oracle(y, rng), dtype=float)
    outside = 0
    for beta_k, step_k, keep_k, take_k in steps:
        dual = -grad_sum / beta_k
        z = constraint.project(dual)
        outside += not np.array_equal(z, dual)
        grad = np.asarray(oracle(z, rng), dtype=float)
        x_hat = constraint.project(z - step_k * grad)
        y = keep_k * y + take_k * x_hat
        grad_sum += grad
        trace.append(y.copy())
    return y, outside


@pytest.mark.parametrize("iters", [1, 2, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17])
def test_run_equals_step_at_a_time_loop(iters):
    # the blocked query and prox/average passes compute the same floats
    sch = SigmSchedule(sigma=0.6, radius=0.5, smoothness=1.0)
    ball = BallConstraint((0.2, -0.1), 0.5)  # holds WSTAR
    oracle = lambda x, rng: x - WSTAR + rng.normal(0.0, 3.0, x.shape)
    got, want = [], []
    rng_got, rng_want = derived_rng(9, iters), derived_rng(9, iters)
    y_got = sigm_run(oracle, ball, sch, iters, rng_got, trace=got)
    y_want, outside = _step_loop_run(oracle, ball, sch, iters, rng_want, want)
    assert len(got) == len(want) == iters - 1
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(y_got, y_want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    if iters > 100:  # both branches of the projection were taken
        assert 0 < outside < iters - 1


def test_exact_quadratic_converges():
    sch = SigmSchedule(sigma=0.0, radius=1.0, smoothness=1.0)
    y = sigm_run(exact_oracle, BALL, sch, 500, derived_rng(0))
    gap = 0.5 * np.sum((y - WSTAR) ** 2)
    assert gap <= 1e-3


def test_iterates_stay_feasible():
    sch = SigmSchedule(sigma=0.5, radius=1.0, smoothness=1.0)
    big_noise = lambda x, rng: x - WSTAR + rng.normal(0.0, 3.0, x.shape)
    trace = []
    sigm_run(big_noise, BALL, sch, 400, derived_rng(1), trace=trace)
    radii = [np.linalg.norm(p) for p in trace]
    assert max(radii) <= 1.0 + 1e-12


def test_min_so_far_envelope_decreases():
    sch = SigmSchedule(sigma=0.0, radius=1.0, smoothness=1.0)
    trace = []
    sigm_run(exact_oracle, BALL, sch, 200, derived_rng(2), trace=trace)
    vals = [0.5 * np.sum((p - WSTAR) ** 2) for p in trace]
    env = np.minimum.accumulate(vals)
    assert np.all(np.diff(env) <= 0.0 + 1e-18)
    assert env[-1] < vals[0]


def test_noise_rate_under_quadrupled_budget():
    # distance to optimum should shrink roughly like 1/sqrt(T)
    sigma = 0.5
    sch = SigmSchedule(sigma=sigma, radius=1.0, smoothness=1.0)

    def noisy(x, rng):
        return x - WSTAR + rng.normal(0.0, sigma, x.shape)

    def mean_dist(T):
        ds = [np.linalg.norm(sigm_run(noisy, BALL, sch, T, derived_rng(1, s)) - WSTAR)
              for s in range(20)]
        return float(np.mean(ds))

    ratio = mean_dist(2_500) / mean_dist(10_000)
    assert 1.6 <= ratio <= 2.6


def test_bias_floor():
    gamma = 0.05
    bias = gamma * np.array([1.0, 0.0])
    oracle = lambda x, rng: x - WSTAR + bias
    sch = SigmSchedule(sigma=0.0, radius=1.0, smoothness=1.0)
    y = sigm_run(oracle, BALL, sch, 100_000, derived_rng(3))
    dist = np.linalg.norm(y - WSTAR)
    assert gamma / 2 <= dist <= gamma + 1e-3


def test_deterministic_given_seed():
    sigma = 0.2
    sch = SigmSchedule(sigma=sigma, radius=1.0, smoothness=1.0)
    noisy = lambda x, rng: x - WSTAR + rng.normal(0.0, sigma, x.shape)
    t1, t2 = [], []
    sigm_run(noisy, BALL, sch, 300, derived_rng(7), trace=t1)
    sigm_run(noisy, BALL, sch, 300, derived_rng(7), trace=t2)
    assert all(np.array_equal(a, b) for a, b in zip(t1, t2))


def test_rejects_zero_iterations():
    sch = SigmSchedule(sigma=0.0, radius=1.0, smoothness=1.0)
    with pytest.raises(ParameterError):
        sigm_run(exact_oracle, BALL, sch, 0, derived_rng(0))
