"""Tests for the averaged dual-averaging solver and its schedule."""

import math

import numpy as np
import pytest

from ldp_erm.errors import ParameterError
from ldp_erm.geometry import project_unit_ball
from ldp_erm.rng import derived_rng
from ldp_erm.sigm import _CHUNK, SigmSchedule, sigm_run

WSTAR = np.array([0.3, -0.4])  # ||w*|| = 0.5
DIM = 2


def exact_oracle(x):
    return x - WSTAR


def noisy_oracle(sigma, rng):
    """The exact gradient plus N(0, sigma^2) noise per coordinate from ``rng``."""
    return lambda x: x - WSTAR + rng.normal(0.0, sigma, x.shape)


def _recorded(oracle):
    """``oracle``, and the list it appends a copy of each query point to."""
    queries = []

    def call(x):
        queries.append(np.array(x))
        return oracle(x)
    return call, queries


def test_schedule_arrays_equal_scalar_values():
    # the solver evaluates the schedule on an index array up front
    sch = SigmSchedule(sigma=0.7, smoothness=2.0)
    idx = np.arange(0, 5_000)
    got = sch.beta(idx)
    assert got.shape == idx.shape
    assert np.array_equal(got, [sch.beta(idx[i:i + 1])[0] for i in idx])


def test_ball_projection_rows_equal_one_row_projection():
    rng = derived_rng(5)
    inside = np.array([0.3, -0.4])
    assert project_unit_ball(inside) is inside  # a point inside stays put
    for dim in (1, 2, 3, 5, 9):
        rows = rng.normal(0.0, 0.6, (50, dim))
        rows[0] = 0.0  # the origin itself stays put
        got = project_unit_ball(rows)
        assert got.shape == rows.shape
        for w, row in zip(rows, got):
            assert np.array_equal(row, project_unit_ball(w))


def test_schedule_validation():
    with pytest.raises(ParameterError):
        SigmSchedule(sigma=-1.0, smoothness=1.0)
    with pytest.raises(ParameterError):
        SigmSchedule(sigma=1.0, smoothness=0.0)  # no smooth part to step by
    with pytest.raises(ParameterError):
        SigmSchedule(sigma=0.0, smoothness=0.0)  # no step scale


@pytest.mark.parametrize("sigma, smoothness", [
    (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
def test_schedule_rejects_non_finite_scales(sigma, smoothness):
    # NaN fails every comparison, so a sign test alone would let it through
    with pytest.raises(ParameterError):
        SigmSchedule(sigma=sigma, smoothness=smoothness)


def _general_p_schedule(sch, p):
    # alpha, beta and B of the general-exponent SIGM schedule, each taken
    # one index at a time through a one-element array
    a = 2.0 ** ((p - 1) / 2.0)
    b = 2.0 ** ((5.0 - 2.0 * p) / 4.0) * p ** ((1.0 - 2.0 * p) / 2.0)

    def alpha(i):
        return float((((np.atleast_1d(i) + p) / p) ** (p - 1) / a)[0])

    def beta(i):
        growth = (np.atleast_1d(i) + p + 1.0) ** ((2.0 * p - 1.0) / 2.0)
        return float((sch.smoothness + b * sch.sigma * growth)[0])

    def big_b(i):
        return a * alpha(i) ** 2

    return alpha, beta, big_b


def _general_p_loop_run(oracle, dim, schedule, iters):
    # the general-exponent SIGM loop at p = 1, with its extrapolation and
    # prox-point blends, every schedule value taken inside the loop
    alpha, beta, big_b = _general_p_schedule(schedule, 1)
    y = np.zeros(dim)
    x = y.copy()
    grad_sum = alpha(1) * np.asarray(oracle(x), dtype=float)
    a_running = alpha(0) + alpha(1)
    for k in range(1, iters):
        beta_k = beta(k)
        alpha_next = alpha(k + 1)
        b_next = big_b(k + 1)
        eta = alpha_next / b_next
        z = project_unit_ball(-grad_sum / beta_k)
        x = eta * z + (1.0 - eta) * y
        grad = np.asarray(oracle(x), dtype=float)
        x_hat = project_unit_ball(z - (alpha_next / beta_k) * grad)
        w = eta * x_hat + (1.0 - eta) * y
        a_running += alpha_next
        y = ((a_running - b_next) / a_running) * y + (b_next / a_running) * w
        grad_sum += alpha_next * grad
    return y


@pytest.mark.parametrize("make_oracle", [
    lambda rng: noisy_oracle(0.4, rng),
    lambda rng: exact_oracle,
], ids=["noisy", "exact"])
def test_run_equals_scalar_schedule_loop(make_oracle):
    sch = SigmSchedule(sigma=0.4, smoothness=1.0)
    rng_got, rng_want = derived_rng(8), derived_rng(8)
    oracle_got, got = _recorded(make_oracle(rng_got))
    oracle_want, want = _recorded(make_oracle(rng_want))
    y_got = sigm_run(oracle_got, DIM, sch, 300)
    y_want = _general_p_loop_run(oracle_want, DIM, sch, 300)
    # the same point at every query, and the same final average
    assert len(got) == len(want) == 300
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(y_got, y_want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def _step_loop_run(oracle, dim, schedule, iters):
    # one step at a time: query, prox point and average, all in the loop;
    # also counts the dual-averaging points that fell outside the ball
    ks = np.arange(1, iters)
    beta = schedule.beta(ks)
    a_k = ks + 2.0
    steps = zip(beta.tolist(), (1.0 / beta).tolist(),
                ((a_k - 1.0) / a_k).tolist(), (1.0 / a_k).tolist())
    y = np.zeros(dim)
    grad_sum = np.array(oracle(y), dtype=float)
    outside = 0
    for beta_k, step_k, keep_k, take_k in steps:
        dual = -grad_sum / beta_k
        z = project_unit_ball(dual)
        outside += not np.array_equal(z, dual)
        grad = np.asarray(oracle(z), dtype=float)
        x_hat = project_unit_ball(z - step_k * grad)
        y = keep_k * y + take_k * x_hat
        grad_sum += grad
    return y, outside


@pytest.mark.parametrize("iters", [1, 2, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17])
def test_run_equals_step_at_a_time_loop(iters):
    # the blocked query and prox/average passes compute the same floats
    sch = SigmSchedule(sigma=0.6, smoothness=1.0)
    rng_got, rng_want = derived_rng(9, iters), derived_rng(9, iters)
    oracle_got, got = _recorded(noisy_oracle(3.0, rng_got))
    oracle_want, want = _recorded(noisy_oracle(3.0, rng_want))
    y_got = sigm_run(oracle_got, DIM, sch, iters)
    y_want, outside = _step_loop_run(oracle_want, DIM, sch, iters)
    assert len(got) == len(want) == iters
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(y_got, y_want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    if iters > 100:  # both branches of the projection were taken
        assert 0 < outside < iters - 1


def test_exact_quadratic_converges():
    sch = SigmSchedule(sigma=0.0, smoothness=1.0)
    y = sigm_run(exact_oracle, DIM, sch, 500)
    gap = 0.5 * np.sum((y - WSTAR) ** 2)
    assert gap <= 1e-3


def test_iterates_stay_feasible():
    sch = SigmSchedule(sigma=0.5, smoothness=1.0)
    oracle, queries = _recorded(noisy_oracle(3.0, derived_rng(1)))
    y = sigm_run(oracle, DIM, sch, 400)
    radii = [np.linalg.norm(p) for p in [*queries, y]]
    assert max(radii) <= 1.0 + 1e-12


def test_min_so_far_envelope_decreases():
    sch = SigmSchedule(sigma=0.0, smoothness=1.0)
    # the average after each of the 199 steps of a 200-query run
    path = [sigm_run(exact_oracle, DIM, sch, iters)
            for iters in range(2, 201)]
    vals = [0.5 * np.sum((p - WSTAR) ** 2) for p in path]
    env = np.minimum.accumulate(vals)
    assert np.all(np.diff(env) <= 0.0 + 1e-18)
    assert env[-1] < vals[0]


def test_noise_rate_under_quadrupled_budget():
    # distance to optimum should shrink roughly like 1/sqrt(T)
    sigma = 0.5
    sch = SigmSchedule(sigma=sigma, smoothness=1.0)

    def mean_dist(T):
        ds = [np.linalg.norm(sigm_run(noisy_oracle(sigma, derived_rng(1, s)),
                                      DIM, sch, T) - WSTAR)
              for s in range(20)]
        return float(np.mean(ds))

    ratio = mean_dist(2_500) / mean_dist(10_000)
    assert 1.6 <= ratio <= 2.6


def test_bias_floor():
    gamma = 0.05
    bias = gamma * np.array([1.0, 0.0])
    oracle = lambda x: x - WSTAR + bias
    sch = SigmSchedule(sigma=0.0, smoothness=1.0)
    y = sigm_run(oracle, DIM, sch, 100_000)
    dist = np.linalg.norm(y - WSTAR)
    assert gamma / 2 <= dist <= gamma + 1e-3


def test_deterministic_given_seed():
    sigma = 0.2
    sch = SigmSchedule(sigma=sigma, smoothness=1.0)
    oracle1, q1 = _recorded(noisy_oracle(sigma, derived_rng(7)))
    oracle2, q2 = _recorded(noisy_oracle(sigma, derived_rng(7)))
    y1 = sigm_run(oracle1, DIM, sch, 300)
    y2 = sigm_run(oracle2, DIM, sch, 300)
    assert len(q1) == len(q2) == 300
    assert all(np.array_equal(a, b) for a, b in zip(q1, q2))
    assert np.array_equal(y1, y2)


def test_rejects_zero_iterations():
    sch = SigmSchedule(sigma=0.0, smoothness=1.0)
    with pytest.raises(ParameterError):
        sigm_run(exact_oracle, DIM, sch, 0)
