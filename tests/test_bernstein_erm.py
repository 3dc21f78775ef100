"""Tests for the grid-release protocols (Laplace-per-point and one-bit)."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from ldp_erm.bernstein_erm import (MAX_DIM, BernsteinModel, CubeDataset,
                                   _sobol_starts, alg2_run, alg3_run,
                                   grid_points, minimize_model,
                                   recommended_k)
from ldp_erm.errors import (ClippingWarning, ConfigurationError,
                            EstimationError, ParameterError,
                            SampleSizeWarning)
from ldp_erm.geometry import BallConstraint, BoxConstraint
from ldp_erm.harness import grid_loss_excess, make_grid_loss
from ldp_erm.polyapprox import BernsteinOperatorSpec
from ldp_erm.primitives import PrivacyBudget, Transcript
from ldp_erm.rng import derived_rng

QUAD = make_grid_loss("quadratic")
NOISELESS = PrivacyBudget(epsilon=float("inf"))


def _cfg(k, h=1, p=1, epsilon=float("inf")):
    """The (spec, budget) pair a grid run takes."""
    return (BernsteinOperatorSpec(k=k, h=h, p=p),
            PrivacyBudget(epsilon=epsilon))


def _counting_loss(calls):
    """The quadratic loss, appending each call's theta to ``calls``."""
    def loss(theta, rows):
        calls.append(theta)
        return QUAD(theta, rows)
    return loss


def test_grid_points_enumeration():
    pts = grid_points(1, 2)
    assert np.array_equal(pts, [[0, 0], [0, 1], [1, 0], [1, 1]])
    assert np.array_equal(grid_points(2, 1).ravel(), [0.0, 0.5, 1.0])
    assert grid_points(3, 3).shape == (64, 3)


def test_grid_cap_error_names_tradeoff():
    assert grid_points(20, 4).shape == (21 ** 4, 4)  # 194 481 points
    with pytest.raises(ConfigurationError) as err:
        grid_points(21, 4)  # 234 256 points
    assert "above the cap 200000" in str(err.value)
    assert "the largest supported k is 20" in str(err.value)


def test_recommended_k_monotone():
    small = recommended_k(10_000, 1, 1, 1.0)
    large = recommended_k(1_000_000, 1, 1, 1.0)
    assert 1 <= small <= large


def test_cube_dataset_validation():
    with pytest.raises(ParameterError):
        CubeDataset(np.array([[1.2]]))
    d = CubeDataset(np.array([[0.1], [0.9]]))
    assert d.n == 2 and d.dim == 1


# --- the named grid losses ----------------------------------------------------


def _row_mean_loss(power):
    """The named losses as a mean over the row axis of an n x p array."""
    return lambda theta, rows: ((rows - theta) ** power).mean(axis=1)


@pytest.mark.parametrize("name, power", [("quadratic", 2), ("quartic", 4)])
@pytest.mark.parametrize("p", range(1, 10))
def test_grid_loss_matches_row_mean(name, power, p):
    rng = derived_rng(14, power, p)
    rows = rng.random((500, p))
    k = 4 if p <= 3 else 2 if p <= 6 else 1
    thetas = np.vstack([rng.random((20, p)), grid_points(k, p)])
    loss, ref = make_grid_loss(name), _row_mean_loss(power)
    for theta in thetas:
        got, want = loss(theta, rows), ref(theta, rows)
        if p <= 7:  # numpy's row mean adds up to 7 terms in order
            assert np.array_equal(got, want)
        else:  # and pairwise from 8 on: the last bits may differ
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_grid_runs_equal_with_row_mean_loss(p):
    k = 8 if p == 1 else 4
    data = CubeDataset(derived_rng(15, p).random((3_000, p)))
    cfg = _cfg(k=k, h=2, p=p, epsilon=0.5)
    for name, power in (("quadratic", 2), ("quartic", 4)):
        loss, ref = make_grid_loss(name), _row_mean_loss(power)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleSizeWarning)
            pairs = [(alg2_run(data, f, *cfg, derived_rng(16, p)),
                      alg3_run(data, f, *cfg, seed=17 + p))
                     for f in (loss, ref)]
        for got, want in zip(*pairs):
            assert np.array_equal(got.grid_estimates, want.grid_estimates)
            assert got.clipped == want.clipped
            assert np.array_equal(got.w_priv, want.w_priv)


def test_alg2_noiseless_quadratic_recovers_mean():
    rng = derived_rng(1)
    rows = rng.random((20_000, 1))
    release = alg2_run(CubeDataset(rows), QUAD, *_cfg(k=16), rng)
    assert abs(release.w_priv[0] - rows.mean()) < 0.05


def test_alg2_flat_loss_is_flat():
    rng = derived_rng(2)
    data = CubeDataset(rng.random((5_000, 1)))
    release = alg2_run(data, make_grid_loss("flat"), *_cfg(k=4, epsilon=8.0), rng)
    assert np.max(np.abs(release.grid_estimates - 0.5)) < 0.2
    assert grid_loss_excess("flat", data, release.w_priv) == 0.0


def test_alg2_quartic_private_excess():
    # n=10^6 at eps=2: the excess stays under 0.1 in >= 90% of 20 trials
    hits = 0
    errs = []
    for trial in range(20):
        rng = derived_rng(3, trial)
        data = CubeDataset(rng.random((1_000_000, 1)))
        release = alg2_run(data, make_grid_loss("quartic"), *_cfg(k=8, epsilon=2.0), rng)
        err = grid_loss_excess("quartic", data, release.w_priv)
        errs.append(err)
        assert err >= -1e-9
        if err <= 0.1:
            hits += 1
    assert hits >= 18, f"excess errors {errs}"


def test_alg2_budget_split_accounting():
    spec, budget = _cfg(k=8, p=1, epsilon=2.0)
    size = (spec.k + 1) ** spec.p
    per_point = budget.split(size)
    assert abs(per_point.epsilon * size - 2.0) < 1e-12


def test_alg2_transcript_one_message_per_player():
    rng = derived_rng(4)
    t = Transcript()
    data = CubeDataset(rng.random((500, 1)))
    alg2_run(data, QUAD, *_cfg(k=8, epsilon=2.0), rng, transcript=t)
    assert t.n_messages == 500
    assert t.reals_per_player() == 9.0  # (k+1)^p grid evaluations per message


def test_alg2_noiseless_surrogate_decomposition():
    # with noise off the fit interpolates the empirical risk at grid points
    # exactly, and interior error is pure operator approximation error
    rng = derived_rng(5)
    rows = rng.random((20_000, 1))
    data = CubeDataset(rows)
    release = alg2_run(data, QUAD, *_cfg(k=8), rng)
    nodes = np.arange(9) / 8
    emp_grid = np.array([((rows - v) ** 2).mean() for v in nodes])
    assert np.max(np.abs(release.grid_estimates - emp_grid)) == 0.0
    ys = np.linspace(0, 1, 301)
    emp = np.array([((rows - y) ** 2).mean() for y in ys])
    fit = np.array([release.model.value(np.array([y])) for y in ys])
    assert np.max(np.abs(fit - emp)) <= 0.04  # ~ sup|f''|/(4k) for k=8


def test_alg2_clipping_warns():
    rng = derived_rng(6)
    data = CubeDataset(rng.random((100, 1)))
    hot = lambda theta, rows: np.full(rows.shape[0], 1.5)
    with pytest.warns(ClippingWarning):
        alg2_run(data, hot, *_cfg(k=2, epsilon=4.0), rng)


def test_minimize_affine_model_hits_endpoint():
    k = 8
    nodes = np.arange(k + 1) / k
    down = BernsteinModel(BernsteinOperatorSpec(k=k, h=1, p=1), 0.9 - 0.6 * nodes)
    w = minimize_model(down, BoxConstraint(0.0, 1.0, 1))
    assert abs(w[0] - 1.0) < 1e-6
    up = BernsteinModel(BernsteinOperatorSpec(k=k, h=1, p=1), 0.1 + 0.6 * nodes)
    w = minimize_model(up, BoxConstraint(0.0, 1.0, 1))
    assert abs(w[0]) < 1e-6


def test_minimize_quadratic_fit():
    k = 16
    grid = ((np.arange(k + 1) / k) - 0.3) ** 2
    model = BernsteinModel(BernsteinOperatorSpec(k=k, h=1, p=1), grid)
    w = minimize_model(model, BoxConstraint(0.0, 1.0, 1))
    dense = np.linspace(0, 1, 1001)
    oracle = dense[np.argmin([model.value(np.array([y])) for y in dense])]
    assert abs(w[0] - 0.3) < 0.02
    assert abs(w[0] - oracle) < 2e-3


def test_minimize_tied_minima_returns_a_minimizer():
    k = 16
    nodes = np.arange(k + 1) / k
    grid = (nodes - 0.25) ** 2 * (nodes - 0.75) ** 2
    model = BernsteinModel(BernsteinOperatorSpec(k=k, h=1, p=1), grid)
    w = minimize_model(model, BoxConstraint(0.0, 1.0, 1))
    dense = np.linspace(0, 1, 2001)
    best = min(model.value(np.array([y])) for y in dense)
    assert model.value(w) <= best + 1e-9


def test_model_gradient_matches_fd():
    rng = derived_rng(7)
    grid = rng.random((5, 5))
    model = BernsteinModel(BernsteinOperatorSpec(k=4, h=2, p=2), grid)
    for _ in range(10):
        y = 0.1 + 0.8 * rng.random(2)
        g = model.grad(y)
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = 1e-6
            fd = (model.value(y + e) - model.value(y - e)) / 2e-6
            assert abs(g[ax] - fd) < 1e-5


def _per_start_minimize(model, constraint, starts=32, gd_iters=120):
    """The minimiser written one start and one point at a time."""
    p = model.spec.p
    sob = qmc.Sobol(d=p, scramble=False)
    raw = sob.random(max(2, 1 << max(1, (starts - 1).bit_length())))[:starts]
    cands = [constraint.project(r) for r in raw]
    cands.append(np.asarray(constraint.center(), dtype=float))
    best_x, best_f = None, math.inf
    for start in cands:
        x = np.asarray(start, dtype=float)
        f = model.value(x)
        step = 0.25
        for _ in range(gd_iters):
            x_new = constraint.project(x - step * model.grad(x))
            f_new = model.value(x_new)
            if f_new < f - 1e-15:
                x, f = x_new, f_new
                step = min(step * 1.25, 1.0)
            else:
                step *= 0.5
                if step < 1e-7:
                    break
        if f < best_f:
            best_x, best_f = x, f
    x = best_x
    for width in (0.05, 0.005):
        for axis in range(p):
            for t in np.linspace(-width, width, 41):
                cand = x.copy()
                cand[axis] += t
                cand = constraint.project(cand)
                f_cand = model.value(cand)
                if f_cand < best_f:
                    best_x, best_f = cand, f_cand
            x = best_x
    return best_x


@pytest.mark.parametrize("p", range(1, MAX_DIM + 1))
def test_sobol_starts_match_scipy(p):
    want = qmc.Sobol(d=p, scramble=False).random(32)
    got = _sobol_starts(p)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_grid_dimension_above_table_rejected_up_front():
    assert MAX_DIM == 40
    with pytest.raises(ConfigurationError, match="p <= 40"):
        grid_points(1, MAX_DIM + 1)
    with pytest.raises(ConfigurationError, match="p <= 40"):
        _sobol_starts(MAX_DIM + 1)
    # both runs check it before any player's loss is evaluated
    data = CubeDataset(derived_rng(17).random((100, MAX_DIM + 1)))
    calls = []
    with pytest.raises(ConfigurationError, match="p <= 40"):
        alg2_run(data, _counting_loss(calls),
                 *_cfg(k=1, p=MAX_DIM + 1, epsilon=0.5), derived_rng(18))
    with pytest.raises(ConfigurationError, match="p <= 40"):
        alg3_run(data, _counting_loss(calls),
                 *_cfg(k=1, p=MAX_DIM + 1, epsilon=0.5), seed=19)
    assert not calls


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("shape", ["box", "ball"])
def test_minimize_matches_per_start_reference(p, h, shape):
    k = 6 if p < 3 else 4
    rng = derived_rng(11, p, h)
    # a smooth bowl plus noise, like a released grid: several local minima
    nodes = grid_points(k, p)
    bowl = ((nodes - 0.4) ** 2).sum(axis=1)
    grid = (bowl + 0.3 * rng.random(len(nodes))).reshape((k + 1,) * p)
    model = BernsteinModel(BernsteinOperatorSpec(k=k, h=h, p=p), grid)
    constraint = (BoxConstraint(0.0, 1.0, p) if shape == "box" else
                  BallConstraint((0.6, 0.45, 0.55)[:p], 0.3))
    want = _per_start_minimize(model, constraint)
    got = minimize_model(model, constraint)
    assert np.max(np.abs(got - want)) <= 1e-6
    assert model.value(got) <= model.value(want) + 1e-9
    # a row of a batched call is the one-row call, bit for bit, so the
    # lockstep search retraces every start exactly
    assert np.array_equal(got, want)


@pytest.mark.parametrize("constraint", [
    BoxConstraint(0.0, 1.0, 2), BallConstraint((0.6, 0.45), 0.3)])
def test_minimize_flat_model_keeps_first_start(constraint):
    # every start ties: no step, no refinement candidate improves strictly,
    # so the first start (the first Sobol point, projected) wins
    model = BernsteinModel(BernsteinOperatorSpec(k=4, h=2, p=2),
                           np.zeros((5, 5)))
    got = minimize_model(model, constraint)
    assert np.array_equal(got, constraint.project(np.zeros(2)))


def test_model_rows_equal_one_row_calls():
    rng = derived_rng(12)
    for p, h in ((1, 1), (2, 2), (3, 3)):
        grid = rng.random((5,) * p)
        model = BernsteinModel(BernsteinOperatorSpec(k=4, h=h, p=p), grid)
        ys = rng.random((33, p))
        values, grads = model.values(ys), model.grads(ys)
        assert values.shape == (33,) and grads.shape == (33, p)
        for y, v, g in zip(ys, values, grads):
            assert v == model.value(y)
            assert np.array_equal(g, model.grad(y))


def test_model_rejects_points_outside_cube():
    model = BernsteinModel(BernsteinOperatorSpec(k=4, h=2, p=2),
                           np.zeros((5, 5)))
    with pytest.raises(ParameterError):
        model.value([0.5, 1.01])
    with pytest.raises(ParameterError):
        model.values(np.array([[0.5, 0.5], [-0.01, 0.5]]))
    with pytest.raises(ParameterError):
        model.grads(np.array([0.5, 0.5]))  # one point, not a row of points


# --- one-bit protocol -------------------------------------------------------------


def test_alg3_requires_small_epsilon():
    data = CubeDataset(derived_rng(8).random((100, 1)))
    with pytest.raises(ParameterError):
        alg3_run(data, QUAD, *_cfg(k=2, epsilon=1.0), seed=0)


def test_alg3_flat_loss_decodes_constant():
    rng = derived_rng(9)
    data = CubeDataset(rng.random((60_000, 1)))
    flat = make_grid_loss("flat")
    release = alg3_run(data, flat, *_cfg(k=2, epsilon=0.5), seed=42)
    assert np.max(np.abs(release.grid_estimates - 0.5)) < 0.15


def test_alg3_transcript_is_one_bit_per_player():
    rng = derived_rng(10)
    data = CubeDataset(rng.random((2_000, 1)))
    t = Transcript()
    alg3_run(data, QUAD, *_cfg(k=2, epsilon=0.5), seed=7, transcript=t)
    assert t.n_messages == 2_000
    assert t.bits_per_player() == 1.0
    assert t.total_bits == 2_000


def test_alg3_warns_when_n_small():
    data = CubeDataset(derived_rng(11).random((15, 1)))
    with pytest.warns(SampleSizeWarning):
        alg3_run(data, QUAD, *_cfg(k=8, epsilon=0.5), seed=3)


def test_alg3_empty_cell_fails_with_diagnostic():
    data = CubeDataset(derived_rng(12).random((3, 1)))
    calls = []
    with pytest.warns(SampleSizeWarning):
        with pytest.raises(EstimationError) as err:
            alg3_run(data, _counting_loss(calls), *_cfg(k=3, epsilon=0.5),
                     seed=5)
    assert "3 players cannot fill 4 grid points" in str(err.value)
    assert "needs n >= (k+1)^p" in str(err.value)
    assert not calls


def test_alg3_deterministic_given_seed():
    data = CubeDataset(derived_rng(13).random((5_000, 1)))
    a = alg3_run(data, QUAD, *_cfg(k=2, epsilon=0.5), seed=11)
    b = alg3_run(data, QUAD, *_cfg(k=2, epsilon=0.5), seed=11)
    assert np.array_equal(a.grid_estimates, b.grid_estimates)
    assert np.array_equal(a.w_priv, b.w_priv)
