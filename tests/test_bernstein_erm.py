"""Tests for the grid-release protocols (Laplace-per-point and one-bit)."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from ldp_erm.bernstein_erm import (MAX_DIM, BernsteinModel, CubeDataset,
                                   _clipped, _sobol_starts, alg2_run,
                                   alg3_run, grid_points, minimize_model,
                                   row_loss)
from ldp_erm.errors import (ClippingWarning, ConfigurationError,
                            EstimationError, ParameterError,
                            SampleSizeWarning)
from grid_reference import (per_cell_onebit_means, per_player_grid_means,
                            player_losses)
from ldp_erm.harness import GRID_LOSSES, grid_loss_excess, make_grid_loss
from ldp_erm.polyapprox import (BernsteinOperatorSpec, contract_grid,
                                iterated_basis_pair)
from ldp_erm.primitives import PrivacyBudget
from ldp_erm.rng import derived_rng
from trial_messages import trial_messages

QUAD = make_grid_loss("quadratic")
NOISELESS = PrivacyBudget(epsilon=float("inf"))


def _cfg(k, h=1, p=1, epsilon=float("inf")):
    """The (spec, budget) pair a grid run takes."""
    return (BernsteinOperatorSpec(k=k, h=h, p=p),
            PrivacyBudget(epsilon=epsilon))


def _counting_loss(calls):
    """The quadratic term, appending each call's theta to ``calls``."""
    def term(x, theta):
        calls.append(theta)
        return QUAD(x, theta)
    return term


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


def test_cube_dataset_validation():
    with pytest.raises(ParameterError):
        CubeDataset(np.array([[1.2]]))
    d = CubeDataset(np.array([[0.1], [0.9]]))
    assert d.n == 2 and d.dim == 1


# --- the named grid losses ----------------------------------------------------


def _row_mean_loss(power):
    """The named losses as a mean over the row axis of an n x p array,
    with the power taken by repeated squaring as the package takes it."""
    def loss(theta, rows):
        d = rows - theta
        for _ in range(power.bit_length() - 1):
            d *= d
        return d.mean(axis=1)
    return loss


@pytest.mark.parametrize("name, power", [("quadratic", 2), ("quartic", 4)])
@pytest.mark.parametrize("p", range(1, 10))
def test_grid_loss_matches_row_mean(name, power, p):
    rng = derived_rng(14, power, p)
    rows = rng.random((500, p))
    k = 4 if p <= 3 else 2 if p <= 6 else 1
    thetas = np.vstack([rng.random((20, p)), grid_points(k, p)])
    term, ref = make_grid_loss(name), _row_mean_loss(power)
    for theta in thetas:
        got, want = row_loss(term, theta, rows), ref(theta, rows)
        if p <= 7:  # numpy's row mean adds up to 7 terms in order
            assert np.array_equal(got, want)
        else:  # and pairwise from 8 on: the last bits may differ
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_grid_runs_equal_with_row_mean_loss(p):
    # alg2 against each player's full (k+1)^p loss vector summed per point,
    # and alg3 against each player's row-mean loss at their cell's point
    k = 8 if p == 1 else 4
    data = CubeDataset(derived_rng(15, p).random((3_000, p)))
    spec, budget = _cfg(k=k, h=2, p=p, epsilon=0.5)
    for name in GRID_LOSSES:
        term = make_grid_loss(name)
        losses = player_losses(term, spec, data.rows)
        for run_budget in (budget, NOISELESS):
            rng, ref_rng = derived_rng(16, p), derived_rng(16, p)
            got = alg2_run(data, term, spec, run_budget, rng)
            want = per_player_grid_means(losses, run_budget, ref_rng)
            assert got.clipped == 0
            # the same Laplace draws, every point's in one call
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if p == 1:
                assert got.grid_estimates.tobytes() == want.tobytes()
                model = BernsteinModel(spec, want.reshape((k + 1,) * p))
                assert (got.w_priv.tobytes()
                        == minimize_model(model).tobytes())
            elif run_budget.noiseless:
                # the axis sums add each player's terms in another order
                assert np.all(np.abs(got.grid_estimates - want)
                              <= 4 * np.spacing(want))
            else:  # and the same draws on those totals move no more
                assert np.max(np.abs(got.grid_estimates - want)) <= 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleSizeWarning)
            got = alg3_run(data, term, spec, budget, seed=17 + p)
        want = per_cell_onebit_means(losses, budget.epsilon, 17 + p)
        assert got.grid_estimates.tobytes() == want.tobytes()
        assert got.clipped == 0
        model = BernsteinModel(spec, want.reshape((k + 1,) * p))
        assert got.w_priv.tobytes() == minimize_model(model).tobytes()


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


def test_alg2_transcript_one_message_per_player(tmp_path):
    rng = derived_rng(4)
    data = CubeDataset(rng.random((500, 1)))
    sent = trial_messages(tmp_path, "bernstein", data.rows, "cube",
                          {"k": 8, "epsilon": 2.0})
    assert int(sent["messages"]) == 500
    # (k+1)^p grid evaluations per message
    assert float(sent["reals_per_player"]) == 9.0


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
    hot = lambda x, theta: np.full(np.shape(x), 1.5)
    with pytest.warns(ClippingWarning, match="300 of 300 loss term"):
        release = alg2_run(data, hot, *_cfg(k=2, epsilon=4.0), rng)
    assert release.clipped == 300  # each player's three terms


def test_minimize_affine_model_hits_endpoint():
    k = 8
    nodes = np.arange(k + 1) / k
    down = BernsteinModel(BernsteinOperatorSpec(k=k, h=1, p=1), 0.9 - 0.6 * nodes)
    w = minimize_model(down)
    assert abs(w[0] - 1.0) < 1e-6
    up = BernsteinModel(BernsteinOperatorSpec(k=k, h=1, p=1), 0.1 + 0.6 * nodes)
    w = minimize_model(up)
    assert abs(w[0]) < 1e-6


def test_minimize_quadratic_fit():
    k = 16
    grid = ((np.arange(k + 1) / k) - 0.3) ** 2
    model = BernsteinModel(BernsteinOperatorSpec(k=k, h=1, p=1), grid)
    w = minimize_model(model)
    dense = np.linspace(0, 1, 1001)
    oracle = dense[np.argmin([model.value(np.array([y])) for y in dense])]
    assert abs(w[0] - 0.3) < 0.02
    assert abs(w[0] - oracle) < 2e-3


def test_minimize_tied_minima_returns_a_minimizer():
    k = 16
    nodes = np.arange(k + 1) / k
    grid = (nodes - 0.25) ** 2 * (nodes - 0.75) ** 2
    model = BernsteinModel(BernsteinOperatorSpec(k=k, h=1, p=1), grid)
    w = minimize_model(model)
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


def _per_start_minimize(model, starts=32, gd_iters=120):
    """The unit-cube minimiser written one start and one point at a time."""
    p = model.spec.p
    project = lambda w: np.clip(w, 0.0, 1.0)
    sob = qmc.Sobol(d=p, scramble=False)
    raw = sob.random(max(2, 1 << max(1, (starts - 1).bit_length())))[:starts]
    cands = [project(r) for r in raw]
    cands.append(np.full(p, 0.5))
    best_x, best_f = None, math.inf
    for start in cands:
        x = np.asarray(start, dtype=float)
        f = model.value(x)
        step = 0.25
        for _ in range(gd_iters):
            x_new = project(x - step * model.grad(x))
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
                cand = project(cand)
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
def test_minimize_matches_per_start_reference(p, h):
    k = 6 if p < 3 else 4
    rng = derived_rng(11, p, h)
    # a smooth bowl plus noise, like a released grid: several local minima
    nodes = grid_points(k, p)
    bowl = ((nodes - 0.4) ** 2).sum(axis=1)
    grid = (bowl + 0.3 * rng.random(len(nodes))).reshape((k + 1,) * p)
    model = BernsteinModel(BernsteinOperatorSpec(k=k, h=h, p=p), grid)
    want = _per_start_minimize(model)
    got = minimize_model(model)
    assert np.max(np.abs(got - want)) <= 1e-6
    assert model.value(got) <= model.value(want) + 1e-9
    # a row of a batched call is the one-row call, bit for bit, so the
    # lockstep search retraces every start exactly
    assert np.array_equal(got, want)


def test_minimize_flat_model_keeps_first_start():
    # every start ties: no step, no refinement candidate improves strictly,
    # so the first start (the first Sobol point, the origin) wins
    model = BernsteinModel(BernsteinOperatorSpec(k=4, h=2, p=2),
                           np.zeros((5, 5)))
    got = minimize_model(model)
    assert np.array_equal(got, np.zeros(2))


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


def _contracted(grid, k, h, ys):
    """Values and gradients from the iterated weights and their derivatives
    on ``grid``, with one contraction per number."""
    ws, dws = iterated_basis_pair(k, h, ys)
    cols = []
    for a in range(ws.shape[1]):
        rows = ws.copy()
        rows[:, a] = dws[:, a]
        cols.append(contract_grid(grid, rows))
    return contract_grid(grid, ws), np.stack(cols, axis=1)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_values_and_grads_equal_separate_calls_bit_for_bit(p):
    rng = derived_rng(14, p)
    k, h = (8, 2) if p < 3 else (4, 3)
    model = BernsteinModel(BernsteinOperatorSpec(k=k, h=h, p=p),
                           rng.random((k + 1,) * p))
    ys = rng.random((33, p))
    ys[0], ys[1] = 0.0, 1.0
    values, grads = model.values_and_grads(ys)
    assert values.shape == (33,) and grads.shape == (33, p)
    assert values.tobytes() == model.values(ys).tobytes()
    # the plain weights on the folded coefficients
    want = _contracted(model.coeffs, k, 1, ys)[1]
    assert grads.tobytes() == want.tobytes()
    assert grads.tobytes() == model.grads(ys).tobytes()
    for y, v, g in zip(ys, values, grads):
        assert v == model.value(y)
        assert g.tobytes() == model.grad(y).tobytes()
    with pytest.raises(ParameterError):
        model.values_and_grads(ys[0])  # one point, not a row of points


@pytest.mark.parametrize("k, h, p", [(8, 2, 2), (4, 3, 3), (12, 2, 1),
                                     (3, 2, 4)])
def test_folded_coefficients_match_iterated_weights(k, h, p):
    rng = derived_rng(19, k, h, p)
    grid = rng.random((k + 1,) * p)
    ys = rng.random((40, p))
    ys[0], ys[1] = 0.0, 1.0
    model = BernsteinModel(BernsteinOperatorSpec(k=k, h=h, p=p), grid)
    values, grads = model.values_and_grads(ys)
    want_values, want_grads = _contracted(grid, k, h, ys)
    assert np.max(np.abs(values - want_values)) <= 1e-13
    assert np.max(np.abs(grads - want_grads)) <= 1e-13
    # at h = 1 the fold is the identity: the same numbers, bit for bit
    plain = BernsteinModel(BernsteinOperatorSpec(k=k, h=1, p=p), grid)
    assert plain.coeffs is grid
    values, grads = plain.values_and_grads(ys)
    want_values, want_grads = _contracted(grid, k, 1, ys)
    assert values.tobytes() == want_values.tobytes()
    assert grads.tobytes() == want_grads.tobytes()


def test_clipped_losses_in_range_match_mask_path():
    for vals, outside in (([0.0, 0.25, 0.5, 1.0, -0.0], 0),
                          ([0.0, 0.25, -1e-10, 1.0, 0.5], 0),
                          ([0.0, 0.25, 1.0 + 2e-9, 1.0, 0.5], 1)):
        vals = np.array(vals)
        got, n_out = _clipped(vals, 5)
        assert got.tobytes() == np.clip(vals, 0.0, 1.0).tobytes()
        assert n_out == outside
    # a NaN takes the mask path, where the check rejects it
    with pytest.raises(ParameterError, match="values must lie in"):
        _clipped(np.array([0.5, math.nan, 0.5, 0.5, 0.5]), 5)
    # so the Laplace run rejects a NaN term before it draws any noise
    nan = lambda x, theta: np.full(np.shape(x), math.nan)
    data = CubeDataset(derived_rng(15).random((20, 1)))
    rng = derived_rng(16)
    before = rng.bit_generator.state
    with pytest.raises(ParameterError, match="values must lie in"):
        alg2_run(data, nan, *_cfg(k=2, epsilon=1.0), rng)
    assert rng.bit_generator.state == before


def test_model_rejects_points_outside_cube():
    model = BernsteinModel(BernsteinOperatorSpec(k=4, h=2, p=2),
                           np.zeros((5, 5)))
    with pytest.raises(ParameterError):
        model.value([0.5, 1.01])
    with pytest.raises(ParameterError):
        model.values(np.array([[0.5, 0.5], [-0.01, 0.5]]))
    with pytest.raises(ParameterError):
        model.grads(np.array([0.5, 0.5]))  # one point, not a row of points
    # the gradients check their points as the values do, NaN included
    for bad in ([[1.5, 0.5]], [[0.5, 0.5], [0.5, -0.01]], [[np.nan, 0.5]]):
        with pytest.raises(ParameterError):
            model.values_and_grads(np.array(bad))
        with pytest.raises(ParameterError):
            model.grads(np.array(bad))
        with pytest.raises(ParameterError):
            model.grad(bad[-1])
    # and accept the cube's faces up to the same 1e-12
    edge = np.array([[1.0 + 1e-12, -1e-12]])
    assert (model.values_and_grads(edge)[0].tobytes()
            == model.values(edge).tobytes())


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


def test_alg3_transcript_is_one_bit_per_player(tmp_path):
    rng = derived_rng(10)
    data = CubeDataset(rng.random((2_000, 1)))
    sent = trial_messages(tmp_path, "onebit", data.rows, "cube",
                          {"k": 2, "epsilon": 0.5}, seed=7)
    assert int(sent["messages"]) == 2_000
    assert float(sent["bits_per_player"]) == 1.0
    assert int(sent["messages"]) * float(sent["bits_per_player"]) == 2_000


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


def test_alg3_peak_memory_per_player():
    # the one-bit run holds a few arrays of n at once (the values, the
    # public draws with their probabilities, the partition); at the
    # benchmark's grid config its traced peak stays at 36 bytes a player
    n = 200_000
    data = CubeDataset(derived_rng(20).random((n, 2)))
    spec, budget = _cfg(k=8, h=2, p=2, epsilon=0.5)
    tracemalloc.start()
    try:
        alg3_run(data, QUAD, spec, budget, seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * n


def test_alg3_deterministic_given_seed():
    data = CubeDataset(derived_rng(13).random((5_000, 1)))
    a = alg3_run(data, QUAD, *_cfg(k=2, epsilon=0.5), seed=11)
    b = alg3_run(data, QUAD, *_cfg(k=2, epsilon=0.5), seed=11)
    assert np.array_equal(a.grid_estimates, b.grid_estimates)
    assert np.array_equal(a.w_priv, b.w_priv)
