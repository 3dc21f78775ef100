"""Tests for dataset generation, baseline solvers, and the experiment runner."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from grid_reference import dense_grid_minimize
from ldp_erm import baselines, harness
from ldp_erm.baselines import (certified_lower_bound, glm_baseline,
                               projected_subgradient)
from ldp_erm.bernstein_erm import CubeDataset, check_grid_size, grid_points
from ldp_erm.datasets import (DRAW_ROWS, FAMILY_KEYS, generate_dataset,
                              separable_two_class)
from ldp_erm.errors import (ConfigurationError, ParameterError,
                            SampleSizeWarning)
from ldp_erm.geometry import project_unit_ball
from ldp_erm.glm_erm import (BallDataset, glm_oracle, glm_player_encode,
                             hinge_flavor, solver_batches)
from ldp_erm.harness import (MECHANISMS, REPORT_COLUMNS, TRANSCRIPT_COLUMNS,
                             ExperimentConfig, apply_set_overrides,
                             grid_loss_excess, load_config, make_grid_loss,
                             run_experiment, _cells)
from ldp_erm.primitives import PrivacyBudget, ldp_avg_1d, onebit_encode_many
from ldp_erm.query_release import (BinaryDataset, BoxDataset, check_basis_cap,
                                   check_expansion_cap, marginals_release,
                                   smooth_release)
from ldp_erm.rng import TAG_DATASET, derived_rng
from ldp_erm import cli


# --- datasets ---------------------------------------------------------------


def test_separable_construction_has_margin():
    data = generate_dataset({"family": "separable-two-class", "n": 1000,
                             "dim": 5, "margin": 0.2}, 11)
    assert isinstance(data, BallDataset)
    # the +-xi pairing cancels in the label-weighted sum, so it recovers
    # the separating direction exactly and certifies a zero-error classifier
    w = data.labels @ data.features
    w /= np.linalg.norm(w)
    margins = data.labels * (data.features @ w)
    assert margins.min() > 0.199
    assert np.linalg.norm(data.features, axis=1).max() <= 1.0 + 1e-12
    assert set(np.unique(data.labels)) == {-1.0, 1.0}


def test_separable_margin_range():
    rng = derived_rng(12)
    wide = separable_two_class(100, 3, 0.75, rng)
    assert isinstance(wide, BallDataset)
    with pytest.raises(ParameterError):
        separable_two_class(100, 3, 1.0, rng)
    with pytest.raises(ParameterError):
        separable_two_class(100, 3, 0.0, rng)


def _separable_draws(n, dim, margin, seed):
    """u, the projected and scaled xi of each pair, and the labels, drawn
    from ``derived_rng(seed)`` in the order separable_two_class documents."""
    rng = derived_rng(seed)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    zeta = rng.standard_normal((n // 2, dim))
    lengths = rng.uniform(0.0, math.sqrt(1.0 - margin ** 2), n // 2)
    labels = rng.choice([-1.0, 1.0], size=n)
    zeta -= np.outer(zeta @ u, u)
    norms = np.linalg.norm(zeta, axis=1)
    keep = norms > 1e-12
    zeta[keep] *= (lengths[keep] / norms[keep])[:, None]
    zeta[~keep] = 0.0
    return u, zeta, labels


def test_separable_pairs_carry_plus_and_minus_xi():
    n, dim, margin = 2000, 5, 0.3
    data = separable_two_class(n, dim, margin, derived_rng(41))
    u, xi, labels = _separable_draws(n, dim, margin, 41)
    assert np.array_equal(data.labels, labels)
    assert np.array_equal(data.features[0::2],
                          labels[0::2, None] * (margin * u + xi))
    assert np.array_equal(data.features[1::2],
                          labels[1::2, None] * (margin * u + -xi))


def test_separable_xi_orthogonal_and_bounded():
    n, dim, margin = 2000, 4, 0.6
    data = separable_two_class(n, dim, margin, derived_rng(42))
    u = derived_rng(42).standard_normal(dim)
    u /= np.linalg.norm(u)
    xi = data.labels[:, None] * data.features - margin * u
    assert np.abs(xi @ u).max() <= 1e-12
    assert (np.linalg.norm(xi, axis=1).max()
            <= math.sqrt(1.0 - margin ** 2) + 1e-12)


def test_separable_xi_lengths_uniform():
    # each pair's |xi| is a uniform share of sqrt(1 - margin^2): one-sample
    # Kolmogorov-Smirnov against U(0, 1) at the 1% critical value
    pairs, dim, margin = 10_000, 5, 0.2
    data = separable_two_class(2 * pairs, dim, margin, derived_rng(43))
    u = derived_rng(43).standard_normal(dim)
    u /= np.linalg.norm(u)
    xi = data.labels[0::2, None] * data.features[0::2] - margin * u
    share = np.sort(np.linalg.norm(xi, axis=1) / math.sqrt(1.0 - margin ** 2))
    grid = np.arange(1, pairs + 1) / pairs
    ks = max(float(np.max(grid - share)),
             float(np.max(share - (grid - 1.0 / pairs))))
    assert ks <= 1.63 / math.sqrt(pairs)


def test_separable_odd_n_leaves_last_xi_zero():
    n, dim, margin = 7, 3, 0.4
    data = separable_two_class(n, dim, margin, derived_rng(44))
    u, xi, labels = _separable_draws(n, dim, margin, 44)
    assert xi.shape == (3, dim)
    assert np.array_equal(data.features[-1], labels[-1] * (margin * u))


def test_separable_dim_one_has_no_xi_and_no_warning():
    n, margin = 501, 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        data = separable_two_class(n, 1, margin, derived_rng(45))
    u = derived_rng(45).standard_normal(1)
    u /= np.linalg.norm(u)
    assert np.array_equal(data.features,
                          data.labels[:, None] * (margin * u))


def test_separable_same_seed_same_arrays():
    first = separable_two_class(1001, 3, 0.2, derived_rng(46))
    again = separable_two_class(1001, 3, 0.2, derived_rng(46))
    assert np.array_equal(first.features, again.features)
    assert np.array_equal(first.labels, again.labels)


def test_uniform_cube_mean():
    data = generate_dataset({"family": "uniform-cube", "n": 4000, "dim": 1}, 13)
    assert isinstance(data, CubeDataset)
    sigma = np.sqrt(1.0 / 12.0 / 4000)
    assert abs(data.rows.mean() - 0.5) <= 3 * sigma


def test_bernoulli_bits_frequency():
    data = generate_dataset({"family": "bernoulli-bits", "n": 5000, "dim": 8,
                             "q": 0.3}, 14)
    assert isinstance(data, BinaryDataset)
    sigma = np.sqrt(0.3 * 0.7 / 5000)
    freqs = data.rows.mean(axis=0)
    assert np.all(np.abs(freqs - 0.3) <= 3 * sigma)


@pytest.mark.parametrize("n", [1, DRAW_ROWS - 1, DRAW_ROWS, DRAW_ROWS + 1,
                               10_000])
def test_bernoulli_bits_blocks_are_one_draw(n):
    # rows drawn a block at a time are the bits of one (n, dim) draw
    data = generate_dataset({"family": "bernoulli-bits", "n": n, "dim": 8,
                             "q": 0.3}, 5)
    want = derived_rng(5, TAG_DATASET).random((n, 8)) < 0.3
    assert np.array_equal(data.rows, want)


def test_gaussian_ball_clipped_norms():
    data = generate_dataset({"family": "gaussian-ball-clipped", "n": 500,
                             "dim": 3, "sigma": 2.0}, 15)
    assert isinstance(data, BoxDataset)
    assert np.linalg.norm(data.rows, axis=1).max() <= 1.0 + 1e-12


def test_dataset_spec_validation():
    with pytest.raises(ConfigurationError):
        generate_dataset({"family": "pareto"}, 0)
    with pytest.raises(ConfigurationError):
        generate_dataset({"family": "uniform-cube"}, 0)
    with pytest.raises(ConfigurationError):
        generate_dataset({"family": "bernoulli-bits", "n": 10, "q": 1.5}, 0)


def test_dataset_determinism():
    spec = {"family": "uniform-cube", "n": 50, "dim": 2}
    a = generate_dataset(spec, 7)
    b = generate_dataset(spec, 7)
    c = generate_dataset(spec, 8)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)


def test_file_dataset(tmp_path):
    path = tmp_path / "rows.csv"
    np.savetxt(path, np.array([[0.1, 0.2], [0.3, 0.4]]), delimiter=",")
    data = generate_dataset({"family": "file", "path": str(path)}, 0)
    assert isinstance(data, CubeDataset) and data.n == 2
    ball = tmp_path / "ball.csv"
    np.savetxt(ball, np.array([[0.5, 0.1, 1.0], [0.2, -0.3, -1.0]]),
               delimiter=",")
    data = generate_dataset({"family": "file", "path": str(ball),
                             "kind": "ball"}, 0)
    assert isinstance(data, BallDataset) and data.dim == 2
    with pytest.raises(ConfigurationError):
        generate_dataset({"family": "file"}, 0)
    with pytest.raises(ConfigurationError):
        generate_dataset({"family": "file", "path": str(path),
                          "kind": "weird"}, 0)
    bits = tmp_path / "bits.csv"
    bits.write_text("0,1\n1,1\n")
    data = generate_dataset({"family": "file", "path": str(bits),
                             "kind": "binary"}, 0)
    assert isinstance(data, BinaryDataset)
    assert data.rows.tolist() == [[0, 1], [1, 1]]
    # a non-bit is rejected, not truncated to 0
    bits.write_text("0.7,1\n1,1\n")
    with pytest.raises(ParameterError, match="bits"):
        generate_dataset({"family": "file", "path": str(bits),
                          "kind": "binary"}, 0)


# --- baselines ---------------------------------------------------------------


def test_baseline_quadratic_closed_form():
    rng = derived_rng(40)
    xs = rng.random(500)
    wstar = float(np.clip(xs.mean(), -1.0, 1.0))
    fstar = float(np.mean((xs - wstar) ** 2))
    w, f = projected_subgradient(
        lambda w: float(np.mean((xs - w[0]) ** 2)),
        lambda w: np.array([2.0 * (w[0] - xs.mean())]),
        1)  # dim 1: the interval [-1, 1]
    assert abs(f - fstar) <= 1e-6


def test_baseline_hinge_on_wide_margin_data():
    data = generate_dataset({"family": "separable-two-class", "n": 1000,
                             "dim": 5, "margin": 0.6}, 7)
    _, f = glm_baseline(data, hinge_flavor())
    assert f <= 1e-3


def test_baseline_methods_cross_check():
    target = np.array([0.3, -0.2])

    def objective(w):
        return float(np.sum((w - target) ** 2) + 0.1 * np.sum(w ** 4))

    def subgrad(w):
        return 2.0 * (w - target) + 0.4 * w ** 3

    def objective_many(block):
        return (np.sum((block - target) ** 2, axis=1)
                + 0.1 * np.sum(block ** 4, axis=1))

    _, f1 = projected_subgradient(objective, subgrad, 2)
    _, f2 = dense_grid_minimize(objective_many, 2, step=2e-3)
    assert abs(f1 - f2) <= 1e-3
    with pytest.raises(ParameterError):
        dense_grid_minimize(objective_many, 3)


@pytest.mark.parametrize("n, dim, margin, seed", [
    (300, 2, 0.05, 1), (2001, 3, 0.2, 4), (5000, 5, 0.05, 3),
    (2000, 5, 0.45, 2), (1000, 5, 0.7, 6), (1000, 2, 0.9, 7),
    # at margin exactly 1/2 the optimum sits on the hinge's kink
    (1000, 5, 0.5, 5), (5000, 5, 0.5, 3),
])
def test_baseline_reaches_separable_optimum(n, dim, margin, seed):
    # separable_two_class's docstring proves this optimum
    data = generate_dataset({"family": "separable-two-class", "n": n,
                             "dim": dim, "margin": margin}, seed)
    _, f = glm_baseline(data, hinge_flavor())
    assert abs(f - max(0.0, 0.5 - margin)) <= 1e-12


def _recorded_bounds(monkeypatch, check=lambda *args: None):
    # every certified_lower_bound the solver computes, after ``check(*args)``
    bounds = []
    certify = baselines.certified_lower_bound

    def recorded(*args):
        check(*args)
        bounds.append(certify(*args))
        return bounds[-1]

    monkeypatch.setattr(baselines, "certified_lower_bound", recorded)
    return bounds


def _fixed_iters_subgradient(objective, subgrad, dim):
    # the solver as it was before the certified stop: always ITERS steps
    w = np.zeros(dim)
    avg = w.copy()
    best_w, best_f = w.copy(), float(objective(w))
    for t in range(1, baselines.ITERS + 1):
        g = np.asarray(subgrad(w), dtype=float)
        w = project_unit_ball(w - (1.0 / math.sqrt(t)) * g)
        avg += (w - avg) / (t + 1)
        if t % baselines.EVAL_EVERY == 0 or t == baselines.ITERS:
            for cand in (avg, w):
                f = float(objective(cand))
                if f < best_f:
                    best_w, best_f = cand.copy(), f
    return best_w, best_f


@pytest.mark.parametrize("kink", [(0.3,), (0.31, -0.17)])
def test_uncertified_baseline_run_is_unchanged(monkeypatch, kink):
    # an interior kink, and a subgradient that is never 0 there: every
    # certificate stays below the optimum, so the run takes all ITERS steps
    kink = np.array(kink)

    def objective(w):
        return float(np.sum(np.abs(w - kink)))

    def subgrad(w):
        return np.where(w >= kink, 1.0, -1.0)

    w_ref, f_ref = _fixed_iters_subgradient(objective, subgrad, len(kink))
    bounds = _recorded_bounds(monkeypatch)
    w, f = projected_subgradient(objective, subgrad, len(kink))
    # the origin's checkpoint, then two bounds at each later one
    assert len(bounds) == 2 * baselines.ITERS // baselines.EVAL_EVERY + 1
    assert f == f_ref
    assert np.array_equal(w, w_ref)


# (f(w), a subgradient, f over the rows of an (M, 2) block) given a target;
# the smooth ones certify at the first checkpoint, and so do the kinked ones
# whose subgradient is constant near the optimum; a kinked one with a kink
# through the optimum certifies only after many checkpoints
_GRID_OBJECTIVES = {
    "smooth": lambda t: (
        lambda w: float(np.sum((w - t) ** 2) + 0.1 * np.sum(w ** 4)),
        lambda w: 2.0 * (w - t) + 0.4 * w ** 3,
        lambda b: np.sum((b - t) ** 2, axis=1) + 0.1 * np.sum(b ** 4, axis=1)),
    "kinked": lambda t: (
        lambda w: float(np.sum(np.abs(w - t))),
        lambda w: np.sign(w - t),
        lambda b: np.sum(np.abs(b - t), axis=1)),
}


@pytest.mark.parametrize("kind", sorted(_GRID_OBJECTIVES))
@pytest.mark.parametrize("target", [(1.2, -0.9), (0.3, -0.2)])
def test_certified_lower_bound_is_below_grid_optimum(monkeypatch, target,
                                                     kind):
    objective, subgrad, objective_many = _GRID_OBJECTIVES[kind](
        np.array(target))

    def taken_at_one_point(value, g, c):
        assert value == objective(c)
        assert np.array_equal(g, subgrad(c))

    bounds = _recorded_bounds(monkeypatch, taken_at_one_point)
    _, f = projected_subgradient(objective, subgrad, 2)
    _, f_grid = dense_grid_minimize(objective_many, 2, step=2e-3)
    assert bounds
    # any lower bound on the constrained optimum is below the grid's best
    assert max(bounds) <= f_grid + 1e-12
    assert f - max(bounds) >= -1e-12


def test_linear_minimizer_minimises_over_the_set():
    # the bound is f(c) + min over the ball of <g, v - c>; at f(c) = 0 it is
    # the minimum itself, -||g|| - <g, c>, which sampled points never beat
    rng = derived_rng(42)
    pts = project_unit_ball(3.0 * rng.standard_normal((2000, 3)))
    c = np.array([0.2, -0.1, 0.4])
    for g in [*rng.standard_normal((5, 3)), np.array([0.0, 1.0, -2.0]),
              np.zeros(3)]:
        bound = certified_lower_bound(0.0, g, c)
        assert bound == pytest.approx(-np.linalg.norm(g) - g @ c,
                                      rel=0.0, abs=1e-12)
        assert bound <= ((pts - c) @ g).min() + 1e-12


def test_glm_baseline_stops_at_first_checkpoint(monkeypatch):
    # the benchmark's glm data shape; the full loop would take ITERS steps
    data = generate_dataset({"family": "separable-two-class", "n": 2000,
                             "dim": 5, "margin": 0.05}, 3)
    calls = []
    solve = baselines.projected_subgradient

    def counted(objective, subgrad, dim):
        def counting(w):
            calls.append(1)
            return subgrad(w)
        return solve(objective, counting, dim)

    monkeypatch.setattr(baselines, "projected_subgradient", counted)
    glm_baseline(data, hinge_flavor())
    # the origin's checkpoint certifies its own vertex
    assert len(calls) <= 2


def test_affine_objective_certified_at_origin():
    # f(w) = <a, w> + 1 has its ball minimum 1 - ||a|| at -a/||a||, the
    # vertex of the origin's subgradient, and the minorant there is exact
    a = np.array([0.3, -0.4, 1.2])
    calls = []

    def subgrad(w):
        calls.append(w.copy())
        return a

    w, f = projected_subgradient(lambda w: float(a @ w) + 1.0, subgrad, 3)
    assert np.max(np.abs(w + a / np.linalg.norm(a))) <= 1e-15
    assert abs(f - (1.0 - np.linalg.norm(a))) <= baselines.GAP_TOL
    assert len(calls) == 1 and not calls[0].any()


def test_grid_loss_excess_oracle():
    data = CubeDataset(derived_rng(41).random((300, 2)))
    w_opt = data.rows.mean(axis=0)
    assert abs(grid_loss_excess("quadratic", data, w_opt)) <= 1e-9
    assert grid_loss_excess("quadratic", data, np.zeros(2)) > 0.01
    assert grid_loss_excess("flat", data, np.zeros(2)) == 0.0
    with pytest.raises(ConfigurationError):
        make_grid_loss("cubic")


@pytest.mark.parametrize("name", ["quadratic", "quartic"])
def test_grid_loss_optimum_against_dense_scan(name):
    # the closed-form optimum against the minimum of each coordinate's
    # objective over 100 001 points of [0, 1]: never above it, beyond the
    # objective's own rounding (the scan picks the least of the rounded
    # values near the optimum), and below it by at most the scan's grid error
    axis = np.linspace(0.0, 1.0, 100_001)
    for seed in range(30):
        rng = derived_rng(42, seed)
        rows = (rng.random((300, 3)), rng.beta(0.3, 3.0, (300, 3)),
                rng.beta(5.0, 0.4, (300, 3)))[seed % 3]
        gj, best_theta = harness._coordinate_objectives(name, rows)
        for j in range(3):
            best = float(gj(float(best_theta[j]), j))
            scan = float(np.min(gj(axis, j)))
            assert scan - 2.5e-11 <= best <= scan + 4 * np.spacing(1.0)


# --- configuration ------------------------------------------------------------


_CONFIG = {"mechanism": "avg-bench",
           "dataset": {"family": "uniform-cube", "n": 200, "dim": 1},
           "params": {"epsilon": 1.0}, "sweep": {}, "trials": 3, "seed": 5}


_HINGE_CONFIG = {"mechanism": "hinge",
                 "dataset": {"family": "separable-two-class", "n": 200,
                             "dim": 2},
                 "trials": 1, "seed": 5}


_MARGINALS_CONFIG = {"mechanism": "marginals",
                     "dataset": {"family": "bernoulli-bits", "n": 200,
                                 "dim": 4},
                     "params": {"gamma": 0.2}, "trials": 1, "seed": 5}


_SMOOTH_CONFIG = {"mechanism": "smooth-queries",
                  "dataset": {"family": "gaussian-ball-clipped", "n": 200,
                              "dim": 2},
                  "params": {"t": 2}, "trials": 1, "seed": 5}


def _write_config(path, **overrides):
    path.write_text(json.dumps({**_CONFIG, **overrides}))
    return path


def test_load_config_roundtrip(tmp_path):
    path = _write_config(tmp_path / "cfg.json")
    cfg = load_config(str(path))
    assert cfg.mechanism == "avg-bench" and cfg.trials == 3
    cfg2 = load_config(str(path), mechanism="bernstein")
    assert cfg2.mechanism == "bernstein"
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_config(str(bad))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(mechanism="teleport", dataset={"family": "uniform-cube"})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(mechanism=["avg-bench"],
                         dataset={"family": "uniform-cube"})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(mechanism="marginals",
                         dataset={"family": "uniform-cube", "n": 10})


def test_config_rejects_undeclared_params():
    dataset = {"family": "uniform-cube", "n": 10, "dim": 1}
    with pytest.raises(ConfigurationError, match="accepted: epsilon$"):
        ExperimentConfig(mechanism="avg-bench", dataset=dataset,
                         params={"epsilonn": 5})
    with pytest.raises(ConfigurationError, match="'epsilom'"):
        ExperimentConfig(mechanism="avg-bench", dataset=dataset,
                         sweep={"epsilom": [1.0, 2.0]})
    with pytest.raises(ConfigurationError, match="'loss'"):
        ExperimentConfig(mechanism="hinge",
                         dataset={"family": "separable-two-class", "n": 10},
                         params={"loss": "quartic"})
    # data keys sweep the dataset, not the params
    ExperimentConfig(mechanism="avg-bench", dataset=dataset,
                     sweep={"n": [10, 20]})


def test_config_rejects_nonintegral_counts():
    cube = {"family": "uniform-cube", "n": 10, "dim": 1}
    for params, sweep in [({"k": 8.7}, {}), ({"k": "8"}, {}),
                          ({"k": True}, {}), ({}, {"h": [1, 2.5]})]:
        with pytest.raises(ConfigurationError, match="must be an integer"):
            ExperimentConfig(mechanism="bernstein", dataset=cube,
                             params=params, sweep=sweep)
    ExperimentConfig(mechanism="bernstein", dataset=cube,
                     params={"k": 8.0})
    ExperimentConfig(mechanism="hinge",
                     dataset={"family": "separable-two-class", "n": 10},
                     params={"d_cap": 4.0}, sweep={"d_cap": [2, 3]})


def test_config_rejects_out_of_range_values():
    cube = {"family": "uniform-cube", "n": 10, "dim": 1}
    two_class = {"family": "separable-two-class", "n": 10, "dim": 2}
    for params, sweep in [({"epsilon": -1.0}, {}), ({"epsilon": 0}, {}),
                          ({"epsilon": "abc"}, {}),
                          ({"epsilon": float("nan")}, {}),
                          ({}, {"epsilon": [1.0, -1.0]})]:
        with pytest.raises(ConfigurationError, match="'epsilon' must be"):
            ExperimentConfig(mechanism="avg-bench", dataset=cube,
                             params=params, sweep=sweep)
    # the Gaussian replicas need delta > 0, so 0 fails up front too
    for params, sweep in [({"delta": 1.0}, {}), ({"delta": -1e-5}, {}),
                          ({"delta": 0.0}, {}), ({}, {"delta": [1e-5, 2.0]})]:
        with pytest.raises(ConfigurationError, match="'delta' must be"):
            ExperimentConfig(mechanism="hinge", dataset=two_class,
                             params=params, sweep=sweep)
    for dataset, sweep in [({**cube, "n": 0}, {}), ({**cube, "dim": 0}, {}),
                           ({**cube, "n": 2.5}, {}), (cube, {"n": [10, 0]}),
                           (cube, {"dim": [1, -1]})]:
        with pytest.raises(ConfigurationError, match="must be an integer >= 1"):
            ExperimentConfig(mechanism="avg-bench", dataset=dataset,
                             sweep=sweep)
    # the edges that stay allowed; "inf" is what --set params.epsilon=inf gives
    for epsilon in (float("inf"), "inf", 1e-9):
        ExperimentConfig(mechanism="bernstein", dataset=cube,
                         params={"epsilon": epsilon})
    ExperimentConfig(mechanism="hinge", dataset=two_class,
                     sweep={"n": [1, 20.0]})


def test_set_overrides(tmp_path):
    cfg = load_config(str(_write_config(tmp_path / "cfg.json")))
    cfg = apply_set_overrides(cfg, ["params.epsilon=0.5", "trials=7",
                                    "dataset.n=99", "sweep.epsilon=[1,2]"])
    assert cfg.params["epsilon"] == 0.5
    assert cfg.trials == 7 and cfg.dataset["n"] == 99
    assert cfg.sweep["epsilon"] == [1, 2]
    with pytest.raises(ConfigurationError):
        apply_set_overrides(cfg, ["nonsense"])
    with pytest.raises(ConfigurationError):
        apply_set_overrides(cfg, ["quux=1"])
    # null is the default runs/<mechanism>; a string or a number is a path
    assert apply_set_overrides(cfg, ["out=null"]).out is None
    assert apply_set_overrides(cfg, ["out=runs/a"]).out == "runs/a"
    assert apply_set_overrides(cfg, ["out=7"]).out == "7"
    for value in ("[1,2]", '{"a": 1}', "true"):
        with pytest.raises(ConfigurationError, match="out must be a path"):
            apply_set_overrides(cfg, [f"out={value}"])


def test_sweep_expansion():
    cfg = ExperimentConfig(
        mechanism="avg-bench",
        dataset={"family": "uniform-cube", "n": 10, "dim": 1},
        params={"epsilon": 1.0},
        sweep={"n": [10, 20], "epsilon": [1.0, 2.0]})
    cells = _cells(cfg)
    assert len(cells) == 4
    combos = {(spec["n"], params["epsilon"]) for spec, params in cells}
    assert combos == {(10, 1.0), (10, 2.0), (20, 1.0), (20, 2.0)}
    with pytest.raises(ConfigurationError, match="must be a non-empty list"):
        ExperimentConfig(
            mechanism="avg-bench",
            dataset={"family": "uniform-cube", "n": 10, "dim": 1},
            sweep={"epsilon": 3})


# --- experiment runner -----------------------------------------------------------


def test_golden_report_header(tmp_path):
    # schema stability: downstream parsing depends on this exact order
    assert REPORT_COLUMNS == [
        "trial", "mechanism", "family", "n", "p", "k", "h", "d", "t", "beta",
        "gamma", "epsilon", "delta", "mode", "flavor", "err_empirical",
        "baseline_err", "max_query_error", "bits_per_player",
        "reals_per_player", "seed", "status", "error", "d_theory", "sigma",
        "steps",
    ]
    assert TRANSCRIPT_COLUMNS == ["trial", "mechanism", "n", "messages",
                                  "bits_per_player", "reals_per_player"]
    cfg = ExperimentConfig(
        mechanism="avg-bench",
        dataset={"family": "uniform-cube", "n": 50, "dim": 1},
        trials=1, out=str(tmp_path / "run"))
    result = run_experiment(cfg)
    first = open(result.report_path).readline().rstrip("\n")
    assert first == ",".join(REPORT_COLUMNS)


def test_empty_sweep_entry_is_rejected():
    # an empty entry gives no cells, so no cell would check the dataset:
    # a spec with no n would pass
    for dataset in ({"family": "uniform-cube", "n": 50, "dim": 1},
                    {"family": "uniform-cube", "dim": 1}):
        with pytest.raises(ConfigurationError,
                           match="'epsilon' must be a non-empty list"):
            ExperimentConfig(mechanism="avg-bench", dataset=dataset,
                             sweep={"epsilon": []})


def test_identical_seeds_identical_reports(tmp_path):
    base = dict(mechanism="avg-bench",
                dataset={"family": "uniform-cube", "n": 300, "dim": 1},
                sweep={"epsilon": [0.5, 2.0]}, trials=3, seed=9)
    a = run_experiment(ExperimentConfig(out=str(tmp_path / "a"), **base))
    b = run_experiment(ExperimentConfig(out=str(tmp_path / "b"), **base))
    assert open(a.report_path, "rb").read() == open(b.report_path, "rb").read()
    assert (open(a.transcript_path, "rb").read()
            == open(b.transcript_path, "rb").read())


# the query releases sum through matrix products, whose result must not
# depend on the process that runs them; p = 3 takes the smooth release's
# row-wise products too
@pytest.mark.parametrize("mechanism, dataset, params", [
    pytest.param("avg-bench", {"family": "uniform-cube", "n": 300, "dim": 1},
                 {}, id="avg-bench"),
    pytest.param("marginals", {"family": "bernoulli-bits", "n": 5000,
                               "dim": 6}, {"k": 2, "gamma": 0.1},
                 id="marginals"),
    pytest.param("smooth-queries", {"family": "gaussian-ball-clipped",
                                    "n": 5000, "dim": 3}, {"t": 4},
                 id="smooth-queries"),
])
def test_worker_count_does_not_change_results(tmp_path, mechanism, dataset,
                                              params):
    base = dict(mechanism=mechanism, dataset=dataset, params=params,
                trials=4, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        a = run_experiment(ExperimentConfig(out=str(tmp_path / "a"),
                                            workers=1, **base))
        b = run_experiment(ExperimentConfig(out=str(tmp_path / "b"),
                                            workers=3, **base))
    assert a.failures == 0
    assert open(a.report_path, "rb").read() == open(b.report_path, "rb").read()


def _bits_file(tmp_path, n, dim):
    # a file's dim is known only when it is read, so a marginal order k
    # above it passes the config check and fails each trial
    path = tmp_path / "bits.csv"
    rows = (derived_rng(1).random((n, dim)) < 0.3).astype(int)
    np.savetxt(path, rows, fmt="%d", delimiter=",")
    return str(path)


def test_partial_failures_recorded(tmp_path):
    # k=12 > p=8 in a file passes config validation but fails the trial's
    # data check; the sweep must keep going and record the error per row
    cfg = ExperimentConfig(
        mechanism="marginals",
        dataset={"family": "file", "path": _bits_file(tmp_path, 500, 8),
                 "kind": "binary"},
        params={"gamma": 0.2, "epsilon": 2.0},
        sweep={"k": [2, 12]}, trials=2, seed=1, out=str(tmp_path / "run"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        result = run_experiment(cfg)
    assert result.failures == 2
    with open(result.report_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    by_status = {}
    for row in rows:
        by_status.setdefault(row["status"], []).append(row)
    assert len(by_status["ok"]) == 2
    assert len(by_status["ConfigurationError"]) == 2
    assert "'k' = 12" in by_status["ConfigurationError"][0]["error"]


@pytest.mark.parametrize("mechanism", ["hinge", "general-linear"])
def test_glm_overflow_fails_with_its_cause(mechanism):
    # at d = 24 and the default epsilon = 1 the moments of the noised
    # replica products overflow float64: the config is refused when built,
    # naming the degree, epsilon and d_cap, and no numpy warning escapes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigurationError) as refused:
            ExperimentConfig(mechanism, {"family": "separable-two-class",
                                         "n": 40, "dim": 3}, {"d_cap": 24})
    assert [str(w.message) for w in caught] == []
    for cause in ("degree d = 24", "epsilon = 1.0", "d_cap (now 24)"):
        assert cause in str(refused.value)


@pytest.mark.parametrize("params", [{"d_cap": 2}, {"d_cap": 2, "epsilon": 50}])
def test_glm_rows_report_the_solver_choice(tmp_path, params):
    # GLM rows carry the theory degree, the per-message noise scale and the
    # step count it gives; other mechanisms leave the three columns blank.
    # At epsilon = 1 the noise leaves one step; at 50 the hinge takes 6
    rows = {}
    for mechanism in ("hinge", "general-linear", "avg-bench"):
        dataset = ({"family": "uniform-cube", "n": 300, "dim": 1}
                   if mechanism == "avg-bench" else
                   {"family": "separable-two-class", "n": 300, "dim": 2})
        cfg = ExperimentConfig(
            mechanism=mechanism, dataset=dataset,
            params={} if mechanism == "avg-bench" else params, trials=1,
            seed=8, out=str(tmp_path / mechanism))
        (rows[mechanism],) = run_experiment(cfg).rows
    for mechanism in ("hinge", "general-linear"):
        row = rows[mechanism]
        assert row["status"] == "ok"
        assert row["d_theory"] == 32 and row["d"] == 2
        assert row["sigma"] > 0.0
        assert row["steps"] == solver_batches(
            300, row["sigma"], 1.0 / row["beta"])[0]
    assert rows["hinge"]["steps"] == (6 if "epsilon" in params else 1)
    assert all(rows["avg-bench"][c] == ""
               for c in ("d_theory", "sigma", "steps"))


def test_onebit_default_epsilon_runs(tmp_path):
    # a onebit config that names no epsilon gets a valid one-bit budget
    cfg = ExperimentConfig(
        mechanism="onebit",
        dataset={"family": "uniform-cube", "n": 2000, "dim": 1},
        params={"k": 4}, trials=2, seed=3, out=str(tmp_path / "run"))
    result = run_experiment(cfg)
    assert result.failures == 0
    assert [row["status"] for row in result.rows] == ["ok", "ok"]
    assert all(float(row["epsilon"]) == 0.5 for row in result.rows)


@pytest.mark.parametrize("mechanism, dataset, params", [
    ("bernstein", {"family": "uniform-cube", "n": 200, "dim": 1},
     {"k": 4}),
    ("avg-bench", {"family": "uniform-cube", "n": 200, "dim": 1}, {}),
    ("hinge", {"family": "separable-two-class", "n": 40, "dim": 2,
               "margin": 0.1}, {"d_cap": 2, "epsilon": 2.0}),
    ("general-linear", {"family": "separable-two-class", "n": 40, "dim": 2,
                        "margin": 0.1}, {"d_cap": 2, "epsilon": 2.0}),
    ("marginals", {"family": "bernoulli-bits", "n": 200, "dim": 4, "q": 0.3},
     {"k": 2, "gamma": 0.2, "epsilon": 2.0}),
    ("smooth-queries", {"family": "gaussian-ball-clipped", "n": 200,
                        "dim": 2, "sigma": 0.4}, {"t": 3, "epsilon": 2.0}),
])
def test_real_valued_messages_count_64_bits_per_real(tmp_path, mechanism,
                                                     dataset, params):
    # each real of a message is counted once, at BITS_PER_REAL = 64 bits
    cfg = ExperimentConfig(mechanism=mechanism, dataset=dataset,
                           params=params, trials=1, seed=6,
                           out=str(tmp_path / "run"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        result = run_experiment(cfg)
    assert result.failures == 0
    with open(result.transcript_path) as fh:
        (row,) = list(csv.DictReader(fh))
    reals = float(row["reals_per_player"])
    assert reals >= 1
    assert float(row["bits_per_player"]) == 64 * reals
    # the report row carries the transcript's accounting, not a copy of it
    with open(result.report_path) as fh:
        (report,) = list(csv.DictReader(fh))
    for column in ("bits_per_player", "reals_per_player"):
        assert report[column] == row[column]


def _one_player_message(mechanism: str, params: dict, dim: int) -> tuple:
    """(reals, protocol bits) that a one-row call of the mechanism's encoder
    produces, at its parsed ``params`` on data of ``dim``."""
    rng = derived_rng(70)
    if mechanism == "bernstein":  # one evaluation per grid point
        return len(grid_points(params["k"], dim)), 0
    if mechanism == "onebit":
        bits, _ = onebit_encode_many([0.5], [0.1], params["epsilon"], rng)
        return 0, bits.size
    if mechanism in ("hinge", "general-linear"):
        budget = PrivacyBudget(params["epsilon"], params["delta"])
        d = glm_oracle(hinge_flavor(), params["target_alpha"], budget, dim,
                       params["d_cap"])[0].d
        msg = glm_player_encode((np.full(dim, 0.1), 0.5), budget, d, rng)
        return sum(np.size(part) for part in (msg.head_x, msg.head_y,
                                              msg.body_x, msg.body_y)), 0
    noiseless = PrivacyBudget(math.inf)
    if mechanism == "marginals":  # a one-row release is one player's report
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleSizeWarning)
            table = marginals_release(BinaryDataset(np.ones((1, dim))),
                                      params["k"], params["gamma"],
                                      noiseless, rng)
        return table.values.size, 0
    if mechanism == "smooth-queries":
        table = smooth_release(BoxDataset(np.full((1, dim), 0.1)),
                               params["t"], noiseless, rng)
        return table.values.size, 0
    assert mechanism == "avg-bench"
    return np.size(ldp_avg_1d(0.5, 1, 1.0, PrivacyBudget(params["epsilon"]),
                              rng)), 0


_MESSAGE_DATA = {
    "bernstein": {"family": "uniform-cube", "n": 200, "dim": 2},
    "onebit": {"family": "uniform-cube", "n": 200, "dim": 2},
    "hinge": {"family": "separable-two-class", "n": 40, "dim": 3},
    "general-linear": {"family": "separable-two-class", "n": 40, "dim": 3},
    "marginals": {"family": "bernoulli-bits", "n": 200, "dim": 4, "q": 0.3},
    "smooth-queries": {"family": "gaussian-ball-clipped", "n": 200,
                       "dim": 2},
    "avg-bench": {"family": "uniform-cube", "n": 200, "dim": 1},
}
# per mechanism, a config other than its defaults; hinge's d_cap lies above
# the theory degree 32, where its default 8 lies below it (noiseless: at
# degree 32 the noised replica products overflow)
_MESSAGE_PARAMS = {
    "bernstein": {"k": 3},
    "onebit": {"k": 3, "epsilon": 0.25},
    "hinge": {"d_cap": 40, "epsilon": math.inf},
    "general-linear": {"d_cap": 2, "target_alpha": 0.5},
    "marginals": {"k": 3, "gamma": 0.2},
    "smooth-queries": {"t": 3},
    "avg-bench": {"epsilon": 2.0},
}


@pytest.mark.parametrize("mechanism, params", [
    pytest.param(mechanism, params, id=f"{mechanism}-{label}")
    for mechanism in MECHANISMS
    for label, params in (("defaults", {}),
                          ("other", _MESSAGE_PARAMS[mechanism]))])
def test_encoder_sends_the_declared_message(tmp_path, mechanism, params):
    mech, dataset = MECHANISMS[mechanism], _MESSAGE_DATA[mechanism]
    parsed = {key: param.parsed(key, params.get(key, param.default))
              for key, param in mech.params.items()}
    reals, bits = mech.message(parsed, dataset["n"], dataset["dim"])
    assert (reals, bits) == _one_player_message(mechanism, parsed,
                                                dataset["dim"])
    # every trial counts one message per player, each the declared one
    cfg = ExperimentConfig(mechanism=mechanism, dataset=dataset,
                           params=params, trials=2, seed=4,
                           out=str(tmp_path / "run"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        result = run_experiment(cfg)
    assert result.failures == 0
    with open(result.transcript_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert int(row["messages"]) == dataset["n"]
        assert float(row["reals_per_player"]) == reals
        assert float(row["bits_per_player"]) == bits + 64 * reals


def test_avg_bench_error_slope(tmp_path):
    cfg = ExperimentConfig(
        mechanism="avg-bench",
        dataset={"family": "uniform-cube", "n": 1000, "dim": 1},
        params={"epsilon": 1.0}, sweep={"n": [1000, 10_000, 100_000]},
        trials=10, seed=2, out=str(tmp_path / "run"))
    result = run_experiment(cfg)
    with open(result.report_path) as fh:
        rows = list(csv.DictReader(fh))
    errs = {}
    for row in rows:
        errs.setdefault(int(row["n"]), []).append(float(row["err_empirical"]))
    ns = sorted(errs)
    medians = [float(np.median(errs[n])) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
    assert -0.65 <= slope <= -0.35


def test_config_rejects_unknown_top_level_keys(tmp_path):
    path = _write_config(tmp_path / "cfg.json", trails=1,
                         sweeep={"epsilon": [1.0, 2.0]})
    with pytest.raises(ConfigurationError) as err:
        load_config(str(path))
    assert "'sweeep', 'trails'" in str(err.value)
    assert "accepted: dataset, mechanism, out, params" in str(err.value)


def test_manifest_reproduces_run(tmp_path):
    cfg = ExperimentConfig(
        mechanism="avg-bench",
        dataset={"family": "uniform-cube", "n": 200, "dim": 1},
        trials=2, seed=4, out=str(tmp_path / "a"))
    a = run_experiment(cfg)
    reloaded = load_config(a.manifest_path)
    b = run_experiment(
        ExperimentConfig(**{**reloaded.__dict__, "out": str(tmp_path / "b")}))
    assert open(a.report_path, "rb").read() == open(b.report_path, "rb").read()


def test_git_describe_runs_once_in_the_package_directory(tmp_path,
                                                        monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(kwargs.get("cwd"))
        return subprocess.CompletedProcess(cmd, 0, stdout="abc1234\n",
                                           stderr="")

    harness._git_describe.cache_clear()
    monkeypatch.setattr(harness.subprocess, "run", fake_run)
    try:
        for name in ("a", "b"):
            result = run_experiment(ExperimentConfig(
                mechanism="avg-bench", dataset=_CONFIG["dataset"], trials=1,
                out=str(tmp_path / name)))
            with open(result.manifest_path, encoding="utf-8") as fh:
                assert json.load(fh)["git_describe"] == "abc1234"
    finally:
        harness._git_describe.cache_clear()
    assert calls == [os.path.dirname(os.path.abspath(harness.__file__))]


@pytest.mark.parametrize("mechanism, dataset, params, cap_check", [
    ("bernstein", {"family": "uniform-cube", "n": 200, "dim": 3}, {"k": 100},
     lambda: check_grid_size(100, 3)),
    ("onebit", {"family": "uniform-cube", "n": 200, "dim": 3}, {"k": 100},
     lambda: check_grid_size(100, 3)),
    ("smooth-queries", {"family": "uniform-cube", "n": 200, "dim": 2},
     {"t": 1000}, lambda: check_basis_cap(1000, 2)),
    # at the default gamma 0.05 the OR polynomial for k = 8 has degree 5
    ("marginals", {"family": "bernoulli-bits", "n": 200, "dim": 40},
     {"k": 8}, lambda: check_expansion_cap(40, 5)),
    # the data rules that are not size caps
    ("marginals", {"family": "bernoulli-bits", "n": 200, "dim": 65}, {},
     None),
    ("smooth-queries", {"family": "uniform-cube", "n": 200, "dim": 2},
     {"t": 2, "center": [0.1, 0.2, 0.3]}, None),
    ("avg-bench", {"family": "uniform-cube", "n": 200, "dim": 2}, {}, None),
])
def test_size_caps_checked_up_front(mechanism, dataset, params, cap_check):
    # the up-front check is the mechanism's message at each synthetic spec
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig(mechanism, dataset, params)
    mech = MECHANISMS[mechanism]
    parsed = {key: param.parsed(key, params.get(key, param.default))
              for key, param in mech.params.items()}
    with pytest.raises(ConfigurationError) as declared:
        mech.message(parsed, dataset["n"], dataset["dim"])
    assert str(err.value) == str(declared.value)
    if cap_check is not None:
        with pytest.raises(ConfigurationError) as expected:
            cap_check()
        assert str(err.value) == str(expected.value)
        assert "above the cap 200000" in str(err.value)


# --- CLI -----------------------------------------------------------------------


def test_cli_success_and_exit_codes(tmp_path, capsys):
    path = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    code = cli.main(["avg-bench", "--config", str(path), "--out", str(out),
                     "--trials", "2", "--set", "params.epsilon=0.5"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "2 ok, 0 failed" in printed
    assert (out / "report.csv").exists()
    assert (out / "manifest.json").exists()
    assert (out / "timing.log").exists()


def test_cli_configuration_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "mechanism": "marginals",
        "dataset": {"family": "uniform-cube", "n": 10, "dim": 1}}))
    code = cli.main(["marginals", "--config", str(bad)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


# rejected (config, argv) pairs by test ID; an explicit ID, not the list
# index, so removing one case renames no other
_BAD_INPUT = {
    "config0-argv0": (_CONFIG, ["--seed", "-1"]),
    "config1-argv1": (_CONFIG, ["--workers", "0"]),
    "config2-argv2": (_CONFIG, ["--set", "trials=abc"]),
    "config3-argv3": (_CONFIG, ["--set", "trials=2.5"]),
    "config4-argv4": (_CONFIG, ["--set", "seed=1.5"]),
    "config5-argv5": (_CONFIG, ["--set", "workers=2.5"]),
    "config6-argv6": (_CONFIG, ["--set", "params.epsilonn=5"]),
    "config7-argv7": (_CONFIG, ["--set", "sweep.epsilom=[1,2]"]),
    "config8-argv8": (_CONFIG, ["--set", "sweep.epsilon=2"]),
    "config9-argv9":
        (_CONFIG, ["--set", "mechanism=bernstein", "--set", "params.k=8.7"]),
    "config10-argv10": (_CONFIG, ["--set", "mechanism=bernstein"]),
    "config11-argv11": (_CONFIG, ["--set", "mechanism=avg-bench"]),
    "config12-argv12": ({**_CONFIG, "seed": -3}, []),
    "config13-argv13": ({**_CONFIG, "trials": "2"}, []),
    "config14-argv14": ({**_CONFIG, "dataset": "uniform-cube"}, []),
    "config15-argv15": ({**_CONFIG, "params": [1.0]}, []),
    "config16-argv16": ({**_CONFIG, "sweep": "epsilon"}, []),
    "config17-argv17": ([_CONFIG], []),
    "config18-argv18": (_CONFIG, ["--set", "params.epsilon=-1"]),
    "config19-argv19": (_CONFIG, ["--set", "params.epsilon=0"]),
    "config20-argv20": (_CONFIG, ["--set", "sweep.epsilon=[1,-1]"]),
    "config21-argv21": (_CONFIG, ["--set", "dataset.n=0"]),
    "config22-argv22": (_CONFIG, ["--set", "dataset.dim=0"]),
    "config23-argv23": (_CONFIG, ["--set", "sweep.n=[200,0]"]),
    "config24-argv24": (_CONFIG, ["--set", "sweep.dim=[0]"]),
    "config25-argv25": ({**_HINGE_CONFIG, "params": {"delta": 1.0}}, []),
    "config26-argv26": ({**_HINGE_CONFIG, "params": {"delta": -0.1}}, []),
    "config27-argv27":
        ({**_HINGE_CONFIG, "sweep": {"delta": [1e-5, 1.5]}}, []),
    "config28-argv28":
        ({**_MARGINALS_CONFIG, "params": {"split_budget": "no"}}, []),
    "config29-argv29":
        (_MARGINALS_CONFIG, ["--set", "params.split_budget=no"]),
    "config30-argv30":
        (_MARGINALS_CONFIG, ["--set", "sweep.split_budget=[false,1]"]),
    "config31-argv31": ({**_CONFIG, "mechanism": "bernstein"},
                        ["--set", "params.loss=cubic"]),
    "config32-argv32": ({**_CONFIG, "mechanism": "onebit"},
                        ["--set", "sweep.loss=[\"flat\",3]"]),
    "config33-argv33": (_SMOOTH_CONFIG, ["--set", "params.center=[0.1]"]),
    "config34-argv34":
        (_SMOOTH_CONFIG, ["--set", "sweep.center=[[0.1,0.2],[0.1]]"]),
    "config35-argv35": (_SMOOTH_CONFIG, ["--set", "params.center=[0.1,0.2]",
                                         "--set", "sweep.dim=[2,3]"]),
    "config36-argv36": (_SMOOTH_CONFIG, ["--set", "params.center=0.1"]),
    "config37-argv37":
        (_SMOOTH_CONFIG, ["--set", "params.center=[0.1,\"a\"]"]),
    "config38-argv38": (_SMOOTH_CONFIG, ["--set", "params.bandwidths=[0]"]),
    "config39-argv39":
        (_SMOOTH_CONFIG, ["--set", "params.bandwidths=[0.5,-1]"]),
    "config40-argv40":
        (_SMOOTH_CONFIG, ["--set", "sweep.bandwidths=[[0.5],[0]]"]),
    "config41-argv41": (_SMOOTH_CONFIG, ["--set", "params.bandwidths=0.5"]),
    "config42-argv42": (_SMOOTH_CONFIG, ["--set", "params.bandwidths=[]"]),
    "config43-argv43": (_CONFIG, ["--set", "dataset.dim=2"]),
    "config44-argv44": (_CONFIG, ["--set", "sweep.dim=[1,2]"]),
    "config45-argv45": (_HINGE_CONFIG, ["--set", "dataset.margin=0"]),
    "config46-argv46": (_HINGE_CONFIG, ["--set", "sweep.margin=[0.2,1]"]),
    "config47-argv47": (_SMOOTH_CONFIG, ["--set", "dataset.sigma=0"]),
    "config48-argv48":
        (_SMOOTH_CONFIG, ["--set", "sweep.sigma=[0.4,\"inf\"]"]),
    "config49-argv49": (_CONFIG, ["--set", "dataset.margin=5",
                                  "--set", "dataset.q=7"]),
    "config50-argv50": (_CONFIG, ["--set", "sweep.sigma=[0.5]"]),
    "config51-argv51": (_HINGE_CONFIG, ["--set", "dataset.q=0.5"]),
    "config52-argv52": (_MARGINALS_CONFIG, ["--set", "sweep.margin=[0.2]"]),
    "config53-argv53": (_SMOOTH_CONFIG, ["--set", "dataset.margin=0.2"]),
    "config54-argv54":
        ({**_CONFIG, "mechanism": "bernstein"}, ["--set", "dataset.dim=41"]),
    "config55-argv55": ({**_CONFIG, "mechanism": "onebit", "params": {}},
                        ["--set", "sweep.dim=[2,41]"]),
    "config56-argv56": ({**_CONFIG, "mechanism": "onebit", "params": {}},
                        ["--set", "params.epsilon=1.0"]),
    "config57-argv57": ({**_CONFIG, "mechanism": "onebit", "params": {}},
                        ["--set", "sweep.epsilon=[0.5,1.0]"]),
    "config58-argv58": ({**_CONFIG, "mechanism": "bernstein", "params": {}},
                        ["--set", "params.grid_cap=100"]),
    "config59-argv59": ({**_CONFIG, "mechanism": "bernstein", "params": {}},
                        ["--set", "dataset.dim=3", "--set", "params.k=100"]),
    "config60-argv60": ({**_CONFIG, "mechanism": "onebit", "params": {}},
                        ["--set", "dataset.dim=3",
                         "--set", "sweep.k=[2,100]"]),
    "config61-argv61": ({**_CONFIG, "mechanism": "bernstein", "params": {}},
                        ["--set", "params.k=100", "--set", "sweep.dim=[1,3]"]),
    "config62-argv62": (_SMOOTH_CONFIG, ["--set", "params.t=1000"]),
    "config63-argv63": (_SMOOTH_CONFIG, ["--set", "sweep.t=[2,1000]"]),
    "config64-argv64": (_SMOOTH_CONFIG, ["--set", "params.t=0"]),
    # removed GLM params, with values they once accepted: in the config
    # file, as a --set param and as a --set sweep
    "config65-argv65":
        ({**_HINGE_CONFIG, "params": {"sigma_safety": 4.0}}, []),
    "config66-argv66": (_HINGE_CONFIG, ["--set", "params.sigma_safety=4.0"]),
    "config67-argv67": (_HINGE_CONFIG, ["--set", "sweep.sigma_safety=[4.0]"]),
    "config68-argv68": ({**_HINGE_CONFIG, "params": {"iters": 10}}, []),
    "config69-argv69": (_HINGE_CONFIG, ["--set", "params.iters=10"]),
    "config70-argv70": (_HINGE_CONFIG, ["--set", "sweep.iters=[10]"]),
    "config71-argv71": (_HINGE_CONFIG, ["--set", "params.d_cap=0"]),
    "config72-argv72": (_HINGE_CONFIG, ["--set", "sweep.d_cap=[2,0]"]),
    "config73-argv73": (_HINGE_CONFIG, ["--set", "params.target_alpha=2.0"]),
    "config74-argv74":
        (_HINGE_CONFIG, ["--set", "sweep.target_alpha=[1.0,2.0]"]),
    "config75-argv75": (_HINGE_CONFIG, ["--set", "params.target_alpha=0"]),
    "config76-argv76":
        (_HINGE_CONFIG, ["--set", "sweep.target_alpha=[0.5,0]"]),
    # each of these used to pass the check and then fail every trial
    "config77-argv77":
        ({**_CONFIG, "mechanism": "bernstein"}, ["--set", "params.k=0"]),
    "config78-argv78":
        ({**_CONFIG, "mechanism": "bernstein"}, ["--set", "sweep.k=[2,0]"]),
    "config79-argv79":
        ({**_CONFIG, "mechanism": "bernstein"}, ["--set", "params.h=0"]),
    "config80-argv80":
        ({**_CONFIG, "mechanism": "bernstein"}, ["--set", "sweep.h=[1,-1]"]),
    "config81-argv81": ({**_CONFIG, "mechanism": "onebit", "params": {}},
                        ["--set", "params.k=-1"]),
    "config82-argv82": ({**_CONFIG, "mechanism": "onebit", "params": {}},
                        ["--set", "sweep.k=[0]"]),
    "config83-argv83": ({**_CONFIG, "mechanism": "onebit", "params": {}},
                        ["--set", "params.h=0"]),
    "config84-argv84": ({**_CONFIG, "mechanism": "onebit", "params": {}},
                        ["--set", "sweep.h=[2,0]"]),
    "config85-argv85": (_MARGINALS_CONFIG, ["--set", "params.k=0"]),
    "config86-argv86": (_MARGINALS_CONFIG, ["--set", "sweep.k=[1,0]"]),
    "config87-argv87": (_MARGINALS_CONFIG, ["--set", "params.gamma=0"]),
    "config88-argv88": (_MARGINALS_CONFIG, ["--set", "sweep.gamma=[0.2,0]"]),
    "config89-argv89": (_MARGINALS_CONFIG, ["--set", "params.gamma=1.5"]),
    "config90-argv90": (_MARGINALS_CONFIG, ["--set", "sweep.gamma=[1.5]"]),
    "config91-argv91": (_MARGINALS_CONFIG, ["--set", "params.gamma=NaN"]),
    "config92-argv92": (_MARGINALS_CONFIG, ["--set", "sweep.gamma=[0.2,NaN]"]),
    "config93-argv93": (_MARGINALS_CONFIG, ["--set", "params.gamma=abc"]),
    "config94-argv94": (_MARGINALS_CONFIG, ["--set", "sweep.gamma=[\"abc\"]"]),
    # a data key's "null" is not its default: n has none
    "config95-argv95": (_CONFIG, ["--set", "dataset.n=null"]),
    # an integer too large for a float
    "config96-argv96": (_CONFIG, ["--set", "params.epsilon=1" + "0" * 400]),
    # delta 0 used to pass the check and then fail every trial
    "config97-argv97": ({**_HINGE_CONFIG, "params": {"delta": 0}}, []),
    "config98-argv98": ({**_HINGE_CONFIG, "mechanism": "general-linear"},
                        ["--set", "sweep.delta=[1e-5,0]"]),
    # a misspelled top-level key used to be dropped silently
    "config99-argv99": ({**_CONFIG, "trails": 1}, []),
    "config100-argv100": ({**_CONFIG, "sweeep": {"epsilon": [1.0, 2.0]}}, []),
    # an empty sweep entry gives no cells, so nothing else was checked
    "config101-argv101": (_CONFIG, ["--set", "sweep.epsilon=[]"]),
    # the params fix the OR polynomial and its expansion, so each of these
    # used to fail every trial: a polynomial that misses its gamma, and
    # C(40+5,5) coefficients, above the cap
    "config102-argv102": (_MARGINALS_CONFIG, ["--set", "params.k=10",
                                              "--set", "params.gamma=1e-6"]),
    "config103-argv103": ({**_MARGINALS_CONFIG, "params": {"k": 8}},
                          ["--set", "dataset.dim=40"]),
    # at p = 1 the t x t coefficient transform is larger than the basis, and
    # at t = 448 it is above the cap
    "config104-argv104": (_SMOOTH_CONFIG, ["--set", "dataset.dim=1",
                                           "--set", "params.t=448"]),
    # a query selects k of the dim attributes, so k = 4 at dim 3 is refused
    "config105-argv105": (_MARGINALS_CONFIG, ["--set", "dataset.dim=3",
                                              "--set", "params.k=4"]),
    # 8 players cannot fill the 9 cells of a one-bit grid at k = 2, dim 2
    "config106-argv106": ({**_CONFIG, "mechanism": "onebit",
                           "params": {"k": 2}},
                          ["--set", "dataset.n=8", "--set", "dataset.dim=2"]),
}


@pytest.mark.parametrize("config, argv", list(_BAD_INPUT.values()),
                         ids=list(_BAD_INPUT))
def test_cli_rejects_bad_input_with_exit_2(tmp_path, capsys, config, argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    mechanism = config["mechanism"] if isinstance(config, dict) else "avg-bench"
    code = cli.main([mechanism, "--config", str(path), "--out", str(out),
                     *argv])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()  # rejected before any trial ran


@pytest.mark.parametrize("name", ["sigma_safety", "iters"])
def test_removed_glm_param_names_the_accepted_ones(tmp_path, capsys, name):
    # sigma is in closed form and the step count comes from it, so neither
    # is a param any more; a config that still sets one is refused by name
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_HINGE_CONFIG, "params": {name: 4}}))
    out = tmp_path / "run"
    assert cli.main(["hinge", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{name}'" in err
    assert "accepted: d_cap, delta, epsilon, target_alpha" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--set", "params.epsilon=inf"],
                                  ["--set", "sweep.epsilon=[\"inf\"]"]])
def test_onebit_epsilon_inf_is_exit_2(tmp_path, capsys, argv):
    # the ln 2 rule is part of parsing, so a string "inf" reaches it as inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_CONFIG, "mechanism": "onebit",
                                "params": {}}))
    out = tmp_path / "run"
    code = cli.main(["onebit", "--config", str(path), "--out", str(out),
                     *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "ln 2" in err
    assert not out.exists()


@pytest.mark.parametrize("config, key, given, plain", [
    ({**_CONFIG, "mechanism": "onebit", "params": {"k": 2}}, "epsilon",
     "\"0.5\"", "0.5"),
    ({**_HINGE_CONFIG, "params": {"d_cap": 2}}, "d_cap", "3.0", "3"),
    ({**_CONFIG, "mechanism": "bernstein"}, "sweep.k", "[2.0]", "[2]"),
])
def test_accepted_param_runs_as_its_parsed_value(tmp_path, config, key,
                                                 given, plain):
    # every trial runs on the value the check parsed, not on the raw value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    field = key if "." in key else f"params.{key}"  # a bare key is a param
    reports = []
    for name, value in (("given", given), ("plain", plain)):
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleSizeWarning)
            code = cli.main([config["mechanism"], "--config", str(path),
                             "--out", str(out),
                             "--set", f"{field}={value}"])
        assert code == 0
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", ["trials", "seed", "workers"])
def test_config_count_runs_as_its_parsed_value(tmp_path, name):
    # the config's own counts parse as a param's count does, and the run
    # sees the parsed int: 2.0 gives the same run as 2
    path = _write_config(tmp_path / "cfg.json")
    reports = []
    for value in ("2.0", "2"):
        out = tmp_path / value
        code = cli.main(["avg-bench", "--config", str(path), "--out",
                         str(out), "--set", f"{name}={value}"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert type(manifest[name]) is int and manifest[name] == 2
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def _value_table(head: str, owners: dict) -> list:
    # one row per declaration, listing every owner (mechanism or family)
    # that declares it under that name
    rows = {}
    for owner, params in owners.items():
        for name, param in params.items():
            rows.setdefault((name, param), []).append(f"`{owner}`")
    lines = [f"| {head} | default | accepted |", "|---|---|---|---|"]
    for (name, param), names in rows.items():
        try:
            param.parse(param.default)
            default = f"`{json.dumps(param.default)}`"
        except (TypeError, ValueError):
            default = "required"
        lines.append(f"| `{name}` | {', '.join(names)} | {default} | "
                     f"{param.wanted} |")
    return lines


def test_readme_tables_match_declarations():
    # the README's accepted-values tables are the declarations, rendered
    want = "\n".join([
        *_value_table("param | mechanisms",
                      {name: mech.params for name, mech in MECHANISMS.items()}),
        "", *_value_table("dataset key | families", FAMILY_KEYS)])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    marker = "<!-- params -->"
    assert readme.count(marker) == 2
    block = readme.split(marker)[1].strip("\n")
    assert block == want, f"README block between the markers should be:\n{want}"


def test_unused_data_key_rejected_with_family_keys():
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig("avg-bench", {**_CONFIG["dataset"], "margin": 5})
    assert "'uniform-cube' reads only 'n', 'dim'" in str(err.value)
    assert "'margin'" in str(err.value)


def _data_files(tmp_path):
    cube = tmp_path / "cube.csv"
    cube.write_text("0.1,0.2\n0.3,0.4\n")
    bits = tmp_path / "bits.csv"
    bits.write_text("0,1\n1,1\n")
    return {"cube": str(cube), "bits": str(bits)}


@pytest.mark.parametrize("mechanism, dataset", [
    ("hinge", {"family": "file", "path": "cube"}),
    ("marginals", {"family": "file", "path": "cube", "kind": "cube"}),
    ("bernstein", {"family": "file", "path": "bits", "kind": "binary"}),
    ("bernstein", {"family": "file"}),
    ("bernstein", {"family": "file", "path": "missing"}),
    ("bernstein", {"family": "file", "path": "cube", "kind": "weird"}),
    ("avg-bench", {"family": "uniform-cube", "dim": 1}),
    ("marginals", {"family": "bernoulli-bits", "n": 100, "dim": 4, "q": 1.5}),
    ("bernstein", {"family": "file", "path": "cube", "n": 2}),
    ("bernstein", {"family": "file", "path": "cube", "dim": 2}),
    # 65 bits do not pack into one int64 pattern
    ("marginals", {"family": "bernoulli-bits", "n": 100, "dim": 65}),
])
def test_cli_rejects_unusable_dataset_with_exit_2(tmp_path, capsys,
                                                  mechanism, dataset):
    # each of these used to pass validation and then fail every trial
    files = _data_files(tmp_path)
    if "path" in dataset:
        dataset = {**dataset, "path": files.get(dataset["path"],
                                                str(tmp_path / "missing.csv"))}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mechanism": mechanism, "dataset": dataset,
                                "trials": 1}))
    out = tmp_path / "run"
    code = cli.main([mechanism, "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_file_kinds_match_mechanisms(tmp_path):
    files = _data_files(tmp_path)
    ball = tmp_path / "ball.csv"
    np.savetxt(ball, np.array([[0.5, 0.1, 1.0], [0.2, -0.3, -1.0]] * 20),
               delimiter=",")
    for mechanism, dataset, params in [
            ("hinge", {"path": str(ball), "kind": "ball"}, {"d_cap": 2}),
            ("marginals", {"path": files["bits"], "kind": "binary"},
             {"k": 1, "gamma": 0.2}),
            ("smooth-queries", {"path": files["cube"]}, {"t": 2}),
            ("smooth-queries", {"path": files["cube"], "kind": "box"},
             {"t": 2})]:
        cfg = ExperimentConfig(
            mechanism=mechanism, dataset={"family": "file", **dataset},
            params=params, trials=1, out=str(tmp_path / mechanism))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleSizeWarning)
            assert run_experiment(cfg).failures == 0


def test_dataset_sweep_checks_every_spec():
    # a sweep may supply a spec key the dataset leaves out
    ExperimentConfig(mechanism="avg-bench",
                     dataset={"family": "uniform-cube", "dim": 1},
                     sweep={"n": [10, 20]})
    with pytest.raises(ConfigurationError, match="'q'"):
        ExperimentConfig(mechanism="marginals",
                         dataset={"family": "bernoulli-bits", "n": 10,
                                  "dim": 2},
                         sweep={"q": [0.3, 1.5]})
    with pytest.raises(ConfigurationError, match="missing 'n'"):
        ExperimentConfig(mechanism="avg-bench",
                         dataset={"family": "uniform-cube"},
                         sweep={"dim": [1]})


def test_file_dataset_rejects_data_key_sweep(tmp_path, capsys):
    # the file fixes n; each cell would report the file's two rows
    files = _data_files(tmp_path)
    one_column = tmp_path / "one.csv"
    one_column.write_text("0.1\n0.3\n")
    config = {"mechanism": "avg-bench",
              "dataset": {"family": "file", "path": str(one_column)},
              "sweep": {"n": [10, 20, 30]}, "trials": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    code = cli.main(["avg-bench", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "'n'" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigurationError, match="'q'"):
        ExperimentConfig(mechanism="marginals",
                         dataset={"family": "file", "path": files["bits"],
                                  "kind": "binary"},
                         sweep={"q": [0.3]})


def test_smooth_center_checked_against_file_data(tmp_path):
    # a file's dim is known only when it is read, so the trial fails
    files = _data_files(tmp_path)
    cfg = ExperimentConfig(
        mechanism="smooth-queries",
        dataset={"family": "file", "path": files["cube"]},
        params={"t": 2, "center": [0.1]}, trials=1, out=str(tmp_path / "r"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        result = run_experiment(cfg)
    assert result.failures == 1
    assert result.rows[0]["status"] == "ConfigurationError"
    assert "dim 2" in result.rows[0]["error"]


def test_avg_bench_dim_checked_against_file_data(tmp_path):
    # the same check_data as a synthetic spec, run on the trial's data
    files = _data_files(tmp_path)
    cfg = ExperimentConfig(
        mechanism="avg-bench",
        dataset={"family": "file", "path": files["cube"]},
        trials=1, out=str(tmp_path / "r"))
    result = run_experiment(cfg)
    assert result.failures == 1
    assert result.rows[0]["status"] == "ConfigurationError"
    assert "the dataset has dim 2" in result.rows[0]["error"]


@pytest.mark.parametrize("mechanism, kind, text, params", [
    ("avg-bench", "cube", "0.1\nnan\n0.3\n", {}),
    ("smooth-queries", "box", "0.1,0.2\nnan,-0.4\n", {"t": 2}),
    ("hinge", "ball", "0.5,0.1,1\nnan,-0.3,-1\n", {"d_cap": 2}),
    ("hinge", "ball", "0.5,0.1,1\n0.2,-0.3,nan\n", {"d_cap": 2}),
], ids=["cube", "box", "ball-features", "ball-labels"])
def test_nan_in_file_dataset_fails_every_trial(tmp_path, capsys, mechanism,
                                              kind, text, params):
    # NaN fails every comparison, so a range check must be written to let
    # only in-range values through; else the trial reports nan or 0 as ok
    data = tmp_path / "data.csv"
    data.write_text(text)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "mechanism": mechanism, "params": params, "trials": 2,
        "dataset": {"family": "file", "path": str(data), "kind": kind}}))
    out = tmp_path / "run"
    assert cli.main([mechanism, "--config", str(path), "--out", str(out)]) == 3
    assert "0 ok, 2 failed" in capsys.readouterr().out
    with open(out / "report.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["ParameterError"] * 2


def test_cli_flags_override_set_items(tmp_path):
    # a flag wins over a --set item for the same field
    path = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    code = cli.main(["avg-bench", "--config", str(path), "--seed", "4",
                     "--set", "seed=3", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 4
    want = tmp_path / "want"
    cli.main(["avg-bench", "--config", str(path), "--seed", "4",
              "--out", str(want)])
    assert ((out / "report.csv").read_bytes()
            == (want / "report.csv").read_bytes())


def test_cli_out_flag_is_a_path_verbatim(tmp_path, monkeypatch):
    # a flag value is never parsed as JSON: --out null is the path "null"
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path / "cfg.json")
    assert cli.main(["avg-bench", "--config", str(path),
                     "--out", "null"]) == 0
    assert (tmp_path / "null" / "report.csv").exists()


def test_cli_failures_are_exit_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "mechanism": "marginals",
        "dataset": {"family": "file", "path": _bits_file(tmp_path, 100, 4),
                    "kind": "binary"},
        "params": {"k": 9, "gamma": 0.2, "epsilon": 1.0},
        "trials": 1, "seed": 0}))
    code = cli.main(["marginals", "--config", str(path),
                     "--out", str(tmp_path / "run")])
    assert code == 3
    assert "1 failed" in capsys.readouterr().out


def test_console_script_installed(tmp_path):
    path = _write_config(tmp_path / "cfg.json")
    proc = subprocess.run(
        [sys.executable, "-m", "ldp_erm.cli", "avg-bench", "--config",
         str(path), "--out", str(tmp_path / "run"), "--trials", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_WITHOUT_SCIPY = r"""
import importlib.abc
import json
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import ldp_erm
from ldp_erm.harness import ExperimentConfig, run_experiment

statuses = {}
for mechanism, dataset, params in json.loads(sys.argv[2]):
    result = run_experiment(ExperimentConfig(
        mechanism, dataset, params, trials=1, seed=3,
        out=f"{sys.argv[1]}/{mechanism}"))
    statuses[mechanism] = [row["status"] for row in result.rows]
print(json.dumps({"statuses": statuses,
                  "scipy": [m for m in sys.modules if m.startswith("scipy")]}))
"""


def test_every_mechanism_runs_without_scipy(tmp_path):
    cube = {"family": "uniform-cube", "n": 2000, "dim": 1}
    ball = {"family": "separable-two-class", "n": 200, "dim": 2}
    runs = [
        ("bernstein", cube, {"k": 2}),
        ("onebit", cube, {"k": 2}),
        ("hinge", ball, {"d_cap": 2}),
        ("general-linear", ball, {"d_cap": 2}),
        ("marginals", {"family": "bernoulli-bits", "n": 200, "dim": 4},
         {"k": 1, "gamma": 0.2}),
        ("smooth-queries",
         {"family": "gaussian-ball-clipped", "n": 200, "dim": 2}, {"t": 2}),
        ("avg-bench", cube, {}),
    ]
    assert sorted(run[0] for run in runs) == sorted(MECHANISMS)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path),
         json.dumps(runs)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["statuses"] == {run[0]: ["ok"] for run in runs}
    assert result["scipy"] == []
