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
from ldp_erm.baselines import glm_baseline, projected_subgradient
from ldp_erm.bernstein_erm import CubeDataset, check_grid_size
from ldp_erm.datasets import generate_dataset, separable_two_class
from ldp_erm.errors import (ConfigurationError, ParameterError,
                            SampleSizeWarning)
from ldp_erm.geometry import BallConstraint, BoxConstraint
from ldp_erm.glm_erm import BallDataset, hinge_flavor
from ldp_erm.harness import (MECHANISMS, REPORT_COLUMNS, TRANSCRIPT_COLUMNS,
                             ExperimentConfig, apply_set_overrides,
                             grid_loss_excess, load_config, make_grid_loss,
                             run_experiment, _expand_sweep)
from ldp_erm.query_release import BinaryDataset, BoxDataset, check_basis_cap
from ldp_erm.rng import derived_rng
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
    wstar = float(np.clip(xs.mean(), 0.0, 1.0))
    fstar = float(np.mean((xs - wstar) ** 2))
    w, f = projected_subgradient(
        lambda w: float(np.mean((xs - w[0]) ** 2)),
        lambda w: np.array([2.0 * (w[0] - xs.mean())]),
        BoxConstraint(0.0, 1.0, 1))
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

    constraint = BallConstraint((0.0, 0.0), 1.0)
    _, f1 = projected_subgradient(objective, subgrad, constraint)
    _, f2 = dense_grid_minimize(objective_many, constraint, step=2e-3)
    assert abs(f1 - f2) <= 1e-3
    with pytest.raises(ParameterError):
        dense_grid_minimize(objective_many, BallConstraint((0.0,) * 3, 1.0))


@pytest.mark.parametrize("n, dim, margin, seed", [
    (300, 2, 0.05, 1), (2001, 3, 0.2, 4), (5000, 5, 0.05, 3),
    (2000, 5, 0.45, 2), (1000, 5, 0.7, 6), (1000, 2, 0.9, 7),
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


def _fixed_iters_subgradient(objective, subgrad, constraint):
    # the solver as it was before the certified stop: always ITERS steps
    radius = constraint.radius
    w = np.asarray(constraint.center(), dtype=float)
    avg = w.copy()
    best_w, best_f = w.copy(), float(objective(w))
    for t in range(1, baselines.ITERS + 1):
        g = np.asarray(subgrad(w), dtype=float)
        w = constraint.project(w - (radius / math.sqrt(t)) * g)
        avg += (w - avg) / (t + 1)
        if t % baselines.EVAL_EVERY == 0 or t == baselines.ITERS:
            for cand in (avg, w):
                f = float(objective(cand))
                if f < best_f:
                    best_w, best_f = cand.copy(), f
    return best_w, best_f


@pytest.mark.parametrize("kink, constraint", [
    ((0.3,), BoxConstraint(0.0, 1.0, 1)),
    ((0.31, -0.17), BallConstraint((0.0, 0.0), 1.0)),
])
def test_uncertified_baseline_run_is_unchanged(monkeypatch, kink, constraint):
    # an interior kink, and a subgradient that is never 0 there: every
    # certificate stays below the optimum, so the run takes all ITERS steps
    kink = np.array(kink)

    def objective(w):
        return float(np.sum(np.abs(w - kink)))

    def subgrad(w):
        return np.where(w >= kink, 1.0, -1.0)

    w_ref, f_ref = _fixed_iters_subgradient(objective, subgrad, constraint)
    bounds = _recorded_bounds(monkeypatch)
    w, f = projected_subgradient(objective, subgrad, constraint)
    assert len(bounds) == 2 * baselines.ITERS // baselines.EVAL_EVERY
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
@pytest.mark.parametrize("constraint, target", [
    (BallConstraint((0.0, 0.0), 1.0), (1.2, -0.9)),
    (BallConstraint((0.0, 0.0), 1.0), (0.3, -0.2)),
    (BoxConstraint(-1.0, 1.0, 2), (1.4, 0.4)),
    (BoxConstraint(-1.0, 1.0, 2), (-1.3, 1.6)),
])
def test_certified_lower_bound_is_below_grid_optimum(monkeypatch, constraint,
                                                     target, kind):
    objective, subgrad, objective_many = _GRID_OBJECTIVES[kind](
        np.array(target))

    def taken_at_one_point(value, g, c, constraint):
        assert value == objective(c)
        assert np.array_equal(g, subgrad(c))

    bounds = _recorded_bounds(monkeypatch, taken_at_one_point)
    _, f = projected_subgradient(objective, subgrad, constraint)
    _, f_grid = dense_grid_minimize(objective_many, constraint, step=2e-3)
    assert bounds
    # any lower bound on the constrained optimum is below the grid's best
    assert max(bounds) <= f_grid + 1e-12
    assert f - max(bounds) >= -1e-12


@pytest.mark.parametrize("constraint", [
    BallConstraint((0.2, -0.1, 0.4), 0.7), BoxConstraint(-0.5, 2.0, 3)])
def test_linear_minimizer_minimises_over_the_set(constraint):
    rng = derived_rng(42)
    pts = constraint.project(constraint.center()
                             + 3.0 * rng.standard_normal((2000, 3)))
    for g in [*rng.standard_normal((5, 3)), np.array([0.0, 1.0, -2.0]),
              np.zeros(3)]:
        v = constraint.linear_minimizer(g)
        assert np.allclose(constraint.project(v), v)  # feasible
        assert g @ v <= (pts @ g).min() + 1e-12


def test_glm_baseline_stops_at_first_checkpoint(monkeypatch):
    # the benchmark's glm data shape; the full loop would take ITERS steps
    data = generate_dataset({"family": "separable-two-class", "n": 2000,
                             "dim": 5, "margin": 0.05}, 3)
    calls = []
    solve = baselines.projected_subgradient

    def counted(objective, subgrad, constraint):
        def counting(w):
            calls.append(1)
            return subgrad(w)
        return solve(objective, counting, constraint)

    monkeypatch.setattr(baselines, "projected_subgradient", counted)
    glm_baseline(data, hinge_flavor())
    assert len(calls) <= baselines.EVAL_EVERY + 3


def test_grid_loss_excess_oracle():
    data = CubeDataset(derived_rng(41).random((300, 2)))
    w_opt = data.rows.mean(axis=0)
    assert abs(grid_loss_excess("quadratic", data, w_opt)) <= 1e-9
    assert grid_loss_excess("quadratic", data, np.zeros(2)) > 0.01
    assert grid_loss_excess("flat", data, np.zeros(2)) == 0.0
    with pytest.raises(ConfigurationError):
        make_grid_loss("cubic")


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
                     params={"iters": None}, sweep={"d_cap": [2, 3]})


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
    for params, sweep in [({"delta": 1.0}, {}), ({"delta": -1e-5}, {}),
                          ({}, {"delta": [1e-5, 2.0]})]:
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
                     params={"delta": 0.0}, sweep={"n": [1, 20.0]})


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


def test_sweep_expansion():
    cfg = ExperimentConfig(
        mechanism="avg-bench",
        dataset={"family": "uniform-cube", "n": 10, "dim": 1},
        params={"epsilon": 1.0},
        sweep={"n": [10, 20], "epsilon": [1.0, 2.0]})
    cells = _expand_sweep(cfg)
    assert len(cells) == 4
    combos = {(c["_dataset"]["n"], c["epsilon"]) for c in cells}
    assert combos == {(10, 1.0), (10, 2.0), (20, 1.0), (20, 2.0)}
    with pytest.raises(ConfigurationError, match="must be a list"):
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
        "reals_per_player", "seed", "status", "error",
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


def test_empty_sweep_gives_header_only(tmp_path):
    cfg = ExperimentConfig(
        mechanism="avg-bench",
        dataset={"family": "uniform-cube", "n": 50, "dim": 1},
        sweep={"epsilon": []}, out=str(tmp_path / "run"))
    result = run_experiment(cfg)
    assert open(result.report_path).read() == ",".join(REPORT_COLUMNS) + "\n"
    assert result.failures == 0 and result.rows == []


def test_identical_seeds_identical_reports(tmp_path):
    base = dict(mechanism="avg-bench",
                dataset={"family": "uniform-cube", "n": 300, "dim": 1},
                sweep={"epsilon": [0.5, 2.0]}, trials=3, seed=9)
    a = run_experiment(ExperimentConfig(out=str(tmp_path / "a"), **base))
    b = run_experiment(ExperimentConfig(out=str(tmp_path / "b"), **base))
    assert open(a.report_path, "rb").read() == open(b.report_path, "rb").read()
    assert (open(a.transcript_path, "rb").read()
            == open(b.transcript_path, "rb").read())


def test_worker_count_does_not_change_results(tmp_path):
    base = dict(mechanism="avg-bench",
                dataset={"family": "uniform-cube", "n": 300, "dim": 1},
                trials=4, seed=3)
    a = run_experiment(ExperimentConfig(out=str(tmp_path / "a"), workers=1,
                                        **base))
    b = run_experiment(ExperimentConfig(out=str(tmp_path / "b"), workers=3,
                                        **base))
    assert open(a.report_path, "rb").read() == open(b.report_path, "rb").read()


def test_partial_failures_recorded(tmp_path):
    # k=12 > p=8 passes config validation but fails inside the release;
    # the sweep must keep going and record the error per row
    cfg = ExperimentConfig(
        mechanism="marginals",
        dataset={"family": "bernoulli-bits", "n": 500, "dim": 8, "q": 0.3},
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
    assert len(by_status["ParameterError"]) == 2
    assert "k=12" in by_status["ParameterError"][0]["error"]


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
])
def test_size_caps_checked_up_front(mechanism, dataset, params, cap_check):
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig(mechanism, dataset, params)
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


@pytest.mark.parametrize("config, argv", [
    (_CONFIG, ["--seed", "-1"]),
    (_CONFIG, ["--workers", "0"]),
    (_CONFIG, ["--set", "trials=abc"]),
    (_CONFIG, ["--set", "trials=2.5"]),
    (_CONFIG, ["--set", "seed=1.5"]),
    (_CONFIG, ["--set", "workers=2.5"]),
    (_CONFIG, ["--set", "params.epsilonn=5"]),
    (_CONFIG, ["--set", "sweep.epsilom=[1,2]"]),
    (_CONFIG, ["--set", "sweep.epsilon=2"]),
    (_CONFIG, ["--set", "mechanism=bernstein", "--set", "params.k=8.7"]),
    (_CONFIG, ["--set", "mechanism=bernstein"]),
    (_CONFIG, ["--set", "mechanism=avg-bench"]),
    ({**_CONFIG, "seed": -3}, []),
    ({**_CONFIG, "trials": "2"}, []),
    ({**_CONFIG, "dataset": "uniform-cube"}, []),
    ({**_CONFIG, "params": [1.0]}, []),
    ({**_CONFIG, "sweep": "epsilon"}, []),
    ([_CONFIG], []),
    (_CONFIG, ["--set", "params.epsilon=-1"]),
    (_CONFIG, ["--set", "params.epsilon=0"]),
    (_CONFIG, ["--set", "sweep.epsilon=[1,-1]"]),
    (_CONFIG, ["--set", "dataset.n=0"]),
    (_CONFIG, ["--set", "dataset.dim=0"]),
    (_CONFIG, ["--set", "sweep.n=[200,0]"]),
    (_CONFIG, ["--set", "sweep.dim=[0]"]),
    ({**_HINGE_CONFIG, "params": {"delta": 1.0}}, []),
    ({**_HINGE_CONFIG, "params": {"delta": -0.1}}, []),
    ({**_HINGE_CONFIG, "sweep": {"delta": [1e-5, 1.5]}}, []),
    ({**_MARGINALS_CONFIG, "params": {"split_budget": "no"}}, []),
    (_MARGINALS_CONFIG, ["--set", "params.split_budget=no"]),
    (_MARGINALS_CONFIG, ["--set", "sweep.split_budget=[false,1]"]),
    ({**_CONFIG, "mechanism": "bernstein"}, ["--set", "params.loss=cubic"]),
    ({**_CONFIG, "mechanism": "onebit"}, ["--set", "sweep.loss=[\"flat\",3]"]),
    (_SMOOTH_CONFIG, ["--set", "params.center=[0.1]"]),
    (_SMOOTH_CONFIG, ["--set", "sweep.center=[[0.1,0.2],[0.1]]"]),
    (_SMOOTH_CONFIG, ["--set", "params.center=[0.1,0.2]",
                      "--set", "sweep.dim=[2,3]"]),
    (_SMOOTH_CONFIG, ["--set", "params.center=0.1"]),
    (_SMOOTH_CONFIG, ["--set", "params.center=[0.1,\"a\"]"]),
    (_SMOOTH_CONFIG, ["--set", "params.bandwidths=[0]"]),
    (_SMOOTH_CONFIG, ["--set", "params.bandwidths=[0.5,-1]"]),
    (_SMOOTH_CONFIG, ["--set", "sweep.bandwidths=[[0.5],[0]]"]),
    (_SMOOTH_CONFIG, ["--set", "params.bandwidths=0.5"]),
    (_SMOOTH_CONFIG, ["--set", "params.bandwidths=[]"]),
    (_CONFIG, ["--set", "dataset.dim=2"]),
    (_CONFIG, ["--set", "sweep.dim=[1,2]"]),
    (_HINGE_CONFIG, ["--set", "dataset.margin=0"]),
    (_HINGE_CONFIG, ["--set", "sweep.margin=[0.2,1]"]),
    (_SMOOTH_CONFIG, ["--set", "dataset.sigma=0"]),
    (_SMOOTH_CONFIG, ["--set", "sweep.sigma=[0.4,\"inf\"]"]),
    (_CONFIG, ["--set", "dataset.margin=5", "--set", "dataset.q=7"]),
    (_CONFIG, ["--set", "sweep.sigma=[0.5]"]),
    (_HINGE_CONFIG, ["--set", "dataset.q=0.5"]),
    (_MARGINALS_CONFIG, ["--set", "sweep.margin=[0.2]"]),
    (_SMOOTH_CONFIG, ["--set", "dataset.margin=0.2"]),
    ({**_CONFIG, "mechanism": "bernstein"}, ["--set", "dataset.dim=41"]),
    ({**_CONFIG, "mechanism": "onebit", "params": {}},
     ["--set", "sweep.dim=[2,41]"]),
    ({**_CONFIG, "mechanism": "onebit", "params": {}},
     ["--set", "params.epsilon=1.0"]),
    ({**_CONFIG, "mechanism": "onebit", "params": {}},
     ["--set", "sweep.epsilon=[0.5,1.0]"]),
    ({**_CONFIG, "mechanism": "bernstein", "params": {}},
     ["--set", "params.grid_cap=100"]),
    ({**_CONFIG, "mechanism": "bernstein", "params": {}},
     ["--set", "dataset.dim=3", "--set", "params.k=100"]),
    ({**_CONFIG, "mechanism": "onebit", "params": {}},
     ["--set", "dataset.dim=3", "--set", "sweep.k=[2,100]"]),
    ({**_CONFIG, "mechanism": "bernstein", "params": {}},
     ["--set", "params.k=100", "--set", "sweep.dim=[1,3]"]),
    (_SMOOTH_CONFIG, ["--set", "params.t=1000"]),
    (_SMOOTH_CONFIG, ["--set", "sweep.t=[2,1000]"]),
    (_SMOOTH_CONFIG, ["--set", "params.t=0"]),
])
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
                         dataset={"family": "bernoulli-bits", "n": 10},
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
        "dataset": {"family": "bernoulli-bits", "n": 100, "dim": 4, "q": 0.3},
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
