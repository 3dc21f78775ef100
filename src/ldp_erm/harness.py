"""Experiment orchestration: configs, sweeps, trials, and CSV reports.

A run is a mechanism name plus a dataset spec, fixed parameters, optional
sweep grids, and a trial count. Every (sweep cell, trial) pair executes
independently on its own derived RNG stream, so results are identical no
matter how many workers execute them or in which order. Reports are plain
CSV with one fixed superset schema across mechanisms; wall-clock numbers go
to a separate log so the CSVs stay byte-reproducible.
"""

import functools
import itertools
import json
import math
import os
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import __version__
from .bernstein_erm import (GridLoss, alg2_run, alg3_run, check_grid_dim,
                            check_grid_size)
from .datasets import (DATA_KEYS, FAMILIES, KINDS, BallDataset,
                       BinaryDataset, BoxDataset, CubeDataset, check_range,
                       check_spec, generate_dataset, is_integral,
                       spec_value)
from .errors import ConfigurationError, ParameterError
from .glm_erm import glm_erm_run, hinge_flavor, hinge_via_general_flavor
from .polyapprox import BernsteinOperatorSpec
from .primitives import (PrivacyBudget, Transcript, check_onebit_epsilon,
                         ldp_avg_1d)
from .query_release import (check_basis_cap, disjunction_truth,
                            marginals_answer, marginals_release,
                            smooth_release_and_answer)
from .rng import (TAG_TRIAL, TAG_TRIAL_DATASET, TAG_TRIAL_MECHANISM,
                  derived_rng, derived_seed)

REPORT_COLUMNS = [
    "trial", "mechanism", "family", "n", "p", "k", "h", "d", "t", "beta",
    "gamma", "epsilon", "delta", "mode", "flavor", "err_empirical",
    "baseline_err", "max_query_error", "bits_per_player",
    "reals_per_player", "seed", "status", "error",
]

TRANSCRIPT_COLUMNS = ["trial", "mechanism", "n", "messages",
                      "bits_per_player", "reals_per_player"]

# params that count something; a config value must be integral
INTEGER_PARAMS = frozenset({"k", "h", "t", "d_cap", "iters"})

# params whose values must lie in a range: name -> (test, what it requires)
PARAM_RANGES = {
    "epsilon": (lambda v: v > 0, "a number > 0"),
    "delta": (lambda v: 0 <= v < 1, "a number in [0, 1)"),
}


def _check_numbers(key: str, value, test, wanted: str):
    """Reject a param value that is not a non-empty list of such numbers."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigurationError(
            f"param {key!r} must be a non-empty list, got {value!r}")
    for item in value:
        check_range(f"each entry of param {key!r}", item, test, wanted)


def _check_count(name: str, value, least: int):
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigurationError(
            f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    mechanism: str
    dataset: dict
    params: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    trials: int = 20
    seed: int = 0
    out: Optional[str] = None
    workers: Optional[int] = None

    def __post_init__(self):
        if (not isinstance(self.mechanism, str)
                or self.mechanism not in MECHANISMS):
            raise ConfigurationError(
                f"unknown mechanism {self.mechanism!r}; known: "
                f"{', '.join(MECHANISMS)}")
        for name in ("dataset", "params", "sweep"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigurationError(
                    f"{name} must be a JSON object, got "
                    f"{getattr(self, name)!r}")
        _check_count("trials", self.trials, 0)
        _check_count("seed", self.seed, 0)
        if self.workers is not None:
            _check_count("workers", self.workers, 1)
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigurationError(f"out must be a path, got {self.out!r}")
        for key, values in self.sweep.items():
            if not isinstance(values, (list, tuple)):
                raise ConfigurationError(f"sweep entry {key!r} must be a list")
        # every dataset spec a trial will generate
        records = MECHANISMS[self.mechanism].records
        keys = [key for key in sorted(self.sweep) if key in DATA_KEYS]
        specs = [{**self.dataset, **dict(zip(keys, combo))}
                 for combo in itertools.product(
                     *(self.sweep[key] for key in keys))]
        for spec in specs:
            record = check_spec(spec)
            if record not in records:
                raise ConfigurationError(
                    f"mechanism {self.mechanism!r} consumes "
                    f"{_accepted(records)}; this dataset gives "
                    f"{record.__name__}")
        for key, value in self.params.items():
            self._check_param(key, [value])
        for key, values in self.sweep.items():
            if key not in DATA_KEYS:
                self._check_param(key, values)
        mech = MECHANISMS[self.mechanism]
        if mech.check_data is not None:
            # the values each param takes in some trial
            values = {key: self.sweep.get(key, [self.params.get(key, default)])
                      for key, default in mech.params.items()}
            # a file's dim is known only once it is read, in run_trial
            for spec in specs:
                if spec["family"] != "file":
                    mech.check_data(int(spec_value(spec, "dim")), values)

    def _check_param(self, key: str, values):
        defaults = MECHANISMS[self.mechanism].params
        if key not in defaults:
            raise ConfigurationError(
                f"mechanism {self.mechanism!r} has no param {key!r}; "
                f"accepted: {', '.join(sorted(defaults))}")
        for value in values:
            if key in INTEGER_PARAMS and not (
                    is_integral(value)
                    or (value is None and defaults[key] is None)):
                raise ConfigurationError(
                    f"param {key!r} must be an integer, got {value!r}")
            if key in PARAM_RANGES:
                check_range(f"param {key!r}", value, *PARAM_RANGES[key])
            if isinstance(defaults[key], bool) and not isinstance(value, bool):
                raise ConfigurationError(
                    f"param {key!r} must be true or false, got {value!r}")
            if key == "loss":
                make_grid_loss(value)  # raises on an unknown name
            if key == "bandwidths":
                _check_numbers(key, value, lambda v: v > 0, "a number > 0")
            if key == "center" and value is not None:
                _check_numbers(key, value, math.isfinite, "a finite number")


def _accepted(records) -> str:
    families = [f for f, record in FAMILIES.items() if record in records]
    kinds = [k for k, record in KINDS.items() if record in records]
    return (f"{' or '.join(r.__name__ for r in records)} (dataset family "
            f"{' or '.join(families)}, or file of kind {' or '.join(kinds)})")


def load_config(path: str, mechanism: Optional[str] = None) -> ExperimentConfig:
    """Read a config (or a previous run's manifest — same shape) from JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"config {path} must hold a JSON object, got "
            f"{type(raw).__name__}")
    known = {"mechanism", "dataset", "params", "sweep", "trials", "seed",
             "out", "workers"}
    fields = {k: v for k, v in raw.items() if k in known}
    if mechanism is not None:
        fields["mechanism"] = mechanism
    if "mechanism" not in fields:
        raise ConfigurationError("config does not name a mechanism")
    if "dataset" not in fields:
        raise ConfigurationError("config does not define a dataset")
    return ExperimentConfig(**fields)


def apply_set_overrides(cfg: ExperimentConfig, sets) -> ExperimentConfig:
    """Apply dotted key=value overrides, e.g. params.epsilon=0.5."""
    mut = {"dataset": dict(cfg.dataset), "params": dict(cfg.params),
           "sweep": dict(cfg.sweep)}
    for item in sets or ():
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not key=value")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        head, _, tail = key.partition(".")
        if head in mut and tail:
            mut[head][tail] = value
        elif head in ("trials", "seed", "workers"):
            mut[head] = value  # type-checked by ExperimentConfig
        elif head == "out":
            mut[head] = str(value)
        elif head == "mechanism":
            raise ConfigurationError(
                "the mechanism is chosen on the command line, not by --set")
        else:
            raise ConfigurationError(f"cannot override {key!r}")
    return replace(cfg, **mut)


# --- grid-mechanism losses -----------------------------------------------------

GRID_LOSSES = ("quadratic", "quartic", "flat")


def _power_loss(power: int) -> GridLoss:
    """Per row, the mean over coordinates of (row_j - theta_j) ** power.

    Accumulates one column at a time, so a call builds no n x p temporary
    and reduces over no row axis. Up to p = 7 this adds in the order
    numpy's row mean does and is bit-identical to it; from p = 8 numpy sums
    rows pairwise and the two differ in the last bits (under 1e-15
    relative).
    """
    def loss(theta, rows):
        p = rows.shape[1]
        acc = rows[:, 0] - theta[0]
        acc **= power
        for j in range(1, p):
            col = rows[:, j] - theta[j]
            col **= power
            acc += col
        acc /= p
        return acc
    return loss


def make_grid_loss(name: str) -> GridLoss:
    if name == "quadratic":
        return _power_loss(2)
    if name == "quartic":
        return _power_loss(4)
    if name == "flat":
        return lambda theta, rows: np.full(rows.shape[0], 0.5)
    raise ConfigurationError(
        f"unknown grid loss {name!r}; known: {', '.join(GRID_LOSSES)}")


def _coordinate_objectives(name: str, rows: np.ndarray):
    """Per-coordinate polynomial objectives from data moments.

    Both named losses are separable across coordinates and polynomial in
    theta, so the empirical objective is exact in the coordinate-wise
    moments and costs O(1) per evaluation afterwards.
    """
    m1 = rows.mean(axis=0)
    m2 = (rows ** 2).mean(axis=0)
    if name == "quadratic":
        def gj(theta_j, j):
            return theta_j ** 2 - 2.0 * theta_j * m1[j] + m2[j]
        return gj
    m3 = (rows ** 3).mean(axis=0)
    m4 = (rows ** 4).mean(axis=0)

    def gj(theta_j, j):
        return (theta_j ** 4 - 4.0 * theta_j ** 3 * m1[j]
                + 6.0 * theta_j ** 2 * m2[j] - 4.0 * theta_j * m3[j] + m4[j])
    return gj


def grid_loss_excess(name: str, data: CubeDataset, w: np.ndarray) -> float:
    """Excess empirical risk of w against the separable exact optimum."""
    if name == "flat":
        return 0.0
    gj = _coordinate_objectives(name, data.rows)
    p = data.dim
    axis = np.linspace(0.0, 1.0, 100_001)
    value = 0.0
    best = 0.0
    for j in range(p):
        value += float(gj(float(w[j]), j))
        best += float(np.min(gj(axis, j)))
    return (value - best) / p


# --- per-trial executors --------------------------------------------------------
#
# An executor runs one trial of its mechanism on the trial's dataset, which
# holds records of a type its table entry consumes. It gets the params merged
# over the entry's defaults, the trial seed and the trial's transcript, and
# returns the report fields it measured; ``run_trial`` fills in the sizes and
# the message accounting. Library calls go through this module's globals at
# call time, so that they can be wrapped from outside (span tracing).


def _trial_grid(data: CubeDataset, params: dict, seed: int,
                transcript: Transcript, onebit: bool) -> dict:
    loss = make_grid_loss(params["loss"])
    k, h = int(params["k"]), int(params["h"])
    spec = BernsteinOperatorSpec(k=k, h=h, p=data.dim)
    epsilon = float(params["epsilon"])
    budget = PrivacyBudget(epsilon=epsilon)
    if onebit:
        release = alg3_run(data, loss, spec, budget,
                           derived_seed(seed, TAG_TRIAL_MECHANISM),
                           transcript=transcript)
    else:
        release = alg2_run(data, loss, spec, budget,
                           derived_rng(seed, TAG_TRIAL_MECHANISM),
                           transcript=transcript)
    err = grid_loss_excess(params["loss"], data, release.w_priv)
    return {"k": k, "h": h, "epsilon": epsilon,
            "mode": "onebit" if onebit else "laplace", "err_empirical": err}


def _trial_glm(data: BallDataset, params: dict, seed: int,
               transcript: Transcript, general: bool) -> dict:
    flavor = hinge_via_general_flavor() if general else hinge_flavor()
    epsilon, delta = float(params["epsilon"]), float(params["delta"])
    report = glm_erm_run(
        data, flavor,
        target_alpha=float(params["target_alpha"]),
        budget=PrivacyBudget(epsilon=epsilon, delta=delta),
        rng=derived_rng(seed, TAG_TRIAL_MECHANISM),
        d_cap=int(params["d_cap"]), iters=params["iters"],
        sigma_safety=float(params["sigma_safety"]), transcript=transcript)
    return {"d": report.d, "beta": report.beta, "epsilon": epsilon,
            "delta": delta, "flavor": report.flavor,
            "err_empirical": report.err_empirical,
            "baseline_err": report.baseline_err}


def _all_disjunction_queries(p: int, k: int):
    for size in range(0, k + 1):
        for support in itertools.combinations(range(p), size):
            y = np.zeros(p, dtype=np.int64)
            y[list(support)] = 1
            yield y


def _trial_marginals(data: BinaryDataset, params: dict, seed: int,
                     transcript: Transcript) -> dict:
    k, gamma = int(params["k"]), float(params["gamma"])
    epsilon = float(params["epsilon"])
    table = marginals_release(
        data, k, gamma, PrivacyBudget(epsilon=epsilon),
        derived_rng(seed, TAG_TRIAL_MECHANISM),
        split_budget=params["split_budget"], transcript=transcript)
    worst = 0.0
    for y in _all_disjunction_queries(data.dim, k):
        ans = marginals_answer(table, y)
        worst = max(worst, abs(ans.value - disjunction_truth(data, y)))
    return {"k": k, "gamma": gamma, "epsilon": epsilon, "max_query_error": worst}


def _gaussian_kernel(center: np.ndarray, bandwidth: float):
    def f(pts):
        pts = np.asarray(pts, dtype=float)
        diff = pts - center
        return np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * bandwidth ** 2))
    return f


def _trial_smooth(data, params: dict, seed: int,
                  transcript: Transcript) -> dict:
    data = BoxDataset(data.rows)  # cube entries are inside the box
    t = int(params["t"])
    epsilon = float(params["epsilon"])
    center = params["center"]
    if center is None:  # the default depends on the data's dimension
        center = [0.25] * data.dim
    center = np.asarray(center, dtype=float)
    queries = [_gaussian_kernel(center, float(b))
               for b in params["bandwidths"]]
    _, answers = smooth_release_and_answer(
        data, t, PrivacyBudget(epsilon=epsilon), queries,
        derived_rng(seed, TAG_TRIAL_MECHANISM), transcript=transcript)
    worst = 0.0
    for f, ans in zip(queries, answers):
        truth = float(np.mean(f(data.rows)))
        worst = max(worst, abs(ans.value - truth))
    return {"t": t, "epsilon": epsilon, "max_query_error": worst}


def _check_grid_data(dim: int, values: dict):
    check_grid_dim(dim)
    for k in values["k"]:
        check_grid_size(int(k), dim)


def _check_onebit_data(dim: int, values: dict):
    _check_grid_data(dim, values)
    for epsilon in values["epsilon"]:
        try:
            check_onebit_epsilon(epsilon)
        except ParameterError as exc:
            raise ConfigurationError(str(exc)) from None


def _check_smooth_data(dim: int, values: dict):
    for t in values["t"]:
        try:
            check_basis_cap(int(t), dim)
        except ParameterError as exc:
            raise ConfigurationError(str(exc)) from None
    # a kernel centre is a point of the data space, or None for the default
    for center in values["center"]:
        if center is not None and len(center) != dim:
            raise ConfigurationError(
                f"param 'center' has {len(center)} coordinates; the data "
                f"has dim {dim}")


def _check_avg_bench_data(dim: int, values: dict):
    if dim != 1:
        raise ConfigurationError(
            f"avg-bench needs 1-d cube data; the dataset has dim {dim}")


def _trial_avg_bench(data: CubeDataset, params: dict, seed: int,
                     transcript: Transcript) -> dict:
    values = data.rows[:, 0]
    epsilon = float(params["epsilon"])
    a = ldp_avg_1d(values, 1.0, PrivacyBudget(epsilon=epsilon),
                   derived_rng(seed, TAG_TRIAL_MECHANISM),
                   transcript=transcript)
    return {"epsilon": epsilon, "err_empirical": abs(a - float(values.mean()))}


# --- the mechanism table ----------------------------------------------------------


@dataclass(frozen=True)
class Mechanism:
    """Everything the harness knows about one mechanism.

    ``records`` are the record types it consumes (the dataset families and
    file kinds it accepts are those that give one), ``params`` the params a
    config may set, with their defaults, and ``run`` its executor.
    ``check_data``, if set, rejects data the mechanism cannot run on, given
    the data's ``dim`` and, per param, the list of values it takes in some
    trial. It runs up front on every synthetic spec, and in ``run_trial``
    on each trial's data, which is the one check of file data.
    """

    records: tuple
    params: dict
    run: Callable
    check_data: Optional[Callable] = None


_GRID_PARAMS = {"loss": "quadratic", "k": 8, "h": 1, "epsilon": 1.0}
_GLM_PARAMS = {"epsilon": 1.0, "delta": 1e-5, "target_alpha": 1.0,
               "d_cap": 8, "iters": None, "sigma_safety": 4.0}

MECHANISMS = {
    "bernstein": Mechanism((CubeDataset,), _GRID_PARAMS,
                           functools.partial(_trial_grid, onebit=False),
                           _check_grid_data),
    # one-bit messages need epsilon <= ln 2
    "onebit": Mechanism((CubeDataset,), {**_GRID_PARAMS, "epsilon": 0.5},
                        functools.partial(_trial_grid, onebit=True),
                        _check_onebit_data),
    "hinge": Mechanism((BallDataset,), _GLM_PARAMS,
                       functools.partial(_trial_glm, general=False)),
    "general-linear": Mechanism((BallDataset,), _GLM_PARAMS,
                                functools.partial(_trial_glm, general=True)),
    "marginals": Mechanism(
        (BinaryDataset,),
        {"k": 2, "gamma": 0.05, "epsilon": 1.0, "split_budget": False},
        _trial_marginals),
    "smooth-queries": Mechanism(
        (BoxDataset, CubeDataset),
        {"t": 8, "epsilon": 1.0, "center": None, "bandwidths": (1.0, 0.5)},
        _trial_smooth, _check_smooth_data),
    "avg-bench": Mechanism((CubeDataset,), {"epsilon": 1.0},
                           _trial_avg_bench, _check_avg_bench_data),
}


def run_trial(cfg: ExperimentConfig, cell_params: dict, cell_index: int,
              trial: int) -> tuple:
    """Execute one (cell, trial) on its own derived stream; never raises."""
    seed = derived_seed(cfg.seed, TAG_TRIAL, cell_index, trial)
    mech = MECHANISMS[cfg.mechanism]
    params = {**mech.params, **cell_params}
    dataset = params.pop("_dataset")
    started = time.perf_counter()
    base = {c: "" for c in REPORT_COLUMNS}
    base.update(trial=trial, mechanism=cfg.mechanism,
                family=dataset.get("family", ""), seed=seed,
                status="ok", error="")
    try:
        data = generate_dataset(dataset,
                                derived_seed(seed, TAG_TRIAL_DATASET))
        if mech.check_data is not None:
            mech.check_data(data.dim,
                            {key: [params[key]] for key in mech.params})
        transcript = Transcript()
        measured = mech.run(data, params, seed, transcript)
        sent = {"bits_per_player": transcript.bits_per_player(),
                "reals_per_player": transcript.reals_per_player()}
        base.update(measured, n=data.n, p=data.dim, **sent)
        trow = {"trial": trial, "mechanism": cfg.mechanism, "n": data.n,
                "messages": transcript.n_messages, **sent}
    except Exception as exc:  # recorded per-row; the sweep continues
        base.update(status=type(exc).__name__,
                    error=str(exc).replace(",", ";").replace("\n", " "))
        trow = {"trial": trial, "mechanism": cfg.mechanism, "n": "",
                "messages": "", "bits_per_player": "", "reals_per_player": ""}
    elapsed = time.perf_counter() - started
    return cell_index, trial, base, trow, elapsed


def _expand_sweep(cfg: ExperimentConfig):
    """Cartesian product of sweep lists merged over params/dataset."""
    keys = sorted(cfg.sweep)
    cells = []
    for combo in itertools.product(*(cfg.sweep[key] for key in keys)):
        params = dict(cfg.params)
        dataset = dict(cfg.dataset)
        for key, value in zip(keys, combo):
            if key in DATA_KEYS:
                dataset[key] = value
            else:
                params[key] = value
        params["_dataset"] = dataset
        cells.append(params)
    return cells


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@functools.cache
def _git_describe() -> str:
    """The revision of the checkout this package runs from, once a process."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


@dataclass(frozen=True)
class RunResult:
    out_dir: str
    rows: list
    failures: int
    report_path: str
    transcript_path: str
    manifest_path: str


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Execute all sweep cells x trials and write the run artifacts.

    Trials run on independent derived streams keyed by (cell, trial), so
    worker count and scheduling order cannot change any number. Failures
    are recorded per row and the run keeps going.
    """
    cells = _expand_sweep(cfg)
    workers = cfg.workers or 1
    out_dir = cfg.out or os.path.join("runs", cfg.mechanism)
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(cfg, cell, ci, trial)
             for ci, cell in enumerate(cells)
             for trial in range(cfg.trials)]
    results = []
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_trial, *task) for task in tasks]
            results = [f.result() for f in futures]
    else:
        results = [run_trial(*task) for task in tasks]
    results.sort(key=lambda r: (r[0], r[1]))

    rows = [r[2] for r in results]
    trows = [r[3] for r in results]
    report_path = os.path.join(out_dir, "report.csv")
    transcript_path = os.path.join(out_dir, "transcript_summary.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_csv(report_path, REPORT_COLUMNS, rows)
    _write_csv(transcript_path, TRANSCRIPT_COLUMNS, trows)
    manifest = {
        "mechanism": cfg.mechanism, "dataset": cfg.dataset,
        "params": cfg.params, "sweep": cfg.sweep, "trials": cfg.trials,
        "seed": cfg.seed, "out": cfg.out, "workers": cfg.workers,
        "package_version": __version__, "git_describe": _git_describe(),
    }
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "timing.log"), "w", encoding="utf-8") as fh:
        total = 0.0
        for ci, trial, _, _, elapsed in results:
            fh.write(f"cell={ci} trial={trial} seconds={elapsed:.3f}\n")
            total += elapsed
        fh.write(f"total seconds={total:.3f}\n")
    failures = sum(1 for row in rows if row["status"] != "ok")
    return RunResult(out_dir=out_dir, rows=rows, failures=failures,
                     report_path=report_path, transcript_path=transcript_path,
                     manifest_path=manifest_path)
