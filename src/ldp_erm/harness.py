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
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from . import __version__
from .bernstein_erm import (GridLoss, alg2_run, alg3_run, check_cells_filled,
                            check_grid_size)
from .datasets import (DATA_KEYS, FAMILIES, KINDS, MAX_BITS, BallDataset,
                       BinaryDataset, BoxDataset, CubeDataset, Param,
                       check_spec, count, flag, generate_dataset, number,
                       numbers, optional, spec_value)
from .errors import ConfigurationError, EstimationError
from .glm_erm import (glm_erm_run, glm_oracle, hinge_flavor,
                      hinge_via_general_flavor)
from .polyapprox import BernsteinOperatorSpec, build_or_polynomial
from .primitives import (CAP, PrivacyBudget, check_onebit_epsilon,
                         check_values, ldp_avg_1d)
from .query_release import (check_basis_cap, check_expansion_cap,
                            disjunction_truth, marginals_answer,
                            marginals_release, smooth_release_and_answer)
from .rng import (TAG_TRIAL, TAG_TRIAL_DATASET, TAG_TRIAL_MECHANISM,
                  derived_rng, derived_seed)

REPORT_COLUMNS = [
    "trial", "mechanism", "family", "n", "p", "k", "h", "d", "t", "beta",
    "gamma", "epsilon", "delta", "mode", "flavor", "err_empirical",
    "baseline_err", "max_query_error", "bits_per_player",
    "reals_per_player", "seed", "status", "error", "d_theory", "sigma",
    "steps",
]

TRANSCRIPT_COLUMNS = ["trial", "mechanism", "n", "messages",
                      "bits_per_player", "reals_per_player"]

BITS_PER_REAL = 64  # accounting convention for one real-valued entry

# the config's own counts, parsed as a mechanism's counts are
_COUNTS = {
    "trials": Param(20, "an integer >= 0", lambda value: count(value, 0)),
    "seed": Param(0, "an integer >= 0", lambda value: count(value, 0)),
    "workers": Param(None, "an integer >= 1", optional(count)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    mechanism: str
    dataset: dict
    params: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    trials: int = _COUNTS["trials"].default
    seed: int = _COUNTS["seed"].default
    out: Optional[str] = None
    workers: Optional[int] = _COUNTS["workers"].default

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
        for name, param in _COUNTS.items():
            # stored parsed, so trials=2.0 runs as 2 and workers is an int
            object.__setattr__(self, name,
                               param.parsed(name, getattr(self, name)))
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigurationError(f"out must be a path, got {self.out!r}")
        for key, values in self.sweep.items():
            # an empty entry gives no cells, so nothing below would check
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"sweep entry {key!r} must be a non-empty list")
        mech = MECHANISMS[self.mechanism]
        for spec, params in _cells(self):
            record = check_spec(spec)
            if record not in mech.records:
                raise ConfigurationError(
                    f"mechanism {self.mechanism!r} consumes "
                    f"{_accepted(mech.records)}; this dataset gives "
                    f"{record.__name__}")
            # a file's dim is known only once it is read, in run_trial
            if spec["family"] != "file":
                try:
                    mech.message(params, spec_value(spec, "n"),
                                 spec_value(spec, "dim"))
                except EstimationError as exc:
                    # the config fixes it, so every trial would fail alike
                    raise ConfigurationError(str(exc)) from None


def _cells(cfg: ExperimentConfig) -> list:
    """Every sweep cell as (dataset spec, parsed params), in the order of
    the Cartesian product over the sorted sweep keys.

    Each param value, given or default, is parsed once by its declaration;
    sweep keys in ``DATA_KEYS`` set the spec, and the others the params.
    """
    declared = MECHANISMS[cfg.mechanism].params

    def parsed(key, values) -> list:
        if key not in declared:
            raise ConfigurationError(
                f"mechanism {cfg.mechanism!r} has no param {key!r}; "
                f"accepted: {', '.join(sorted(declared))}")
        return [declared[key].parsed(f"param {key!r}", value)
                for value in values]

    given = {key: param.default for key, param in declared.items()}
    given.update(cfg.params)
    params = {key: parsed(key, [value])[0] for key, value in given.items()}
    swept = {key: values if key in DATA_KEYS else parsed(key, values)
             for key, values in cfg.sweep.items()}
    keys = sorted(swept)
    cells = []
    for combo in itertools.product(*(swept[key] for key in keys)):
        spec, cell = dict(cfg.dataset), dict(params)
        for key, value in zip(keys, combo):
            (spec if key in DATA_KEYS else cell)[key] = value
        cells.append((spec, cell))
    return cells


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
    known = {f.name for f in fields(ExperimentConfig)}
    # a manifest also records the package that wrote it
    unknown = sorted(set(raw) - known - {"package_version", "git_describe"})
    if unknown:
        raise ConfigurationError(
            f"config {path} has unknown top-level key(s) "
            f"{', '.join(map(repr, unknown))}; accepted: "
            f"{', '.join(sorted(known))}, and a manifest's package_version "
            f"and git_describe")
    given = {k: v for k, v in raw.items() if k in known}
    if mechanism is not None:
        given["mechanism"] = mechanism
    if "mechanism" not in given:
        raise ConfigurationError("config does not name a mechanism")
    if "dataset" not in given:
        raise ConfigurationError("config does not define a dataset")
    return ExperimentConfig(**given)


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
        elif head in _COUNTS:
            mut[head] = value  # parsed by ExperimentConfig
        elif head == "out":
            # a number names a path too; null is the default, and a list,
            # an object or a bool fails ExperimentConfig's path check
            number = (isinstance(value, (int, float))
                      and not isinstance(value, bool))
            mut[head] = str(value) if number else value
        elif head == "mechanism":
            raise ConfigurationError(
                "the mechanism is chosen on the command line, not by --set")
        else:
            raise ConfigurationError(f"cannot override {key!r}")
    return replace(cfg, **mut)


# --- grid-mechanism losses -----------------------------------------------------

GRID_LOSSES = ("quadratic", "quartic", "flat")


def _power_term(power: int) -> GridLoss:
    """The loss term (x - theta) ** power, for a power of two.

    The power is taken by squaring in place, ``power.bit_length() - 1``
    times: for negative bases numpy's general power is an order of
    magnitude slower, and ``** 2`` is already a square, so the quadratic
    term keeps its bits.
    """
    squarings = power.bit_length() - 1

    def term(x, theta):
        d = x - theta
        for _ in range(squarings):
            d *= d
        return d
    return term


def _flat_term(x, theta):
    return np.full(np.broadcast_shapes(np.shape(x), np.shape(theta)), 0.5)


def make_grid_loss(name: str) -> GridLoss:
    """The named grid loss as its per-coordinate term; a record's loss is
    the mean of the terms over its coordinates (``row_loss``)."""
    if name == "quadratic":
        return _power_term(2)
    if name == "quartic":
        return _power_term(4)
    if name == "flat":
        return _flat_term
    raise ConfigurationError(
        f"unknown grid loss {name!r}; known: {', '.join(GRID_LOSSES)}")


def _column_moments(col: np.ndarray, top: int) -> list:
    """The means of col, col^2, ..., col^top, for top 2 or 4."""
    sq = col * col
    if top == 2:
        return [col.mean(), sq.mean()]
    return [col.mean(), sq.mean(), (sq * col).mean(), (sq * sq).mean()]


def _coordinate_objectives(name: str, rows: np.ndarray) -> tuple:
    """Per-coordinate polynomial objectives from data moments, and each
    coordinate's minimiser on [0, 1].

    Both named losses are separable across coordinates and polynomial in
    theta, so the empirical objective is exact in the coordinate-wise
    moments and costs O(1) per evaluation afterwards. The moments are
    taken one column at a time, so no n x p power is formed. The quadratic
    E(theta - x)^2 is least at clip(m1, 0, 1). The quartic E(theta - x)^4
    has the increasing derivative 4 E(theta - x)^3, which in t = theta - m1
    is the depressed cubic t^3 + 3 var t - mu3 (var and mu3 the central
    moments). Its one real root is Cardano's, taken in the form without
    cancellation, and the minimiser is m1 + t clamped to [0, 1].
    """
    top = 2 if name == "quadratic" else 4
    m = np.array([_column_moments(rows[:, j], top)
                  for j in range(rows.shape[1])]).T
    if name == "quadratic":
        m1, m2 = m

        def gj(theta_j, j):
            return theta_j ** 2 - 2.0 * theta_j * m1[j] + m2[j]
        return gj, np.clip(m1, 0.0, 1.0)
    m1, m2, m3, m4 = m

    def gj(theta_j, j):
        return (theta_j ** 4 - 4.0 * theta_j ** 3 * m1[j]
                + 6.0 * theta_j ** 2 * m2[j] - 4.0 * theta_j * m3[j] + m4[j])
    slope = 3.0 * np.maximum(m2 - m1 * m1, 0.0)  # t^3 + slope t + q = 0
    q = -(m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3)
    half_disc = np.sqrt(q * q / 4.0 + slope ** 3 / 27.0)
    u = np.cbrt(-q / 2.0 - np.copysign(half_disc, q))
    t = u - np.divide(slope, 3.0 * u, out=np.zeros_like(u), where=u != 0.0)
    return gj, np.clip(m1 + t, 0.0, 1.0)


def grid_loss_excess(name: str, data: CubeDataset, w: np.ndarray) -> float:
    """Excess empirical risk of w against the separable exact optimum."""
    if name == "flat":
        return 0.0
    gj, best_theta = _coordinate_objectives(name, data.rows)
    value = 0.0
    best = 0.0
    for j in range(data.dim):
        value += float(gj(float(w[j]), j))
        best += float(gj(float(best_theta[j]), j))
    return (value - best) / data.dim


# --- per-trial executors --------------------------------------------------------
#
# An executor runs one trial of its mechanism on the trial's dataset, which
# holds records of a type its table entry consumes. It gets every param the
# entry declares, parsed, and the trial seed, and returns the report fields
# it measured; ``run_trial`` fills in the sizes, and the message accounting
# from the entry's declared message. Library calls go through this module's
# globals at call time, so that they can be wrapped from outside (span
# tracing).


def _trial_grid(data: CubeDataset, params: dict, seed: int,
                onebit: bool) -> dict:
    loss = make_grid_loss(params["loss"])
    k, h, epsilon = params["k"], params["h"], params["epsilon"]
    spec = BernsteinOperatorSpec(k=k, h=h, p=data.dim)
    budget = PrivacyBudget(epsilon=epsilon)
    if onebit:
        release = alg3_run(data, loss, spec, budget,
                           derived_seed(seed, TAG_TRIAL_MECHANISM))
    else:
        release = alg2_run(data, loss, spec, budget,
                           derived_rng(seed, TAG_TRIAL_MECHANISM))
    err = grid_loss_excess(params["loss"], data, release.w_priv)
    return {"k": k, "h": h, "epsilon": epsilon,
            "mode": "onebit" if onebit else "laplace", "err_empirical": err}


def _trial_glm(data: BallDataset, params: dict, seed: int,
               flavor: Callable) -> dict:
    epsilon, delta = params["epsilon"], params["delta"]
    report = glm_erm_run(
        data, flavor(), target_alpha=params["target_alpha"],
        budget=PrivacyBudget(epsilon=epsilon, delta=delta),
        rng=derived_rng(seed, TAG_TRIAL_MECHANISM),
        d_cap=params["d_cap"])
    return {"d": report.d, "beta": report.beta, "epsilon": epsilon,
            "delta": delta, "flavor": report.flavor,
            "err_empirical": report.err_empirical,
            "baseline_err": report.baseline_err, "d_theory": report.d_theory,
            "sigma": report.sigma, "steps": report.steps}


def _all_disjunction_queries(p: int, k: int):
    for size in range(0, k + 1):
        for support in itertools.combinations(range(p), size):
            y = np.zeros(p, dtype=np.int64)
            y[list(support)] = 1
            yield y


def _trial_marginals(data: BinaryDataset, params: dict, seed: int) -> dict:
    k, gamma, epsilon = params["k"], params["gamma"], params["epsilon"]
    table = marginals_release(
        data, k, gamma, PrivacyBudget(epsilon=epsilon),
        derived_rng(seed, TAG_TRIAL_MECHANISM),
        split_budget=params["split_budget"])
    worst = 0.0
    for y in _all_disjunction_queries(data.dim, k):
        ans = marginals_answer(table, y)
        worst = max(worst, abs(ans.value - disjunction_truth(data, y)))
    return {"k": k, "gamma": gamma, "epsilon": epsilon, "max_query_error": worst}


def _gaussian(sq_dist, bandwidth: float):
    """The Gaussian kernel at squared distances ``sq_dist``."""
    return np.exp(-sq_dist / (2.0 * bandwidth ** 2))


def _sq_dist(pts, center: np.ndarray) -> np.ndarray:
    diff = np.asarray(pts, dtype=float) - center
    return np.sum(diff * diff, axis=-1)


def _gaussian_kernel(center: np.ndarray, bandwidth: float):
    def f(pts):
        return _gaussian(_sq_dist(pts, center), bandwidth)
    return f


def _trial_smooth(data, params: dict, seed: int) -> dict:
    data = BoxDataset(data.rows)  # cube entries are inside the box
    t, epsilon, center = params["t"], params["epsilon"], params["center"]
    if center is None:  # the default depends on the data's dimension
        center = [0.25] * data.dim
    center = np.asarray(center)
    bandwidths = params["bandwidths"]
    queries = [_gaussian_kernel(center, b) for b in bandwidths]
    _, answers = smooth_release_and_answer(
        data, t, PrivacyBudget(epsilon=epsilon), queries,
        derived_rng(seed, TAG_TRIAL_MECHANISM))
    # every kernel shares the centre: one pass of squared distances
    sq_dist = _sq_dist(data.rows, center)
    worst = 0.0
    for b, ans in zip(bandwidths, answers):
        truth = float(np.mean(_gaussian(sq_dist, b)))
        worst = max(worst, abs(ans.value - truth))
    return {"t": t, "epsilon": epsilon, "max_query_error": worst}


def _trial_avg_bench(data: CubeDataset, params: dict, seed: int) -> dict:
    values = data.rows[:, 0]
    check_values(values, 1.0)
    epsilon = params["epsilon"]
    a = ldp_avg_1d(values.sum(), data.n, 1.0, PrivacyBudget(epsilon=epsilon),
                   derived_rng(seed, TAG_TRIAL_MECHANISM))
    return {"epsilon": epsilon, "err_empirical": abs(a - float(values.mean()))}


# --- the messages -------------------------------------------------------------------
#
# What one player sends, as (reals, protocol bits), given the parsed params
# and the data's n and dim. Each size comes from the rule the library
# enforces, and a message raises ``ConfigurationError`` on data its
# mechanism cannot run on: that makes it the one data check.


def _grid_message(params: dict, n: int, dim: int) -> tuple:
    return check_grid_size(params["k"], dim), 0  # one real per grid point


def _onebit_message(params: dict, n: int, dim: int) -> tuple:
    check_cells_filled(n, params["k"], dim)  # the bit reports on one cell
    return 0, 1


def _glm_message(params: dict, n: int, dim: int, flavor: Callable) -> tuple:
    # a head and d(d+1) body replicas of (x, y), at a degree glm_oracle takes
    d = glm_oracle(flavor(), params["target_alpha"], PrivacyBudget(
        params["epsilon"], params["delta"]), dim, params["d_cap"])[0].d
    return (d * (d + 1) + 1) * (dim + 1), 0


def _marginals_message(params: dict, n: int, dim: int) -> tuple:
    # the release packs each record's bits into one int64 pattern
    if dim > MAX_BITS:
        raise ConfigurationError(
            f"marginals take records of at most {MAX_BITS} bits; the dataset "
            f"has dim {dim}")
    if params["k"] > dim:
        raise ConfigurationError(
            f"param 'k' = {params['k']} is above the dataset's dim {dim}: a "
            f"marginal query selects k of the record's attributes")
    degree = build_or_polynomial(params["k"], params["gamma"]).degree
    return check_expansion_cap(dim, degree), 0


def _smooth_message(params: dict, n: int, dim: int) -> tuple:
    size = check_basis_cap(params["t"], dim)
    # a kernel centre is a point of the data space, or None for the default
    center = params["center"]
    if center is not None and len(center) != dim:
        raise ConfigurationError(
            f"param 'center' has {len(center)} coordinates; the data "
            f"has dim {dim}")
    return size, 0


def _avg_bench_message(params: dict, n: int, dim: int) -> tuple:
    if dim != 1:
        raise ConfigurationError(
            f"avg-bench needs 1-d cube data; the dataset has dim {dim}")
    return 1, 0


# --- the mechanism table ----------------------------------------------------------


@dataclass(frozen=True)
class Mechanism:
    """Everything the harness knows about one mechanism.

    ``records`` are the record types it consumes (the dataset families and
    file kinds it accepts are those that give one), ``params`` maps each
    param a config may set to its ``Param`` declaration, and ``run`` is its
    executor. ``message(params, n, dim)`` is what one player sends, as
    (reals, protocol bits): each real counts ``BITS_PER_REAL`` bits, and
    the protocol bits are those that are not reals (a one-bit report).
    Every player sends one message, so it is the trial's message
    accounting. It also raises on data the mechanism cannot run on, so it
    is the one data check: up front on every synthetic spec of every sweep
    cell, and in ``run_trial`` on each trial's data, which is the one check
    of file data.
    """

    records: tuple
    params: dict
    run: Callable
    message: Callable


def _grid_loss(name) -> str:
    if name not in GRID_LOSSES:
        raise ValueError(name)
    return name


_EPSILON = Param(1.0, "a number > 0", number(lambda v: v > 0))
_GRID_PARAMS = {
    "loss": Param("quadratic", f"one of {', '.join(map(repr, GRID_LOSSES))}",
                  _grid_loss),
    "k": Param(8, "an integer >= 1", count),
    "h": Param(1, "an integer >= 1", count),
    "epsilon": _EPSILON,
}
_GLM_PARAMS = {
    "epsilon": _EPSILON,
    # the Gaussian replicas need delta > 0
    "delta": Param(1e-5, "a number in (0, 1)", number(lambda v: 0 < v < 1)),
    "target_alpha": Param(1.0, "a number in (0, 1]",
                          number(lambda v: 0 < v <= 1)),
    "d_cap": Param(8, "an integer >= 1", count),
}

MECHANISMS = {
    "bernstein": Mechanism((CubeDataset,), _GRID_PARAMS,
                           functools.partial(_trial_grid, onebit=False),
                           _grid_message),
    # one-bit messages need epsilon <= ln 2, a rule the encoder keeps
    "onebit": Mechanism(
        (CubeDataset,),
        {**_GRID_PARAMS, "epsilon": Param(
            0.5, "a number in (0, ln 2]",
            lambda v: check_onebit_epsilon(_EPSILON.parse(v)))},
        functools.partial(_trial_grid, onebit=True),
        _onebit_message),
    "hinge": Mechanism((BallDataset,), _GLM_PARAMS,
                       functools.partial(_trial_glm, flavor=hinge_flavor),
                       functools.partial(_glm_message, flavor=hinge_flavor)),
    "general-linear": Mechanism(
        (BallDataset,), _GLM_PARAMS,
        functools.partial(_trial_glm, flavor=hinge_via_general_flavor),
        functools.partial(_glm_message, flavor=hinge_via_general_flavor)),
    "marginals": Mechanism(
        (BinaryDataset,),
        {"k": Param(2, "an integer >= 1", count),
         "gamma": Param(0.05, "a number in (0, 1)",
                        number(lambda v: 0 < v < 1)),
         "epsilon": _EPSILON,
         "split_budget": Param(False, "true or false", flag)},
        _trial_marginals, _marginals_message),
    "smooth-queries": Mechanism(
        (BoxDataset, CubeDataset),
        {"t": Param(8, f"an integer >= 1 with t^dim and t^2 at most {CAP} "
                       f"(so t <= {math.isqrt(CAP)} at dim 1)", count),
         "epsilon": _EPSILON,
         "center": Param(None, "null or a non-empty list of finite numbers",
                         optional(numbers(math.isfinite))),
         "bandwidths": Param((1.0, 0.5), "a non-empty list of numbers > 0",
                             numbers(lambda v: v > 0))},
        _trial_smooth, _smooth_message),
    "avg-bench": Mechanism((CubeDataset,), {"epsilon": _EPSILON},
                           _trial_avg_bench, _avg_bench_message),
}


def run_trial(cfg: ExperimentConfig, cell: tuple, cell_index: int,
              trial: int) -> tuple:
    """Execute one (cell, trial) on its own derived stream; never raises.

    ``cell`` is one ``_cells`` entry: a dataset spec and the parsed params.
    """
    seed = derived_seed(cfg.seed, TAG_TRIAL, cell_index, trial)
    mech = MECHANISMS[cfg.mechanism]
    dataset, params = cell
    started = time.perf_counter()
    base = {c: "" for c in REPORT_COLUMNS}
    base.update(trial=trial, mechanism=cfg.mechanism,
                family=dataset.get("family", ""), seed=seed,
                status="ok", error="")
    try:
        data = generate_dataset(dataset,
                                derived_seed(seed, TAG_TRIAL_DATASET))
        reals, protocol_bits = mech.message(params, data.n, data.dim)
        measured = mech.run(data, params, seed)
        sent = {"bits_per_player": float(protocol_bits
                                         + BITS_PER_REAL * reals),
                "reals_per_player": float(reals)}
        base.update(measured, n=data.n, p=data.dim, **sent)
        trow = {"trial": trial, "mechanism": cfg.mechanism, "n": data.n,
                "messages": data.n, **sent}
    except Exception as exc:  # recorded per-row; the sweep continues
        base.update(status=type(exc).__name__,
                    error=str(exc).replace(",", ";").replace("\n", " "))
        trow = {"trial": trial, "mechanism": cfg.mechanism, "n": "",
                "messages": "", "bits_per_player": "", "reals_per_player": ""}
    elapsed = time.perf_counter() - started
    return cell_index, trial, base, trow, elapsed


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
    cells = _cells(cfg)
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
    manifest = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    manifest.update(package_version=__version__, git_describe=_git_describe())
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
