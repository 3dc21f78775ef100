"""Span tracing from outside the program, and the per-layer numbers it gives.

Entering a ``Tracer`` replaces the bindings that callers in ``ldp_erm``
actually look up (a module attribute or a class method) with wrappers that
record a span: name, start, end and parent span. Spans live in preallocated
arrays while the run goes on, so recording one allocates nothing that
``tracemalloc`` would count against the span being measured; they are
written out once at the end. Leaving the ``with`` block puts the original
bindings back.
"""

import contextlib
import functools
import statistics
import time
import tracemalloc

import numpy as np

from workloads import MECHANISMS
from ldp_erm import (baselines, bernstein_erm, glm_erm, harness, polyapprox,
                     primitives, query_release)

MIB = float(1 << 20)


def _size(values, *args, **kwargs):
    return np.size(values)


def _public_draws(public):
    return public.n


# (owner whose attribute the caller looks up, attribute, span name, options)
# ``amount`` counts work from the call's arguments; ``peak`` measures the
# tracemalloc peak above entry (such spans must not nest in one another).
SPANS = [
    (harness, "run_trial", "harness.run_trial", {}),
    (harness, "generate_dataset", "datasets.generate_dataset", {"peak": True}),
    (harness, "grid_loss_excess", "harness.grid_loss_excess", {}),
    (harness, "disjunction_truth", "harness.disjunction_truth", {}),
    (harness, "alg2_run", "bernstein_erm.alg2_run", {"peak": True}),
    (harness, "alg3_run", "bernstein_erm.alg3_run", {}),
    (bernstein_erm, "ldp_avg_1d", "primitives.ldp_avg_1d", {"amount": _size}),
    (primitives.PublicRandomness, "materialize", "primitives.public_laplace",
     {"amount": _public_draws}),
    (bernstein_erm, "onebit_encode_many", "primitives.onebit_encode_many", {}),
    (bernstein_erm, "onebit_decode", "primitives.onebit_decode", {}),
    (bernstein_erm, "minimize_model", "bernstein_erm.minimize_model", {}),
    (bernstein_erm.BernsteinModel, "value", "bernstein_erm.model.value", {}),
    (bernstein_erm.BernsteinModel, "grad", "bernstein_erm.model.grad", {}),
    (bernstein_erm, "iterated_bernstein_eval",
     "polyapprox.iterated_bernstein_eval", {}),
    (bernstein_erm, "iterated_basis_weights",
     "polyapprox.iterated_basis_weights", {}),
    (polyapprox, "iterated_basis_weights",
     "polyapprox.iterated_basis_weights", {}),
    (harness, "glm_erm_run", "glm_erm.glm_erm_run", {"peak": True}),
    (glm_erm, "sigm_run", "sigm.sigm_run", {}),
    (glm_erm, "hinge_gradient_sample", "glm_erm.gradient_sample", {}),
    (glm_erm, "general_linear_gradient_sample", "glm_erm.gradient_sample", {}),
    (glm_erm, "sample_q_many", "polyapprox.sample_q_many", {}),
    (baselines, "glm_baseline", "baselines.glm_baseline", {}),
    (harness, "marginals_release", "query_release.marginals_release",
     {"peak": True}),
    (harness, "marginals_answer", "query_release.marginals_answer", {}),
    (query_release, "build_or_polynomial", "polyapprox.build_or_polynomial",
     {}),
    (query_release, "smooth_release", "query_release.smooth_release",
     {"peak": True}),
    (query_release, "answer_smooth_query", "query_release.answer_smooth_query",
     {}),
    (query_release, "chebyshev_eval", "polyapprox.chebyshev_eval", {}),
]

RUN_PREFIX = "harness.run_experiment."  # the benchmark's own span per call


class Tracer:
    """Records spans while installed (``with tracer:``).

    With ``memory=True`` the spans marked ``peak`` also record their
    tracemalloc peak above entry; tracing allocations slows them down.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.names = []
        self._ids = {}
        self._stack = []
        self._undo = []
        self.count = 0
        self._alloc(1 << 19)  # a traced grid-erm run records ~125k spans

    def _alloc(self, capacity):
        old = self.count
        fields = {"name": (np.int32, 0), "parent": (np.int64, -1),
                  "start": (float, 0.0), "end": (float, 0.0),
                  "amount": (float, 0.0), "peak": (float, np.nan)}
        for field, (dtype, fill) in fields.items():
            arr = np.full(capacity, fill, dtype=dtype)
            if old:
                arr[:old] = getattr(self, field)[:old]
            setattr(self, field, arr)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = self.count
        if i == len(self.start):
            self._alloc(2 * i)
        self.count = i + 1
        self.name[i] = nid
        self.parent[i] = self._stack[-1] if self._stack else -1
        self._stack.append(i)
        self.start[i] = time.perf_counter()
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, original, nid, amount=None, peak=False):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            measure = (peak and self.memory
                       and not tracemalloc.is_tracing())
            if measure:
                tracemalloc.start()
            i = self._open(nid)
            if amount is not None:
                self.amount[i] = amount(*args, **kwargs)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(i)
                if measure:
                    self.peak[i] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
        return wrapper

    def __enter__(self):
        for owner, attr, name, opts in SPANS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, self._id(name), **opts))
            self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start,end,peak_bytes,amount\n")
            for i in range(self.count):
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                         f"{self.start[i]!r},{self.end[i]!r},"
                         f"{self.peak[i]!r},{self.amount[i]!r}\n")


def layer_metrics(tracer: Tracer, memory: Tracer, trials: int) -> dict:
    """Per-layer numbers from the recorded spans, per trial of the mix.

    ``.s`` is the time inside a call including children, ``self_s`` the
    same minus the child spans, ``.calls`` the number of calls; all come
    from ``tracer``, over ``trials`` trials. ``.peak_mb`` is the largest
    tracemalloc peak above entry over the calls that ``memory`` recorded.
    """
    n = tracer.count
    name, parent = tracer.name[:n], tracer.parent[:n]
    dur = tracer.end[:n] - tracer.start[:n]
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested],
                               minlength=n)
    k = len(tracer.names)
    total = np.bincount(name, weights=dur, minlength=k)
    selft = np.bincount(name, weights=self_t, minlength=k)
    calls = np.bincount(name, minlength=k)
    amount = np.bincount(name, weights=tracer.amount[:n], minlength=k)
    ids = tracer._ids

    def s(span):
        return float(total[ids[span]]) / trials

    def self_s(*spans):
        return sum(float(selft[ids[x]]) for x in spans) / trials

    def per_call(span):
        return float(calls[ids[span]]) / trials

    def peak_mb(span):
        peaks = memory.peak[:memory.count][
            memory.name[:memory.count] == memory._ids[span]]
        peaks = peaks[~np.isnan(peaks)]
        return float(peaks.max()) / MIB if peaks.size else 0.0

    out = {}
    run_ids = {ids[x]: x[len(RUN_PREFIX):] for x in tracer.names
               if x.startswith(RUN_PREFIX)}
    trial_rows = np.flatnonzero(name == ids["harness.run_trial"])
    per_mech = {mech: [] for mech in MECHANISMS}
    for i in trial_rows:
        per_mech[run_ids[int(name[parent[i]])]].append(float(dur[i]))
    for mech, times in per_mech.items():
        out[f"harness.run_trial_s.{mech}"] = (
            statistics.median(times) if times else 0.0)
    out["harness.self_s"] = self_s(*(tracer.names[i] for i in run_ids))
    trial_total = float(total[ids["harness.run_trial"]])
    out["trace.coverage_frac"] = (
        1.0 - float(selft[ids["harness.run_trial"]]) / trial_total)

    for span in ("harness.grid_loss_excess", "harness.disjunction_truth",
                 "datasets.generate_dataset", "primitives.ldp_avg_1d",
                 "primitives.onebit_encode_many", "primitives.onebit_decode",
                 "polyapprox.iterated_bernstein_eval",
                 "polyapprox.iterated_basis_weights",
                 "polyapprox.sample_q_many", "polyapprox.chebyshev_eval",
                 "polyapprox.build_or_polynomial", "bernstein_erm.alg2_run",
                 "bernstein_erm.alg3_run", "bernstein_erm.minimize_model",
                 "sigm.sigm_run", "glm_erm.glm_erm_run",
                 "glm_erm.gradient_sample", "baselines.glm_baseline",
                 "query_release.marginals_release",
                 "query_release.smooth_release",
                 "query_release.marginals_answer",
                 "query_release.answer_smooth_query"):
        out[f"{span}.s"] = s(span)
    for span in ("primitives.ldp_avg_1d", "primitives.onebit_decode",
                 "polyapprox.iterated_bernstein_eval",
                 "polyapprox.iterated_basis_weights",
                 "polyapprox.sample_q_many", "glm_erm.gradient_sample"):
        out[f"{span}.calls"] = per_call(span)
    for span in ("datasets.generate_dataset", "bernstein_erm.alg2_run",
                 "glm_erm.glm_erm_run", "query_release.marginals_release",
                 "query_release.smooth_release"):
        out[f"{span}.peak_mb"] = peak_mb(span)

    out["primitives.laplace_draws"] = float(
        amount[ids["primitives.ldp_avg_1d"]]
        + amount[ids["primitives.public_laplace"]]) / trials
    out["bernstein_erm.self_s"] = self_s("bernstein_erm.alg2_run",
                                         "bernstein_erm.alg3_run")
    out["bernstein_erm.minimize_model.self_s"] = self_s(
        "bernstein_erm.minimize_model")
    out["bernstein_erm.model_evals"] = (per_call("bernstein_erm.model.value")
                                        + per_call("bernstein_erm.model.grad"))
    # one oracle call, so one gradient sample, per SIGM step
    samples = parent[name == ids["glm_erm.gradient_sample"]]
    steps = int(np.count_nonzero(name[samples] == ids["sigm.sigm_run"]))
    out["sigm.self_s"] = self_s("sigm.sigm_run")
    out["sigm.steps"] = steps / trials
    out["sigm.us_per_step"] = (
        1e6 * float(total[ids["sigm.sigm_run"]]) / steps if steps else 0.0)
    out["glm_erm.self_s"] = self_s("glm_erm.glm_erm_run")
    grad_calls = int(calls[ids["glm_erm.gradient_sample"]])
    out["glm_erm.gradient_sample.us_per_call"] = (
        1e6 * float(total[ids["glm_erm.gradient_sample"]]) / grad_calls
        if grad_calls else 0.0)
    return out
