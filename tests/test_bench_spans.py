"""The traced benchmark wraps bindings that must exist in ldp_erm, and that
the mechanisms must still call."""

import sys
from pathlib import Path

import numpy as np
import pytest

from ldp_erm import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# spans no mechanism reaches: the minimiser evaluates the Bernstein model
# through its batched values/grads, and the GLM server replays gradient
# samples and kink locations in batches (the hinge and general-linear
# gradient-sample bindings share one span name)
READ_ZERO = {"bernstein_erm.model.value", "bernstein_erm.model.grad",
             "glm_erm.gradient_sample", "polyapprox.sample_q_many"}

CUBE = {"family": "uniform-cube", "n": 2000, "dim": 1}
BALL = {"family": "separable-two-class", "n": 200, "dim": 2}
TINY = {
    "bernstein": (CUBE, {"k": 2}),
    "onebit": (CUBE, {"k": 2}),
    "hinge": (BALL, {"d_cap": 2}),
    "general-linear": (BALL, {"d_cap": 2}),
    "marginals": ({"family": "bernoulli-bits", "n": 200, "dim": 4},
                  {"k": 1, "gamma": 0.2}),
    "smooth-queries": ({"family": "gaussian-ball-clipped", "n": 200,
                        "dim": 2}, {"t": 2}),
    "avg-bench": (CUBE, {}),
}


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import spans
    return spans


def test_every_traced_binding_exists(spans):
    # the tracer looks each one up in owner.__dict__, so a moved or deleted
    # binding breaks a traced run with a KeyError
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.SPANS
               if attr not in vars(owner)]
    assert spans.SPANS
    assert not missing


@pytest.mark.filterwarnings("ignore::ldp_erm.errors.SampleSizeWarning")
def test_every_traced_binding_records_calls(spans, tmp_path):
    # a call site moved off a traced binding would silently zero the
    # per-layer numbers read from it
    assert sorted(TINY) == sorted(harness.MECHANISMS)
    tracer = spans.Tracer()
    with tracer:
        for mechanism, (dataset, params) in TINY.items():
            result = harness.run_experiment(harness.ExperimentConfig(
                mechanism, dataset, params, trials=1, seed=4, workers=1,
                out=str(tmp_path / mechanism)))
            assert [row["status"] for row in result.rows] == ["ok"]
    calls = np.bincount(tracer.name[:tracer.count],
                        minlength=len(tracer.names))
    recorded = {name for name, count in zip(tracer.names, calls) if count}
    silent = {name for _, _, name, _ in spans.SPANS} - recorded
    assert silent == READ_ZERO
