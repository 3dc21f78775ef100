"""The traced benchmark wraps bindings that must exist in ldp_erm."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_binding_exists(monkeypatch):
    # the tracer looks each one up in owner.__dict__, so a moved or deleted
    # binding breaks a traced run with a KeyError
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import spans
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.SPANS
               if attr not in vars(owner)]
    assert spans.SPANS
    assert not missing
