#!/usr/bin/env bash
# Smoke-run every mechanism from an install without extras.
#
# usage: runtime_smoke.sh VENV WORKDIR
#
# VENV is a virtual environment with the package installed and no extras;
# each mechanism's console-script run writes its config and artifacts under
# WORKDIR. Fails if scipy is importable there or if any run exits non-zero.
set -euo pipefail
venv="$1"
mkdir -p "$2"
cd "$2"
"$venv/bin/python" -c 'import importlib.util, sys
sys.exit(importlib.util.find_spec("scipy") is not None)'
"$venv/bin/python" -c 'import numpy, sys; print(sys.version.split()[0], "numpy", numpy.__version__)'
run() {  # mechanism, dataset, params
  printf '{"dataset": %s, "params": %s, "trials": 1, "seed": 1}\n' \
    "$2" "$3" > "$1.json"
  "$venv/bin/ldp-erm" "$1" --config "$1.json" --out "runtime-runs/$1"
}
cube='{"family": "uniform-cube", "n": 2000, "dim": 1}'
ball='{"family": "separable-two-class", "n": 2000, "dim": 2}'
run bernstein "$cube" '{"k": 2}'
run onebit "$cube" '{"k": 2}'
run hinge "$ball" '{"d_cap": 2}'
run general-linear "$ball" '{"d_cap": 2}'
run marginals '{"family": "bernoulli-bits", "n": 2000, "dim": 4}' \
  '{"k": 1, "gamma": 0.2}'
run smooth-queries \
  '{"family": "gaussian-ball-clipped", "n": 2000, "dim": 2}' '{"t": 2}'
run avg-bench "$cube" '{}'
