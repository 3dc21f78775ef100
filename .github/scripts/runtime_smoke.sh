#!/usr/bin/env bash
# Smoke-run every mechanism from an install without extras, and check that
# a bad config value is rejected up front there.
#
# usage: runtime_smoke.sh VENV WORKDIR
#
# VENV is a virtual environment with the package installed and no extras;
# each mechanism's console-script run writes its config and artifacts under
# WORKDIR. Fails if scipy is importable there, if any good run exits
# non-zero, if re-running any good run from its manifest.json does not
# reproduce its report.csv and transcript_summary.csv byte for byte, or if
# a rejected config (one per mechanism, one per synthetic family, an
# unknown top-level key, an empty sweep entry, a GLM delta of 0 and 65-bit
# marginals records) does not exit 2 with a configuration error and no
# traceback.
set -euo pipefail
venv="$1"
mkdir -p "$2"
cd "$2"
"$venv/bin/python" -c 'import importlib.util, sys
sys.exit(importlib.util.find_spec("scipy") is not None)'
"$venv/bin/python" -c 'import numpy, sys; print(sys.version.split()[0], "numpy", numpy.__version__)'
runs=()  # mechanism:label of each good run
run() {  # mechanism, dataset, params[, label, by default the mechanism]
  label="${4:-$1}"
  printf '{"dataset": %s, "params": %s, "trials": 1, "seed": 1}\n' \
    "$2" "$3" > "$label.json"
  "$venv/bin/ldp-erm" "$1" --config "$label.json" --out "runtime-runs/$label"
  runs+=("$1:$label")
}
cube='{"family": "uniform-cube", "n": 2000, "dim": 1}'
ball='{"family": "separable-two-class", "n": 2000, "dim": 2}'
run bernstein "$cube" '{"k": 2}'
run onebit "$cube" '{"k": 2}'
run hinge "$ball" '{"d_cap": 2}'
# noiseless, SIGM's dual points mostly leave the unit ball and are projected
run hinge "$ball" '{"d_cap": 2, "epsilon": "inf"}' hinge-noiseless
run general-linear "$ball" '{"d_cap": 2}'
# 10 solver steps over n = 2000 messages: each step averages 200 of them
run hinge "$ball" '{"d_cap": 2, "iters": 10}' hinge-batched
# the kinked path over the same batches: one permutation pass of rows and
# one call for all their kink locations
run general-linear "$ball" '{"d_cap": 2, "iters": 10}' general-linear-batched
bits='{"family": "bernoulli-bits", "n": 2000, "dim": 4}'
box='{"family": "gaussian-ball-clipped", "n": 2000, "dim": 2}'
run marginals "$bits" '{"k": 1, "gamma": 0.2}'
run smooth-queries "$box" '{"t": 2}'
run avg-bench "$cube" '{}'
# a manifest re-runs its run: the reports and the message accounting the
# mechanism declares come out byte-identical
for entry in "${runs[@]}"; do
  mechanism="${entry%%:*}"
  label="${entry#*:}"
  "$venv/bin/ldp-erm" "$mechanism" \
    --config "runtime-runs/$label/manifest.json" \
    --out "runtime-runs/$label-again"
  for csv in report.csv transcript_summary.csv; do
    cmp "runtime-runs/$label/$csv" "runtime-runs/$label-again/$csv"
  done
done
reject() {  # label, mechanism, dataset, params[, extra top-level entries]
  printf '{"dataset": %s, "params": %s, "trials": 1, "seed": 1%s}\n' \
    "$3" "$4" "${5:+, $5}" > "$1.json"
  status=0
  "$venv/bin/ldp-erm" "$2" --config "$1.json" --out "runtime-runs/$1" \
    2> "$1.err" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "configuration error" "$1.err" \
      || grep -q Traceback "$1.err"; then
    echo "$1: $2 with $4 on $3 exited $status; wanted 2 and a" \
      "configuration error" >&2
    cat "$1.err" >&2
    exit 1
  fi
}
reject bad-bernstein bernstein "$cube" '{"k": 0}'
reject bad-onebit onebit "$cube" '{"epsilon": "inf"}'
reject bad-hinge hinge "$ball" '{"iters": 2.5}'
reject bad-general-linear general-linear "$ball" '{"delta": 1}'
reject bad-marginals marginals "$bits" '{"gamma": 1.5}'
reject bad-smooth-queries smooth-queries "$box" '{"bandwidths": []}'
reject bad-avg-bench avg-bench "$cube" '{"epsilon": 0}'
reject bad-uniform-cube avg-bench \
  '{"family": "uniform-cube", "n": 2000, "dim": 0}' '{}'
reject bad-gaussian-ball-clipped smooth-queries \
  '{"family": "gaussian-ball-clipped", "n": 2000, "sigma": -1}' '{}'
reject bad-separable-two-class hinge \
  '{"family": "separable-two-class", "n": 2000, "margin": 1}' '{}'
reject bad-bernoulli-bits marginals \
  '{"family": "bernoulli-bits", "n": 2000, "q": 2}' '{}'
# a record's bits are packed into one int64, so at most 64 of them
reject wide-marginals marginals \
  '{"family": "bernoulli-bits", "n": 2000, "dim": 65}' '{}'
reject bad-top-level-key avg-bench "$cube" '{}' '"trails": 2'
# an empty sweep entry gives no cells, so nothing else would check the config
reject empty-sweep avg-bench "$cube" '{}' '"sweep": {"epsilon": []}'
reject bad-hinge-delta hinge "$ball" '{"delta": 0}'
