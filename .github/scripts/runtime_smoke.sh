#!/usr/bin/env bash
# Smoke-run every mechanism from an install without extras, and check that
# a bad config value is rejected up front there.
#
# usage: runtime_smoke.sh VENV WORKDIR
#
# VENV is a virtual environment with the package installed and no extras;
# each mechanism's console-script run writes its config and artifacts under
# WORKDIR. Fails if scipy is importable there, if any good run exits
# non-zero (the grid mechanisms run at dim 1 and at dim 2, where the
# Laplace run combines its per-axis loss sums into the grid's totals; the
# one-bit run also at dim 2 with n = (k+1)^p, one player per cell, and at
# h = 3, whose surrogate folds a two-step operator expansion into its
# coefficients; a marginals run also with split_budget, each coordinate at
# its share of the budget; a smooth-queries run at dim 17, t = 2, the
# largest basis the cap admits at t = 2, runs under a 1.5 GB address-space
# limit), if a batched GLM run (epsilon = 50 on n = 2000) does not take
# more than one solver step and fewer than n, if the batched general-linear
# run (the hinge through its kink measure) does not take the hinge's steps
# at its noise scale within 1e-9 relative, if re-running any good run (the
# dim-17 one included) from its manifest.json does not reproduce its
# report.csv and transcript_summary.csv byte for byte, or if a rejected
# config (one per mechanism, one per synthetic family, an unknown top-level
# key, an empty sweep entry, a GLM delta of 0, a GLM degree whose replica
# products overflow, 65-bit marginals records and a smooth-query t whose
# t x t coefficient transform is above the cap) does not exit 2 with a
# configuration error and no traceback.
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
cube2='{"family": "uniform-cube", "n": 2000, "dim": 2}'
run bernstein "$cube2" '{"k": 2, "h": 2}' bernstein-dim2
run onebit "$cube2" '{"k": 2, "h": 2}' onebit-dim2
run onebit '{"family": "uniform-cube", "n": 9, "dim": 2}' '{"k": 2, "h": 2}' \
  onebit-one-per-cell
run onebit "$cube2" '{"k": 3, "h": 3}' onebit-h3
run hinge "$ball" '{"d_cap": 2}'
# noiseless, SIGM's dual points mostly leave the unit ball and are projected
run hinge "$ball" '{"d_cap": 2, "epsilon": "inf"}' hinge-noiseless
run general-linear "$ball" '{"d_cap": 2}'
# at epsilon = 50 the noise scale leaves 15 solver steps over n = 2000
# messages, each averaging 133 of them
run hinge "$ball" '{"d_cap": 2, "epsilon": 50}' hinge-batched
# the hinge's kink measure gives the hinge's coefficients: the same steps
run general-linear "$ball" '{"d_cap": 2, "epsilon": 50}' \
  general-linear-batched
for label in hinge-batched general-linear-batched; do
  "$venv/bin/python" - "runtime-runs/$label/report.csv" <<'EOF'
import csv, sys
(row,) = csv.DictReader(open(sys.argv[1]))
if not 1 < int(row["steps"]) < 2000:
    sys.exit(f"{sys.argv[1]}: {row['steps']} solver steps, wanted 2 to 1999")
EOF
done
"$venv/bin/python" - runtime-runs/hinge-batched/report.csv \
  runtime-runs/general-linear-batched/report.csv <<'EOF'
import csv, math, sys
hinge, general = (next(csv.DictReader(open(path))) for path in sys.argv[1:])
if general["steps"] != hinge["steps"] or not math.isclose(
        float(general["sigma"]), float(hinge["sigma"]), rel_tol=1e-9):
    sys.exit(f"general-linear took {general['steps']} steps at sigma "
             f"{general['sigma']}, the hinge {hinge['steps']} at "
             f"{hinge['sigma']}")
EOF
bits='{"family": "bernoulli-bits", "n": 2000, "dim": 4}'
box='{"family": "gaussian-ball-clipped", "n": 2000, "dim": 2}'
run marginals "$bits" '{"k": 1, "gamma": 0.2}'
run marginals "$bits" '{"k": 1, "gamma": 0.2, "split_budget": true}' \
  marginals-split
run smooth-queries "$box" '{"t": 2}'
run avg-bench "$cube" '{}'
# 2^17 basis entries; each block of the release holds a bounded number of
# them, where 2000-row blocks would need 1000 MiB for one product
wide='{"family": "gaussian-ball-clipped", "n": 2000, "dim": 17}'
(ulimit -v 1500000; run smooth-queries "$wide" '{"t": 2}' smooth-queries-wide)
# the subshell's own runs+= is lost with it
runs+=("smooth-queries:smooth-queries-wide")
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
reject bad-hinge hinge "$ball" '{"d_cap": 2.5}'
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
# at d = 24 and the default epsilon = 1 the noise scale overflows float64
reject glm-overflow hinge "$ball" '{"d_cap": 24}'
# at p = 1 the t x t coefficient transform is the larger table
reject smooth-transform smooth-queries \
  '{"family": "gaussian-ball-clipped", "n": 2000, "dim": 1}' '{"t": 448}'
