"""One workload run in a fresh interpreter; started by run.py.

Set-up ends once ``ldp_erm`` is imported and the workload's configs are
validated. With ``--setup-only`` the process stops there. Otherwise it runs
rounds (one trial of each mechanism) until ``--seconds`` have passed, with
``--trace 1`` repeats the first rounds traced, and prints one JSON line with
its counts and numbers.
"""

import argparse
import csv
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import replace

from workloads import BITS_PER_REAL, MECHANISMS, MESSAGE, WORKLOADS

TRACED_ROUNDS = 2  # fixed, so span counts repeat for a given seed
# report.csv columns holding an error; each must be finite when present
ERROR_COLUMNS = ("err_empirical", "baseline_err", "max_query_error")


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _trial_ok(row, trow, n, reals):
    """The checks every trial must pass."""
    if row["status"] != "ok" or trow["messages"] != str(n):
        return False
    if float(trow["reals_per_player"]) != reals:
        return False
    return all(math.isfinite(float(row[c]))
               for c in ERROR_COLUMNS if row[c] != "")


def run_round(harness, configs, seed, span):
    """Run every mechanism once at ``seed``; return timing and outputs."""
    results, seconds = {}, {}
    for cfg in configs:
        start = time.perf_counter()
        with span(f"harness.run_experiment.{cfg.mechanism}"):
            results[cfg.mechanism] = harness.run_experiment(
                replace(cfg, seed=seed))
        seconds[cfg.mechanism] = time.perf_counter() - start
    outputs, failed = {}, {}
    for cfg in configs:
        res = results[cfg.mechanism]
        with open(res.transcript_path, newline="") as fh:
            trows = list(csv.DictReader(fh))
        reals = MESSAGE[cfg.mechanism][0]
        oks = [_trial_ok(row, trow, cfg.dataset["n"], reals)
               for row, trow in zip(res.rows, trows)]
        failed[cfg.mechanism] = cfg.trials - sum(oks)  # missing rows fail
        outputs[cfg.mechanism] = {
            "files": (_read(res.report_path), _read(res.transcript_path)),
            "rows": res.rows, "trows": trows}
    return {"seconds": seconds, "trials": sum(c.trials for c in configs),
            "failed": failed, "outputs": outputs}


def _median(values):
    values = [float(v) for v in values if v != ""]
    return statistics.median(values) if values else 0.0


def harness_metrics(rounds):
    """Message accounting and fidelity per mechanism, medians over rounds.

    Mechanisms the workload does not run read 0.
    """
    out = {}
    for mech in MECHANISMS:
        runs = [r["outputs"][mech] for r in rounds
                if mech in r["outputs"]]
        rows = [row for r in runs for row in r["rows"]]
        trows = [t for r in runs for t in r["trows"]]
        bits = _median(t["bits_per_player"] for t in trows)
        reals, protocol_bits = MESSAGE[mech]
        out[f"harness.bits_per_player.{mech}"] = bits
        out[f"harness.reals_per_player.{mech}"] = _median(
            t["reals_per_player"] for t in trows)
        out[f"harness.bits_overcount.{mech}"] = (
            bits - (BITS_PER_REAL * reals + protocol_bits) if runs else 0.0)
        if mech in ("marginals", "smooth-queries"):
            out[f"harness.max_query_error.{mech}"] = _median(
                row["max_query_error"] for row in rows)
        else:
            # grid mechanisms leave baseline_err empty: their err_empirical
            # is already the excess over the exact optimum
            err = _median(row["err_empirical"] for row in rows)
            base = _median(row["baseline_err"] for row in rows)
            out[f"harness.err_empirical.{mech}"] = err
            out[f"harness.excess.{mech}"] = err - base
    query = [t for r in rounds for m in ("marginals", "smooth-queries")
             if m in r["outputs"] for t in r["outputs"][m]["trows"]]
    trials = sum(r["trials"] for r in rounds)
    out["query_release.coefficients"] = sum(
        float(t["reals_per_player"]) for t in query) / trials
    return out


def main(argv=None):
    args = parse_args(argv)
    from ldp_erm import harness
    configs = [
        harness.ExperimentConfig(
            mechanism=mech, dataset=dict(dataset), params=dict(params),
            trials=1, seed=0, workers=1, out=os.path.join(args.out, mech))
        for mech, (dataset, params) in WORKLOADS[args.workload].items()]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy
    import scipy
    draw = random.Random(args.seed)
    seeds = [draw.randrange(2 ** 31) for _ in range(10_000)]
    # Round 1 repeats round 0's seed and must write the same bytes.
    order = [seeds[0]] + seeds
    timed = []
    deadline = time.perf_counter() + args.seconds
    while (len(timed) < (TRACED_ROUNDS + 1 if args.trace else 2)
           or time.perf_counter() < deadline):
        timed.append(run_round(harness, configs, order[len(timed)],
                               nullcontext))
    repeats = [(timed[1], timed[0])]
    every = timed
    if args.trace:
        import spans
        # Timing spans and tracemalloc peaks come from separate rounds, so
        # tracemalloc's cost per allocation does not skew the times.
        timing, memory = spans.Tracer(), spans.Tracer(memory=True)
        with timing:
            traced = [run_round(harness, configs, seeds[i], timing.span)
                      for i in range(TRACED_ROUNDS)]
        with memory:
            measured = run_round(harness, configs, seeds[0], memory.span)
        untraced_twins = timed[1:TRACED_ROUNDS + 1]  # same seeds as traced
        repeats += list(zip(traced, untraced_twins))
        repeats.append((measured, timed[0]))
        every = timed + traced + [measured]

    # A repeated round whose CSVs differ from the first run of its seed
    # counts every trial of the differing mechanism failed.
    deterministic = True
    for again, first in repeats:
        for mech, out in again["outputs"].items():
            if out["files"] != first["outputs"][mech]["files"]:
                deterministic = False
                again["failed"][mech] = len(out["rows"])
    attempted = sum(r["trials"] for r in every)
    failed = sum(sum(r["failed"].values()) for r in every)
    result = {
        "ready": ready,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "attempted": attempted,
        "failed": failed,
        "deterministic": deterministic,
        "rounds": len(timed),
        # the mean over the whole timed phase, not a median of rounds: the
        # machine's speed drifts over tens of seconds rather than in bursts
        "trials_per_s": (
            sum(r["trials"] - sum(r["failed"].values()) for r in timed)
            / sum(sum(r["seconds"].values()) for r in timed)),
        "mechanism_seconds": {mech: [r["seconds"][mech] for r in timed]
                              for mech in timed[0]["seconds"]},
    }
    if args.trace:
        layers = spans.layer_metrics(
            timing, memory, sum(r["trials"] for r in traced))
        layers.update(harness_metrics(untraced_twins))
        layers["harness.failed_frac"] = failed / attempted
        # traced against untraced rounds of the same seeds; they ran at
        # different times, so drift in the machine's speed shows here too
        layers["trace.overhead_frac"] = (
            sum(sum(r["seconds"].values()) for r in traced)
            / sum(sum(r["seconds"].values()) for r in untraced_twins) - 1.0)
        timing.write_csv(os.path.join(args.out, "spans.csv"))
        memory.write_csv(os.path.join(args.out, "spans_memory.csv"))
        result["per_layer"] = layers
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
