"""Benchmark of the ldp-erm simulator: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload glm --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``. Each run starts a fresh
interpreter for the workload (``worker.py``) with BLAS and OpenMP pinned to
one thread and bytecode caching off. With ``--trace 0`` it prints the
end-to-end metrics:

* ``setup_s``: fresh interpreter to ``ldp_erm`` imported and the workload's
  configs validated, the median over three fresh interpreters;
* ``trials_per_s``: trials that completed and passed the checks per wall
  second of the timed rounds, set-up excluded;
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process at exit.

With ``--trace 1`` it prints the per-layer metrics instead: the span
numbers from ``spans.py``, the harness's message accounting and fidelity,
and the import-time breakdown from ``python -X importtime``.

Every trial is checked (status, message count, reals per player, finite
errors), and the first rounds are run again and must write byte-identical
``report.csv`` and ``transcript_summary.csv``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment. Both also go to
``.bench_runs/<workload>-seed<seed>-trace<trace>/result.json``, next to the
run artifacts and, for a traced run, ``spans.csv``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # fresh interpreters besides the workload process itself
IMPORTTIME_PROBES = 3
TIME_LIMIT = 170.0  # seconds for the whole run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def child_env():
    env = dict(os.environ)
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env.update({var: "1" for var in THREAD_VARS})
    # every import compiles ldp_erm from source, whatever an earlier run or
    # the caller's environment left behind, and nothing is written to src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # keep git (the harness runs ``git describe``) from searching above ROOT
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def run_child(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd)} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc


def worker(args, out, deadline, setup_only=False):
    """Run worker.py; return its JSON line and its set-up seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = run_child(cmd, deadline)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def import_times(deadline):
    """Median cumulative import seconds of ldp_erm and scipy.stats."""
    samples = {"ldp_erm": [], "scipy.stats": []}
    for _ in range(IMPORTTIME_PROBES):
        proc = run_child([sys.executable, "-X", "importtime", "-c",
                          "import ldp_erm"], deadline)
        seen = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name, seconds in seen.items():
            samples[name].append(seconds)
    return {"setup.import_s": statistics.median(samples["ldp_erm"]),
            "setup.import_scipy_stats_s":
                statistics.median(samples["scipy.stats"])}


def environment(args, versions):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    describe = "unknown"
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            describe = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), **versions,
            "git_describe": describe, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "workers": 1, "threads": {var: "1" for var in THREAD_VARS}}


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not (ROOT / "src" / "ldp_erm" / "__init__.py").is_file():
        print(f"benchmark: no ldp_erm source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    out = ROOT / ".bench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out.mkdir(parents=True, exist_ok=True)
    try:
        setups = [worker(args, out, deadline, setup_only=True)[1]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        result, setup = worker(args, out, deadline)
        setups.append(setup)
        if args.trace:
            values = {**result["per_layer"], **import_times(deadline)}
        else:
            values = {"setup_s": statistics.median(setups),
                      "trials_per_s": result["trials_per_s"],
                      "peak_rss_mb": result["peak_rss_mb"]}
        names = [m["name"] for m in declared]
        if set(values) != set(names):
            raise BenchError(
                f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(names) - set(values))}, undeclared "
                f"{sorted(set(values) - set(names))}")
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    env = environment(args, result["versions"])
    env.update(rounds=result["rounds"], setup_samples_s=setups,
               mechanism_seconds=result["mechanism_seconds"],
               deterministic=result["deterministic"])
    report = {
        "correct": result["failed"] == 0,  # non-determinism fails trials
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, **report}, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"env": env}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
