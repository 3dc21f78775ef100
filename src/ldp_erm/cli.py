"""Command-line front end for running simulator experiments.

Usage::

    ldp-erm <mechanism> --config cfg.json [--out DIR] [--seed N]
            [--trials N] [--workers N] [--set params.epsilon=0.5 ...]

The config is a JSON file (a previous run's ``manifest.json`` works too);
flags override its fields. Exit status: 0 on success, 2 on a configuration
error, 3 when some trials failed and were recorded in the report.
"""

import argparse
import json
import sys

from .errors import ConfigurationError
from .harness import MECHANISMS, apply_set_overrides, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldp-erm",
        description="Simulate one-shot private averaging / ERM / query release.")
    parser.add_argument("mechanism", choices=MECHANISMS)
    parser.add_argument("--config", required=True,
                        help="JSON experiment config (or a manifest.json)")
    parser.add_argument("--out", help="output directory for run artifacts")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--trials", type=int, help="trials per sweep cell")
    parser.add_argument("--workers", type=int,
                        help="worker processes (default 1)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                        help="dotted config override, e.g. params.epsilon=0.5")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, mechanism=args.mechanism)
        # the flags are overrides too, applied last so that they win
        flags = [f"{name}={json.dumps(getattr(args, name))}"
                 for name in ("out", "seed", "trials", "workers")
                 if getattr(args, name) is not None]
        cfg = apply_set_overrides(cfg, args.set + flags)
        result = run_experiment(cfg)
    except ConfigurationError as exc:
        print(f"ldp-erm: configuration error: {exc}", file=sys.stderr)
        return 2
    ok = len(result.rows) - result.failures
    print(f"{result.out_dir}: {ok} ok, {result.failures} failed "
          f"-> {result.report_path}")
    return 3 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
