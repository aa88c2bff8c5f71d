"""Command-line front end: run experiment grids, profile solvers, selftest."""

import argparse
import json
import sys

from .harness import ConfigError, emit_table, load_config, run, timing_profile


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="orthopt",
        description="Penalty-based and Riemannian solvers for generalized orthogonality")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a solver grid from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--solver", action="append", default=None,
                       help="restrict to a solver id (repeatable)")
    p_run.add_argument("--tol", type=float, default=None, help="single gradient tolerance")
    p_run.add_argument("--seed", type=int, default=None, help="override the problem seed")
    p_run.add_argument("--out", default=None, help="output directory for tables and traces")
    p_run.add_argument("--json", action="store_true",
                       help="print the records as one JSON list instead of the text table")

    p_prof = sub.add_parser("profile", help="fixed-iteration timing decomposition")
    p_prof.add_argument("--config", required=True)
    p_prof.add_argument("--iters", type=int, default=100)
    p_prof.add_argument("--solver", action="append", default=None)
    p_prof.add_argument("--json", action="store_true",
                        help="print one JSON object keyed by solver instead of the text lines")

    p_self = sub.add_parser("selftest", help="run the manifold/penalty invariant battery")
    p_self.add_argument("--json", action="store_true",
                        help="print one JSON object with a row per check instead of the text lines")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "selftest":
            from .diagnostics import run_selftest
            return 0 if run_selftest(stream=sys.stdout, as_json=args.json) else 2
        config = load_config(args.config)
        if args.solver:
            config.solvers = args.solver
        if args.command == "run":
            if args.tol is not None:
                config.tols = [args.tol]
            if args.seed is not None:
                config.problem["seed"] = args.seed
            if args.out is not None:
                config.out = args.out
            records = run(config)
            sys.stdout.write(emit_table(records, "json" if args.json else "text"))
            return 0
        profiles = timing_profile(config, iters=args.iters)
        if args.json:
            print(json.dumps(profiles))
            return 0
        for solver_id, row in profiles.items():
            shares = ", ".join(f"{k} {v:5.1f}%" for k, v in row["percent"].items())
            print(f"{solver_id:<10} total {row['total_s']:8.3f}s  "
                  f"grad {row['grad_norm']:.1e}  {shares}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:                                        # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
