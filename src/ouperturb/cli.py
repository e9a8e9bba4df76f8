"""Command line entry point.

Subcommands: simulate, sweep, phi-check, girsanov, psi, report, all.
Exit codes: 0 all checks pass, 1 check failures, 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .harness import make_state, report_from_manifest, run_stages

SUBCOMMAND_STAGES = {
    "simulate": ("simulate",),
    "sweep": ("sweep",),
    "phi-check": ("sweep", "phi-check"),
    "girsanov": ("girsanov",),
    "psi": ("girsanov", "psi"),
    "all": ("simulate", "sweep", "phi-check", "girsanov", "psi", "report"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ouperturb",
        description="Simulate perturbed Ornstein-Uhlenbeck dynamics and run "
                    "the quantitative verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in SUBCOMMAND_STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override mc.master_seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--paths", type=int, default=None,
                       help="override mc.n_paths")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (affects speed only)")
        p.add_argument("--quiet", action="store_true")
    p = sub.add_parser("report")
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--quiet", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return report_from_manifest(args.out, quiet=args.quiet)
    try:
        overrides = {"mc.master_seed": args.seed, "mc.n_paths": args.paths,
                     "output.directory": args.out}
        cfg = load_config(args.config,
                          {k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    state = make_state(cfg, n_workers=args.workers, quiet=args.quiet)
    return run_stages(state, SUBCOMMAND_STAGES[args.command])


if __name__ == "__main__":
    sys.exit(main())
