"""Command-line entry point.

Subcommands: resolve, tune, synth, index-dump. All behaviour comes from
the config file; flags only pick the subcommand, config path and output
directory. Exit codes: 0 success, 2 config error, 3 data error,
4 internal-invariant violation.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, DataError, InternalInvariantError
from .pipeline import run_index_dump, run_resolve, run_synth, run_tune


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siglink",
        description="Signature-based entity resolution pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config file (YAML)")
    common.add_argument("--out", help="output directory (default: config output_dir)")
    sub.add_parser("resolve", parents=[common],
                   help="run the full pipeline and emit clusters.csv / links.csv")
    sub.add_parser("tune", parents=[common],
                   help="grid-search (a, b, rho, tau) against ground truth")
    sub.add_parser("synth", parents=[common],
                   help="generate a synthetic dataset with ground truth")
    sub.add_parser("index-dump", parents=[common],
                   help="build the inverted index and write its diagnostic dump")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config)
        out = Path(args.out) if args.out else None
        if args.command == "resolve":
            result = run_resolve(config, out)
            print(result.report.to_text())
            print(f"clusters: {result.clusters_path}")
            print(f"links:    {result.links_path}")
        elif args.command == "tune":
            result = run_tune(config, out)
            best = result.search.best
            print(f"evaluated {len(result.search.cells)} grid cells")
            print(
                f"best: a={best.params.a} b={best.params.b} rho={best.params.rho} "
                f"tau={best.params.tau} -> F={best.metrics.f_measure:.4f} "
                f"(P={best.metrics.precision:.4f}, R={best.metrics.recall:.4f})"
            )
            print(f"results: {result.results_path}")
            print(f"best params: {result.best_params_path}")
        elif args.command == "synth":
            records_path, truth_path = run_synth(config, out)
            print(f"records: {records_path}")
            print(f"truth:   {truth_path}")
        elif args.command == "index-dump":
            dump_path = run_index_dump(config, out)
            print(f"index dump: {dump_path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
