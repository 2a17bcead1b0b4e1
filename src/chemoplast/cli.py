"""Command-line entry point: run a configured scenario and write its outputs."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .scenarios import (COUPLING_MODES, ConfigError, analytic_comparison, build_scenario,
                        check_analytic_comparison, load_config, run_scenario,
                        write_analytic_comparison)
from .transient import RunAborted


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chemoplast",
        description="Transient coupled stress-diffusion in an elastoplastic "
                    "plane-strain solid (plate-with-hole and particle scenarios).")
    parser.add_argument("--config", required=True, help="scenario config file")
    parser.add_argument("--output-dir", default=None, help="override output.dir")
    parser.add_argument("--mode", choices=["oneway", "twoway"],
                        help="override coupling.mode")
    parser.add_argument("--plasticity", choices=["on", "off"],
                        help="override plasticity.enabled")
    parser.add_argument("--validate-analytic", action="store_true",
                        help="compare the final fields against the closed-form "
                             "hole-boundary solution and write analytic_comparison.csv")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-step Newton summary")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 1
    try:
        config = load_config(text)
        if args.mode:
            config = replace(config, mode=COUPLING_MODES[args.mode])
        if args.plasticity:
            config = replace(config, plasticity=args.plasticity == "on")
        if args.output_dir:
            config = replace(config, output_dir=args.output_dir)
        scenario = build_scenario(config)
        if args.validate_analytic:
            check_analytic_comparison(scenario)
        history, fields = run_scenario(scenario, output_dir=config.output_dir,
                                       quiet=args.quiet)
        if args.validate_analytic:
            rows = analytic_comparison(scenario, fields)
            write_analytic_comparison(rows, Path(config.output_dir) / "analytic_comparison.csv")
        if not args.quiet:
            print(f"done: {len(history.times)} steps, outputs in {config.output_dir}")
    except (ConfigError, RunAborted) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
