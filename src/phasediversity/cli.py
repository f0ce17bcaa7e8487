"""Command-line driver.

Subcommands: simulate, solve, compare-methods, compare-models,
analyze-hessian.  Exit codes: 0 success, 2 configuration error,
3 runtime failure.  The default output directory comes from --out,
then the config's ``output_dir`` key, then the environment variable
``PHASEDIVERSITY_OUTPUT_DIR``, then ``./phasediversity-out``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import (
    ConfigError,
    ExperimentConfig,
    config_errors,
    config_from_sources,
    run_analyze_hessian,
    run_compare_methods,
    run_compare_models,
    run_solve,
    simulate,
)
from .problems import load_instance

ENV_OUTPUT_DIR = "PHASEDIVERSITY_OUTPUT_DIR"


def _add_common(sub):
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override one config key")
    sub.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasediversity",
        description="Phase-diversity wavefront retrieval experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a problem instance on disk")
    _add_common(p)

    for name, hlp in (("solve", "run seeded restarts of one solver"),
                      ("compare-methods", "SD/NCG/LBFGS/TN on shared seeds"),
                      ("compare-models", "MLP/LS/LSI on shared seeds")):
        p = sub.add_parser(name, help=hlp)
        _add_common(p)
        p.add_argument("--instance", required=True,
                       help="instance directory written by simulate")

    p = sub.add_parser("analyze-hessian",
                       help="closed-form vs dense spectra at a point")
    _add_common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--point", default="truth",
                   help="'truth', 'random', or a saved field (.npy)")
    return parser


def _resolve_out(args, config: ExperimentConfig) -> Path:
    if args.out:
        return Path(args.out)
    if config.output_dir:
        return Path(config.output_dir)
    env = os.environ.get(ENV_OUTPUT_DIR)
    if env:
        return Path(env)
    return Path("phasediversity-out")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_sources(args.config, args.overrides)
        out = _resolve_out(args, config)
        if args.command == "simulate":
            simulate(config, out)
            print(f"instance written to {out}")
            return 0
        with config_errors(f"cannot load instance {args.instance}: "):
            instance = load_instance(args.instance)
        if args.command == "solve":
            summary = run_solve(config, instance, out)
            agg = summary["aggregates"]
            print(f"solve: {config.solver.method} x{config.restarts} restarts -> "
                  f"success_rate {agg['success_rate']:.2f}, "
                  f"mean_fft_calls {agg['mean_fft_calls']:.1f} ({out})")
        elif args.command == "compare-methods":
            payload = run_compare_methods(config, instance, out)
            for entry in payload["methods"]:
                print(f"{entry['method']:6s} mean_fft {entry['mean_fft_calls']:9.1f} "
                      f"success {entry['success_rate']:.2f}")
            print("fft orderings:", payload["fft_orderings"])
        elif args.command == "compare-models":
            payload = run_compare_models(config, instance, out)
            for model, entry in payload["models"].items():
                print(f"{model:4s} reached rms<{payload['rms_target']:g} "
                      f"in {entry['n_reached']}/{config.restarts} restarts")
        elif args.command == "analyze-hessian":
            payload = run_analyze_hessian(config, instance, args.point, out)
            for plane in payload["planes"]:
                devs = {m: e["dense_max_deviation"]
                        for m, e in plane["models"].items()}
                print(f"{plane['plane']}: dense deviation {devs}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
