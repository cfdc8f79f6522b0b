"""Command-line entry point: `sqz run | validate | list`.

Exit codes: 0 success, 2 unknown scenario (or usage error), 3 rejected
input: a schema violation (floats must be finite, ints integral, the seed
a non-negative integer) or a parameter the physics rejects, 4 file-system
failure. Every error is one line on stderr. A failed run removes only
the directories it created.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .scenarios import (
    CATALOG,
    ScenarioConfig,
    UnknownScenarioError,
    load_config,
    run_scenario,
    validate_config,
)

EXIT_OK = 0
EXIT_UNKNOWN_SCENARIO = 2
EXIT_SCHEMA = 3
EXIT_IO = 4


def _parse_param(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected k=v, got {text!r}")
    key, value = text.split("=", 1)
    for cast in (int, float):
        try:
            return key, cast(value)
        except ValueError:
            continue
    return key, value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqz", description="squeezed-light scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario from a config file or by name")
    run.add_argument("target", help="path to a config JSON, or a scenario name")
    run.add_argument("--param", action="append", type=_parse_param, default=[], metavar="K=V")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help="output directory (default SQZ_OUT or ./sqz_out)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")

    val = sub.add_parser("validate", help="check a config file without running it")
    val.add_argument("config", help="path to a config JSON")

    sub.add_parser("list", help="print the scenario catalog with parameter schemas")
    return parser


def _cmd_list() -> int:
    for name in sorted(CATALOG):
        scenario = CATALOG[name]
        print(f"{name}: {scenario.description}")
        for pname, spec in scenario.params.items():
            default = "required" if spec.required else f"default {spec.default!r}"
            print(f"    {pname} ({spec.kind.__name__}, {default}): {spec.help}")
    return EXIT_OK


def _cmd_validate(config: ScenarioConfig) -> int:
    report = validate_config(config)
    print(report.describe())
    if report.ok:
        return EXIT_OK
    return EXIT_SCHEMA if config.scenario in CATALOG else EXIT_UNKNOWN_SCENARIO


def _cmd_run(args) -> int:
    target = args.target
    if target.endswith(".json") or Path(target).is_file():
        config = load_config(target)
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=args.out)
    else:
        config = ScenarioConfig(
            scenario=target,
            params=dict(args.param),
            seed=args.seed,
            output_dir=args.out,
            format=args.format,
        )
    manifest = run_scenario(config)
    print(f"wrote {manifest.parent}/ (manifest: {manifest.name})")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    try:
        if args.command == "validate":
            return _cmd_validate(load_config(args.config))
        return _cmd_run(args)
    except UnknownScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run `sqz list` to see the catalog", file=sys.stderr)
        return EXIT_UNKNOWN_SCENARIO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
