"""Command-line entry point: `sqz run | validate | list`.

Exit codes: 0 success, 2 unknown scenario or usage error (--param, --seed
or --format with a config file, which only --out overrides), 3 rejected
input: a schema violation (no param the scenario does not define, floats
finite, ints integral, the seed a non-negative integer), a parameter the
physics rejects, a float overflow, a run out of memory or a Fock cutoff that
clips a state by more than fock.LEAK_TOLERANCE, 4 file-system failure.
Every error is one line on stderr; a failed run removes only the directories
it created.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import sys
from pathlib import Path

from .fock import TruncationWarning
from .scenarios import (
    CATALOG,
    ScenarioConfig,
    SchemaError,
    UnknownScenarioError,
    load_config,
    resolve,
    run_scenario,
)

# At shutdown CPython runs several full collections over the whole heap,
# about 22k tracked objects from numpy and sqzlab, which cost a short run
# more than its scenario does. atexit handlers run before those
# collections, so freezing the heap in one lets them skip it. Freezing
# eagerly in main would save the same time, but an in-process caller (a
# test runner, say) would then never collect its cyclic garbage. Ending
# with os._exit would skip the other atexit handlers and any code that
# runs after main returns, such as a launcher writing its report.
# `import sqzlab` alone does not register this.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_UNKNOWN_SCENARIO = EXIT_USAGE = 2
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

    # unset flags stay off the namespace, so a run from a config file can refuse them
    run = sub.add_parser(
        "run", help="run a scenario from a config file or by name", argument_default=argparse.SUPPRESS
    )
    run.add_argument("target", help="path to a config JSON, or a scenario name")
    run.add_argument("--param", action="append", type=_parse_param, metavar="K=V")
    run.add_argument("--seed", type=int, help="default 0")
    run.add_argument("--out", default=None, help="output directory (default SQZ_OUT or ./sqz_out)")
    run.add_argument("--format", choices=("csv", "json"), help="default csv")

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
    try:
        resolve(config)
    except (UnknownScenarioError, SchemaError) as exc:
        print(f"error: {exc}\nINVALID")
        return EXIT_SCHEMA if isinstance(exc, SchemaError) else EXIT_UNKNOWN_SCENARIO
    print("OK")
    return EXIT_OK


def _cmd_run(args) -> int:
    target = args.target
    given = {k: getattr(args, k) for k in ("param", "seed", "format") if hasattr(args, k)}
    if target.endswith(".json") or Path(target).is_file():
        if given:
            flags = ", ".join(f"--{k}" for k in given)
            print(f"error: {flags} cannot be used with a config file", file=sys.stderr)
            return EXIT_USAGE
        config = load_config(target)
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=args.out)
    else:
        params = dict(given.pop("param", []))
        config = ScenarioConfig(scenario=target, params=params, output_dir=args.out, **given)
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
    except (ValueError, TruncationWarning, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
