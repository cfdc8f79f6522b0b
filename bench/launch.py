"""Launcher for one `sqz` child of the cli-catalog workload (started by run.py).

    python3 bench/launch.py REPORT TRACE sqz-args...

Imports sqzlab.cli, notes the monotonic time (run.py subtracts its spawn
time to get the set-up time), installs the tracer if TRACE is 1, runs
`sqzlab.cli.main(sqz-args)` as `python -m sqzlab.cli` would, and writes
the ready time, exit code and spans to the JSON file REPORT at exit.
"""

import json
import sys
import time


def main() -> int:
    report, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import sqzlab.cli

    ready = time.monotonic()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        code = sqzlab.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        if tracer is not None:
            tracer.uninstall()
    with open(report, "w") as fh:
        json.dump({"ready": ready, "exit": code, "spans": tracer.spans if tracer else []}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
