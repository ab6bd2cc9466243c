"""One benchmark operation in a fresh interpreter.

Usage: python bench/worker.py --trace {0,1} [--probe] -- <omfree CLI args>

Imports ``omfree.cli`` from the checkout's ``src`` directory, runs
``omfree.cli.main(args)`` with stdout captured, and prints one JSON record
on its own stdout.  Times are CLOCK_MONOTONIC readings, which are
comparable across processes, so the parent can subtract its spawn time from
``t_ready`` to get interpreter start plus import.  With ``--probe`` the
worker stops after the import.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    import omfree.cli

    t_ready = _now()
    src = os.path.realpath(opts.src)
    if not os.path.realpath(omfree.cli.__file__).startswith(src + os.sep):
        print(f"omfree was imported from {omfree.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    record = {"t_ready": t_ready}
    if not opts.probe:
        cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args
        if opts.trace:
            from tracer import Tracer
        tracer = Tracer() if opts.trace else contextlib.nullcontext()
        out = io.StringIO()
        with tracer, contextlib.redirect_stdout(out):
            t_start = _now()
            rc = omfree.cli.main(cli_args)
            t_end = _now()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record.update(
            rc=rc,
            wall_s=t_end - t_start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            output=out.getvalue(),
        )
        if opts.trace:
            record["trace"] = tracer.summary()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
