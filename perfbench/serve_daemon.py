"""Launch ``repro serve`` for the benchmark, optionally traced.

Runs the real CLI entry point (``repro.cli.main(["serve", ...])``) in
this process.  With ``--trace`` it first installs the span wrappers of
:mod:`spans`, so the daemon's layer calls are recorded exactly as in a
traced agent pass.  When the daemon shuts down (``POST /shutdown``) the
launcher writes ``--out``: its peak RSS, the host-speed ticks of
:mod:`hostspeed` (sampled from the launcher's start) and, when traced,
every span.

Usage (normally only from run.py)::

    python3 perfbench/serve_daemon.py --root . --out R.json [--trace] \\
        -- --port 0 --cache-dir DIR --state-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = p.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    import hostspeed
    hostspeed.start()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import repro.cli

    # stop sampling while the event loop still owns the signal wakeup
    # fd: asyncio closes that fd before it resets it, and a tick in
    # between fails to write to it
    import repro.serve
    serve = repro.serve.run_server
    ticks = []

    async def run_server(*a, **kw):
        try:
            return await serve(*a, **kw)
        finally:
            ticks.extend(hostspeed.stop())
    repro.serve.run_server = run_server

    rec = None
    if args.trace:
        from spans import Recorder, install
        rec = Recorder()
        install(rec)
    code = repro.cli.main(["serve"] + serve_args)
    with open(args.out, "w") as f:
        json.dump({"rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "ticks": ticks,
                   "spans": rec.dump() if rec is not None else None}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
