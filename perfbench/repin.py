"""Record the pinned references that the benchmark's gate checks.

For every workload and every input variant, runs one untraced pass
and writes its output digest and exact counts to ``pins.json``.  Run
it only when a change is *meant* to alter simulated results or the
workload parameters in ``run.py`` changed; a speed-only change must
leave every pin as it is.

Usage::

    python3 perfbench/repin.py [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run as bench


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(bench.PARAMS))
    args = p.parse_args()
    sys.path.insert(0, bench.SRC)
    pins = bench.load_pins()
    names = [args.workload] if args.workload else sorted(bench.PARAMS)
    work = os.path.join(bench.ROOT, ".perfbench_work", "repin-%d"
                        % os.getpid())
    try:
        for name in names:
            variants = {}
            for v in range(bench.VARIANTS):
                vdir = os.path.join(work, "%s-%d" % (name, v))
                os.makedirs(vdir)
                workload = bench.make_workload(name, v, vdir)
                workload.prepare()
                one = workload.run_pass(0, traced=False)
                errors = workload.verify([one], None)
                if errors:
                    print("\n".join(errors), file=sys.stderr)
                    return 1
                variants[str(v)] = one.observed
                print("%s variant %d: %s" % (name, v, one.observed),
                      file=sys.stderr)
            pins[name] = {"params": bench.PARAMS[name],
                          "variants": variants}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(bench.PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
