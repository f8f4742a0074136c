"""One measured pass of a library workflow, in a fresh process.

``run.py`` starts this script once per pass of the ``dse_cold`` and
``faults_matrix`` workloads, so every pass pays the user's cold start
(interpreter, imports, workload assembly) and has its own peak RSS.
The pass drives the real CLI entry point (``repro dse run`` or
``repro faults campaign``) in-process with the user-facing defaults,
then writes one JSON result file:

* ``setup`` — ``[start, end]`` in ``perf_counter_ns``, from the
  parent's spawn timestamp to the moment the first operation could be
  issued;
* ``wall`` — ``[start, end]`` of the workflow call itself;
* ``ticks`` — the host-speed samples of :mod:`hostspeed`, taken from
  the start of this script, by which ``run.py`` scales both phases;
* ``ops`` — design points evaluated or injections classified;
* ``digest`` — SHA-256 of the workflow's JSON output;
* ``counts`` — exact simulated counts read back from the outputs;
* ``rss_mb`` — this process's peak resident set;
* ``spans`` — with ``--trace``, every layer span of the pass.

Usage (normally only from run.py)::

    python3 perfbench/agent.py --root . --workload dse_cold \\
        --work DIR --spawn-ns N --samples 120 --seed 20010618 --out R
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

BENCHMARK = "adpcm_enc"


def _dse_argv(args) -> list:
    return ["dse", "run", "--space", "default", "--benchmark", BENCHMARK,
            "--samples", str(args.samples), "--seed", str(args.seed),
            "--journal", os.path.join(args.work, "journal.jsonl"),
            "--cache-dir", os.path.join(args.work, "cache"), "--json"]


def _faults_argv(args) -> list:
    return ["faults", "campaign", "--benchmark", BENCHMARK,
            "--samples", str(args.samples), "--seed", str(args.seed),
            "--fault-seed", str(args.fault_seed),
            "--n-faults", str(args.n_faults), "--json",
            "--out", os.path.join(args.work, "report.json")]


def _dse_outputs(args, stdout: str) -> dict:
    """Digest of the points + frontier JSON, and the exact counts of
    every simulated point, read back through the result cache."""
    from repro.dse import get_space
    from repro.runner import ResultCache, key_for_spec

    doc = json.loads(stdout)
    cache = ResultCache(os.path.join(args.work, "cache"))
    counts = {"cycles": 0, "instructions": 0, "folds": 0}
    for point in get_space("default").points():
        spec = point.to_spec(BENCHMARK, args.samples, args.seed)
        stats = cache.get(key_for_spec(spec))
        if stats is None:
            raise RuntimeError("no cached result for %r" % (point,))
        counts["cycles"] += stats.cycles
        counts["instructions"] += stats.committed
        counts["folds"] += stats.folds_committed
    counts["points"] = len(doc["points"])
    counts["frontier"] = sum(1 for p in doc["points"]
                             if p.get("on_frontier"))
    return {"ops": len(doc["points"]),
            "digest": hashlib.sha256(stdout.encode()).hexdigest(),
            "counts": counts}


def _faults_outputs(args, stdout: str) -> dict:
    """Digest of the report file and its per-outcome injection counts."""
    with open(os.path.join(args.work, "report.json"), "rb") as f:
        raw = f.read()
    reports = json.loads(raw)
    counts = {"cycles": 0, "instructions": 0, "folds": 0}
    ops = 0
    for protection in sorted(reports):
        rep = reports[protection]
        counts["cycles"] += rep["ref"]["cycles"]
        counts["instructions"] += rep["ref"]["committed"]
        counts["folds"] += rep["ref"]["folds_committed"]
        for inj in rep["injections"]:
            key = "outcome.%s" % inj["outcome"]
            counts[key] = counts.get(key, 0) + 1
            ops += 1
    return {"ops": ops, "digest": hashlib.sha256(raw).hexdigest(),
            "counts": counts}


WORKFLOWS = {
    "dse_cold": (_dse_argv, _dse_outputs),
    "faults_matrix": (_faults_argv, _faults_outputs),
}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=sorted(WORKFLOWS))
    p.add_argument("--work", required=True)
    p.add_argument("--spawn-ns", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--fault-seed", type=int, default=1)
    p.add_argument("--n-faults", type=int, default=24)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args()

    import hostspeed
    hostspeed.start()

    # set-up: everything a user's process does before its first
    # operation — imports and assembling the workload
    sys.path.insert(0, os.path.join(args.root, "src"))
    import repro.cli
    from repro.workloads import get_workload
    get_workload(BENCHMARK).program
    ready = time.perf_counter_ns()

    rec = None
    if args.trace:
        from spans import Recorder, install
        rec = Recorder()
        install(rec)

    argv_fn, outputs_fn = WORKFLOWS[args.workload]
    stdout = io.StringIO()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(stdout):
        code = repro.cli.main(argv_fn(args))
    t1 = time.perf_counter_ns()
    ticks = hostspeed.stop()
    if code != 0:
        raise RuntimeError("%s exited with %r" % (args.workload, code))

    # spans first: reading the outputs back goes through wrapped calls
    spans = rec.dump() if rec is not None else None
    result = outputs_fn(args, stdout.getvalue())
    result.update(
        setup=[args.spawn_ns, ready], wall=[t0, t1], ticks=ticks,
        spans=spans,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
