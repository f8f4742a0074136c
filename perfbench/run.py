"""End-to-end benchmark of the three user workflows of ``repro``.

Usage::

    python3 perfbench/run.py --workload dse_cold --seed 1 --seconds 35 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``dse_cold`` — ``repro dse run --space default`` on adpcm_enc, every
  pass with a fresh result cache and journal.  An operation is a design
  point evaluated.
* ``faults_matrix`` — ``repro faults campaign`` (none / parity / ecc
  over one plan, ``--batch auto``) on adpcm_enc.  An operation is an
  injection classified.
* ``serve_mix`` — ``repro serve`` with a cache and a state directory,
  driven by this process in a closed loop (one request outstanding,
  at most two connections) through a seeded plan of ``/run`` cache
  hits, ``/run`` misses and ``/sweep`` jobs.  An operation is a request
  answered.

A run repeats *passes* of the workload for ``--seconds`` (at least
:data:`MIN_PASSES`).  Each pass starts a fresh process for the workflow
— the agent (``agent.py``) or the daemon (``serve_daemon.py``) — in
fresh temporary directories inside the checkout, so every pass pays the
user's set-up and has its own peak RSS.

Host speed on a shared VM switches between levels ~1.4x apart every few
seconds, so the measured process samples it while it works
(``hostspeed.py``: a fixed pure-Python snippet from a timer signal) and
each pass's set-up and operation-phase times are reported at the
reference speed: wall time x ``REF_US`` / median snippet time inside
that phase.  ``setup_s`` and ``wall_s`` are the medians of these scaled
pass times, ``throughput_ops_s`` the operations of a pass over
``wall_s``, ``peak_rss_mb`` the median peak RSS; serve latencies are
percentiles over every request of the run.  The last line of stdout is
the result object; the line before it records the host context: load
average, CPU count, Python version, source revision, exact counts and
every pass's raw and scaled figures with its snippet time.

``--trace 1`` alternates traced and untraced passes (traced first).
Traced passes record a span around every public layer call
(``spans.py``) and report per-layer self time; the untraced passes of
the same run give the tracing overhead and the serve latencies.

Correctness gate, applied to every pass: the workflow output digest
(``dse_cold``, ``faults_matrix``) and the exact simulated counts must
equal the pinned reference in ``pins.json``; ``serve_mix`` also checks
a sampled subset of served records against ``execute_spec`` run here,
the daemon's ``/stats`` counters against the plan, and every pass's
records against the first pass's.  The workload seed selects one of
:data:`VARIANTS` pinned input variants (speech input seed and fault
seed) and orders the serve plan; ``repin.py`` records the pins.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")

#: environment knobs that would override a user-facing default
SCRUB = ("REPRO_ENGINE", "REPRO_WORKERS", "REPRO_CACHE_DIR",
         "REPRO_BLOCKS_CACHE", "REPRO_SAMPLES", "REPRO_FAULTS")
HASH_SEED = "0"

MIN_PASSES = 3
PASS_TIMEOUT = 170.0

#: pinned input variants; the workload seed picks one, so that every
#: run's outputs can be checked against a recorded reference
VARIANTS = 8
BASE_SEED = 20010618

#: workload sizes (changing any of them requires repin.py).  A pass
#: takes 2-6 s on a 2-vCPU host, so a run holds six or more; the DSE
#: input is shorter than the CLI default but keeps the whole 76-point
#: space (72 ASBR points sharing one input, 4 without ASBR).
PARAMS = {
    "dse_cold": {"samples": 60},
    "faults_matrix": {"samples": 200, "n_faults": 16},
    "serve_mix": {"samples": 600, "predictor": "bimodal-512-512",
                  "hit_specs": 4, "hit_requests": 100, "misses": 4,
                  "sweeps": 2, "sweep_specs": 4, "verify_sample": 2},
}


def variant_inputs(seed: int) -> dict:
    """The program inputs a workload seed selects."""
    v = seed % VARIANTS
    return {"variant": v, "input_seed": BASE_SEED + v, "fault_seed": 1 + v}


# ----------------------------------------------------------------------
# environment and host context
# ----------------------------------------------------------------------
def clean_env(tmp: Optional[str] = None) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUB}
    env["PYTHONHASHSEED"] = HASH_SEED
    if tmp is not None:
        env["TMPDIR"] = tmp
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".s")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_revision() -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_context(passes: List["Pass"]) -> dict:
    return {"calib_ms": median(p.calib_ms for p in passes),
            "loadavg": list(os.getloadavg()),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_revision": git_revision(),
            "source_sha256": source_digest()}


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def stop_group(proc: subprocess.Popen) -> None:
    """Kill a child's whole process group and reap the child."""
    if proc.poll() is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def spawn(argv: List[str], env: Dict[str, str], log_path: str
          ) -> subprocess.Popen:
    with open(log_path, "wb") as log:
        return subprocess.Popen([sys.executable] + argv, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log,
                                start_new_session=True)


def read_log(path: str) -> str:
    with open(path, "rb") as f:
        return f.read().decode("utf-8", "replace")


# ----------------------------------------------------------------------
# pins
# ----------------------------------------------------------------------
def load_pins() -> dict:
    try:
        with open(PINS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def timed(ticks: list, setup: List[int], wall: List[int]) -> dict:
    """A pass's phase times, as measured and at the reference speed,
    from ``[start_ns, end_ns]`` bounds and the process's speed ticks."""
    raw_setup = (setup[1] - setup[0]) / 1e9
    raw_wall = (wall[1] - wall[0]) / 1e9
    setup_k = hostspeed.scale(ticks, *setup)
    wall_k = hostspeed.scale(ticks, *wall)
    if setup_k is None or wall_k is None:
        raise RuntimeError("the measured process recorded no speed ticks")
    return {"raw_setup_s": raw_setup, "raw_wall_s": raw_wall,
            "setup_s": raw_setup * setup_k, "wall_s": raw_wall * wall_k,
            "calib_ms": hostspeed.REF_US / 1e3 / wall_k}


def check_pin(pins: dict, workload: str, variant: int,
              observed: dict) -> Optional[str]:
    """None if ``observed`` (digest/counts) equals the pinned reference;
    ``pins=None`` skips the comparison (``repin.py`` records them)."""
    if pins is None:
        return None
    entry = pins.get(workload, {})
    if entry.get("params") != PARAMS[workload]:
        return "pins.json has no reference for these %s parameters" \
            % workload
    want = entry.get("variants", {}).get(str(variant))
    if want is None:
        return "pins.json has no %s variant %d" % (workload, variant)
    for key, value in want.items():
        if observed.get(key) != value:
            return "%s differs from the pinned reference: %r != %r" \
                % (key, observed.get(key), value)
    return None


# ----------------------------------------------------------------------
# agent workloads: dse_cold and faults_matrix
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Pass:
    traced: bool
    ops: int
    failed: int
    setup_s: float = 0.0        # at the reference host speed
    wall_s: float = 0.0         # at the reference host speed
    raw_setup_s: float = 0.0    # as measured
    raw_wall_s: float = 0.0     # as measured
    calib_ms: float = 0.0       # median host-speed snippet time
    rss_mb: float = 0.0
    observed: dict = dataclasses.field(default_factory=dict)
    spans: Optional[list] = None
    serve: Optional[dict] = None
    error: Optional[str] = None


class AgentWorkload:
    """One ``agent.py`` process per pass."""

    def __init__(self, name: str, seed: int, work: str) -> None:
        self.name = name
        self.inputs = variant_inputs(seed)
        self.work = work
        self.params = PARAMS[name]
        # operations a pass attempts, counted as failed if it breaks
        if name == "dse_cold":
            from repro.dse import get_space
            self.nominal_ops = len(get_space("default").points())
        else:
            from repro.faults import PROTECTIONS
            self.nominal_ops = len(PROTECTIONS) * self.params["n_faults"]

    def prepare(self) -> None:
        pass

    def run_pass(self, i: int, traced: bool) -> Pass:
        pdir = os.path.join(self.work, "pass%d" % i)
        os.makedirs(os.path.join(pdir, "tmp"))
        out = os.path.join(pdir, "result.json")
        log = os.path.join(pdir, "agent.log")
        argv = [os.path.join(HERE, "agent.py"), "--root", ROOT,
                "--workload", self.name, "--work", pdir,
                "--samples", str(self.params["samples"]),
                "--seed", str(self.inputs["input_seed"]),
                "--fault-seed", str(self.inputs["fault_seed"]),
                "--out", out]
        if "n_faults" in self.params:
            argv += ["--n-faults", str(self.params["n_faults"])]
        if traced:
            argv.append("--trace")
        argv += ["--spawn-ns", str(time.perf_counter_ns())]
        proc = spawn(argv, clean_env(os.path.join(pdir, "tmp")), log)
        try:
            code = proc.wait(timeout=PASS_TIMEOUT)
        finally:
            stop_group(proc)
        if code != 0 or not os.path.exists(out):
            return Pass(traced, self.nominal_ops, self.nominal_ops,
                        error="agent exited %r:\n%s"
                        % (code, read_log(log)[-4000:]))
        with open(out) as f:
            res = json.load(f)
        observed = {"digest": res["digest"], "counts": res["counts"]}
        return Pass(traced, res["ops"], 0, rss_mb=res["rss_mb"],
                    observed=observed, spans=res["spans"],
                    **timed(res["ticks"], res["setup"], res["wall"]))

    def verify(self, passes: List[Pass], pins: dict) -> List[str]:
        errors = []
        for p in passes:
            if p.error is None:
                p.error = check_pin(pins, self.name,
                                    self.inputs["variant"], p.observed)
                if p.error is not None:
                    p.failed = p.ops
            if p.error is not None:
                errors.append(p.error)
        return errors


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------
class ServeWorkload:
    """A fresh daemon per pass, driven through one seeded plan."""

    name = "serve_mix"

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.inputs = variant_inputs(seed)
        self.work = work
        self.params = p = PARAMS["serve_mix"]
        base = self.inputs["input_seed"]
        self.hit_specs = [self._spec(base + 100 + k)
                          for k in range(p["hit_specs"])]
        self.miss_specs = [self._spec(base + 200 + k)
                           for k in range(p["misses"])]
        self.sweep_specs = [[self._spec(base + 300 + 10 * j + k)
                             for k in range(p["sweep_specs"])]
                            for j in range(p["sweeps"])]
        plan = ([("hit", i % p["hit_specs"])
                 for i in range(p["hit_requests"])]
                + [("miss", k) for k in range(p["misses"])]
                + [("sweep", j) for j in range(p["sweeps"])])
        random.Random(seed).shuffle(plan)
        self.plan = plan
        self.template = os.path.join(work, "template-cache")

    def _spec(self, input_seed: int) -> dict:
        return {"benchmark": "adpcm_enc",
                "n_samples": self.params["samples"], "seed": input_seed,
                "predictor_spec": self.params["predictor"],
                "with_asbr": True}

    def expected_counters(self) -> dict:
        p = self.params
        return {"executions": p["misses"] + p["sweeps"] * p["sweep_specs"],
                "hot_hits": p["hit_requests"] - p["hit_specs"],
                "disk_hits": p["hit_specs"], "coalesced": 0,
                "shed_requests": 0, "errors": 0, "jobs_failed": 0}

    def prepare(self) -> None:
        """Put the hit set in a disk cache that every pass starts from
        (the daemon's layout: ``repro serve`` defaults to 256 shards)."""
        from repro.runner import ResultCache, run_sweep
        from repro.serve import spec_from_wire
        run_sweep([spec_from_wire(s) for s in self.hit_specs],
                  cache=ResultCache(self.template, shards=256))

    # -- one pass -------------------------------------------------------
    def run_pass(self, i: int, traced: bool) -> Pass:
        pdir = os.path.join(self.work, "pass%d" % i)
        cache = os.path.join(pdir, "cache")
        os.makedirs(os.path.join(pdir, "tmp"))
        shutil.copytree(self.template, cache)
        out = os.path.join(pdir, "daemon.json")
        log = os.path.join(pdir, "daemon.log")
        argv = [os.path.join(HERE, "serve_daemon.py"), "--root", ROOT,
                "--out", out] + (["--trace"] if traced else []) + [
                "--", "--port", "0", "--cache-dir", cache,
                "--state-dir", os.path.join(pdir, "state")]
        n_ops = len(self.plan)
        spawned = time.perf_counter_ns()
        proc = spawn(argv, clean_env(os.path.join(pdir, "tmp")), log)
        try:
            port = self._wait_ready(proc, log)
            ready = time.perf_counter_ns()
            result = self._drive(port)
            proc.wait(timeout=PASS_TIMEOUT)
        except Exception:
            return Pass(traced, n_ops, n_ops,
                        error="serve pass failed:\n%s\n%s"
                        % (traceback.format_exc(), read_log(log)[-4000:]))
        finally:
            stop_group(proc)
        text = read_log(log)
        if proc.returncode != 0 or "Traceback" in text:
            return Pass(traced, n_ops, n_ops,
                        error="daemon exited %r:\n%s"
                        % (proc.returncode, text[-4000:]))
        with open(out) as f:
            daemon = json.load(f)
        return Pass(traced, n_ops, result["failed"], rss_mb=daemon["rss_mb"],
                    spans=daemon["spans"], serve=result,
                    **timed(daemon["ticks"], [spawned, ready],
                            result["wall"]))

    @staticmethod
    def _wait_ready(proc: subprocess.Popen, log: str) -> int:
        from repro.serve import ServeClient
        deadline = time.monotonic() + 60
        port = None
        while port is None:
            m = re.search(r"listening on [\d.]+:(\d+)", read_log(log))
            if m:
                port = int(m.group(1))
            elif proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon did not start")
            else:
                time.sleep(0.002)
        client = ServeClient(port=port, retries=0, timeout=10)
        try:
            while not client.readyz()[0]:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon never became ready")
                time.sleep(0.002)
        finally:
            client.close()
        return port

    def _drive(self, port: int) -> dict:
        """Issue the plan in a closed loop; returns latencies, records,
        counters and the number of failed operations."""
        from repro.serve import ServeClient, ServeError
        client = ServeClient(port=port, retries=0, timeout=120)
        hit_ms, miss_ms, sweep_s, miss_spans = [], [], [], []
        records: Dict[str, dict] = {}
        failed = 0
        t0 = time.perf_counter_ns()
        for kind, k in self.plan:
            start = time.perf_counter_ns()
            try:
                if kind == "sweep":
                    recs = self._sweep(client, self.sweep_specs[k])
                    sweep_s.append((time.perf_counter_ns() - start) / 1e9)
                else:
                    spec = (self.hit_specs if kind == "hit"
                            else self.miss_specs)[k]
                    rec = client.run(spec)
                    end = time.perf_counter_ns()
                    want = ("memory", "disk") if kind == "hit" \
                        else ("executed",)
                    if rec.get("source") not in want:
                        raise RuntimeError("%s answered from %r"
                                           % (kind, rec.get("source")))
                    if kind == "hit":
                        hit_ms.append((end - start) / 1e6)
                    else:
                        miss_ms.append((end - start) / 1e6)
                        miss_spans.append((start, end))
                    recs = [rec]
            except (ServeError, OSError, RuntimeError) as exc:
                failed += 1
                print("serve %s failed: %s" % (kind, exc), file=sys.stderr)
                continue
            for rec in recs:
                records[_key(rec["spec"])] = rec.get("stats")
        wall = [t0, time.perf_counter_ns()]
        counters = client.stats()["counters"]
        client.shutdown()
        return {"wall": wall, "failed": failed, "hit_ms": hit_ms,
                "miss_ms": miss_ms, "sweep_s": sweep_s,
                "miss_spans": miss_spans, "records": records,
                "counters": counters}

    @staticmethod
    def _sweep(client, specs: List[dict]) -> List[dict]:
        """Submit a sweep and wait for its end event on the stream."""
        job = client.sweep(specs)
        state = None
        for event in client.stream_events(job["id"]):
            if event.get("kind") == "end":
                state = event.get("state")
                break
        if state != "done":
            raise RuntimeError("sweep job ended %r" % (state,))
        full = client.job(job["id"])
        recs = [r for r in full["results"] if r is not None]
        if len(recs) != len(specs) or not all(r.get("ok") for r in recs):
            raise RuntimeError("sweep job returned failed results")
        return recs

    # -- gate -----------------------------------------------------------
    def observed(self, p: Pass) -> dict:
        stats = p.serve["records"].values()
        counts = {"cycles": sum(s["cycles"] for s in stats),
                  "instructions": sum(s["committed"] for s in stats),
                  "folds": sum(s["folds_committed"] for s in stats)}
        counts.update({k: p.serve["counters"].get(k)
                       for k in self.expected_counters()})
        return {"counts": counts}

    def verify(self, passes: List[Pass], pins: dict) -> List[str]:
        errors = []
        good = [p for p in passes if p.error is None]
        first = good[0].serve["records"] if good else None
        for p in good:
            counters = {k: p.serve["counters"].get(k)
                        for k in self.expected_counters()}
            if counters != self.expected_counters():
                p.error = "counters %r do not match the plan %r" \
                    % (counters, self.expected_counters())
            elif p.serve["records"] != first:
                p.error = "served records differ between passes"
            else:
                p.observed = self.observed(p)
                p.error = check_pin(pins, self.name,
                                    self.inputs["variant"], p.observed)
            if p.error is not None:
                p.failed = p.ops
        if first is not None and good[0].error is None:
            err = self._check_sample(first)
            if err is not None:
                for p in good:
                    p.error, p.failed = err, p.ops
        errors.extend(p.error for p in passes if p.error is not None)
        return errors

    def _check_sample(self, records: Dict[str, dict]) -> Optional[str]:
        """Served stats of a seeded sample equal ``execute_spec``."""
        from repro.runner import execute_spec
        from repro.serve import spec_from_wire
        rng = random.Random(self.seed)
        n = self.params["verify_sample"]
        sample = (self.hit_specs
                  + rng.sample(self.miss_specs, n)
                  + rng.sample([s for sw in self.sweep_specs for s in sw],
                               n))
        for wire in sample:
            want = dataclasses.asdict(execute_spec(spec_from_wire(wire)))
            if records.get(_key(wire)) != want:
                return "served record for %r differs from execute_spec" \
                    % (wire,)
        return None


def _key(wire: dict) -> str:
    """The service's own identity of a wire spec."""
    from repro.serve import spec_from_wire, spec_key
    return spec_key(spec_from_wire(wire))


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(passes: List[Pass]) -> Dict[str, float]:
    """Run-level values: medians of the passes' times at the reference
    host speed."""
    wall = median(p.wall_s for p in passes)
    return {"setup_s": median(p.setup_s for p in passes),
            "wall_s": wall,
            "throughput_ops_s": median(p.ops for p in passes) / wall,
            "peak_rss_mb": median(p.rss_mb for p in passes)}


def per_layer(name: str, passes: List[Pass]) -> Dict[str, float]:
    import spans as S

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    layers = [S.layer_metrics(p.spans) for p in traced]
    out = {k: median(m[k] for m in layers) for k in layers[0]}

    points = [ms for p in traced for ms in S.asbr_point_ms(p.spans)]
    injections = [ms for p in traced for ms in S.injection_ms(p.spans)]
    out["dse.point_p50_ms"] = S.percentile(points, 50)
    out["dse.point_p90_ms"] = S.percentile(points, 90)
    out["faults.injections"] = median(p.ops for p in traced) \
        if name == "faults_matrix" else 0
    out["faults.injection_p50_ms"] = S.percentile(injections, 50)
    out["faults.injection_p90_ms"] = S.percentile(injections, 90)
    out["faults.context_s"] = median(S.faults_context_s(p.spans)
                                     for p in traced)
    for outcome in ("masked", "detected_recovered", "sdc"):
        key = "faults.outcome." + outcome
        out[key] = (traced[0].observed.get("counts", {})
                    .get("outcome." + outcome, 0))

    serve = {"serve.execute_s": 0.0, "serve.miss_overhead_ms": 0.0,
             "serve.hot_hits": 0, "serve.disk_hits": 0,
             "serve.executions": 0, "serve.coalesced": 0,
             "serve.shed_requests": 0, "serve.errors": 0,
             "serve.hit_latency_p50_ms": 0.0,
             "serve.hit_latency_p90_ms": 0.0,
             "serve.miss_latency_p50_ms": 0.0, "serve.sweep_job_s": 0.0}
    if name == "serve_mix":
        serve.update(serve_layer(traced, plain))
    out.update(serve)

    walls = median(p.wall_s for p in traced)
    out["bench.trace_overhead_frac"] = (
        walls / median(p.wall_s for p in plain) - 1.0)
    out["bench.unattributed_frac"] = median(
        max(0.0, 1.0 - S.attributed_ns(p.spans) / 1e9 / p.raw_wall_s)
        for p in traced)
    out["host.calib_ms"] = median(p.calib_ms for p in passes)
    return out


def exact_count_errors(passes: List[Pass]) -> List[str]:
    """The simulated counts the traced passes recorded must repeat
    exactly (every pass does identical work)."""
    import spans as S

    counts = [tuple(S.layer_metrics(p.spans)[k]
                    for k in S.EXACT_COUNTS.values())
              for p in passes if p.traced and p.spans is not None]
    if len(set(counts)) > 1:
        return ["simulated counts differ between traced passes: %r"
                % (counts,)]
    return []


def serve_layer(traced: List[Pass], plain: List[Pass]) -> Dict[str, float]:
    import spans as S

    out = {}
    for key in ("hot_hits", "disk_hits", "executions", "coalesced",
                "shed_requests", "errors"):
        out["serve." + key] = traced[0].serve["counters"][key]
    out["serve.execute_s"] = median(
        sum(s[2] - s[1] for s in p.spans if s[0] == "runner.run_sweep")
        / 1e9 for p in traced)
    overheads = []
    for p in traced:
        sweeps = [s for s in p.spans if s[0] == "runner.run_sweep"]
        for start, end in p.serve["miss_spans"]:
            inner = [s for s in sweeps if start <= s[1] and s[2] <= end]
            if len(inner) == 1:
                overheads.append((end - start - (inner[0][2] - inner[0][1]))
                                 / 1e6)
    out["serve.miss_overhead_ms"] = median(overheads)
    hits = [ms for p in plain for ms in p.serve["hit_ms"]]
    out["serve.hit_latency_p50_ms"] = S.percentile(hits, 50)
    out["serve.hit_latency_p90_ms"] = S.percentile(hits, 90)
    out["serve.miss_latency_p50_ms"] = median(
        ms for p in plain for ms in p.serve["miss_ms"])
    out["serve.sweep_job_s"] = median(
        s for p in plain for s in p.serve["sweep_s"])
    return out


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_passes(workload, seconds: float, trace: bool) -> List[Pass]:
    """Passes until ``seconds`` would be exceeded (at least
    :data:`MIN_PASSES`); with ``trace`` they alternate traced/untraced."""
    passes = []
    t0 = time.monotonic()
    while True:
        i = len(passes)
        start = time.monotonic()
        passes.append(workload.run_pass(i, traced=trace and i % 2 == 0))
        took = time.monotonic() - start
        if len(passes) >= MIN_PASSES and \
                time.monotonic() - t0 + took > seconds:
            return passes


def make_workload(name: str, seed: int, work: str):
    if name == "serve_mix":
        return ServeWorkload(seed, work)
    return AgentWorkload(name, seed, work)


def run(args, units: Dict[str, str]) -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = os.path.join(ROOT, ".perfbench_work", "run-%d" % os.getpid())
    os.makedirs(work)
    try:
        compileall.compile_dir(SRC, quiet=1)
        sys.path.insert(0, SRC)
        workload = make_workload(args.workload, args.seed, work)
        workload.prepare()
        passes = run_passes(workload, args.seconds, args.trace == 1)
        errors = workload.verify(passes, load_pins())
        if args.trace == 1:
            errors += exact_count_errors(passes)
        attempted = sum(p.ops for p in passes)
        failed = sum(p.failed for p in passes)
        good = [p for p in passes if p.error is None]
        metrics = {}
        if not errors:
            values = (per_layer(args.workload, good)
                      if args.trace == 1 else end_to_end(good))
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, unit in units.items()}
        for err in errors:
            print(err, file=sys.stderr)
        context = host_context(passes)
        context.update(workload=args.workload, seed=args.seed,
                       variant=workload.inputs["variant"],
                       passes=[{"traced": p.traced, "setup_s": p.setup_s,
                                "wall_s": p.wall_s,
                                "raw_setup_s": p.raw_setup_s,
                                "raw_wall_s": p.raw_wall_s,
                                "calib_ms": p.calib_ms, "rss_mb": p.rss_mb}
                               for p in passes],
                       counts=next((p.observed.get("counts")
                                    for p in good), None))
        print(json.dumps({"context": context}, sort_keys=True))
        print(json.dumps({"correct": not errors, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if not errors else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))


def metric_units(trace: int) -> Dict[str, str]:
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(PARAMS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("no program sources at %s" % SRC, file=sys.stderr)
        return 2
    env = clean_env()
    if any(os.environ.get(k) != env.get(k) for k in SCRUB
           + ("PYTHONHASHSEED",)):
        # pin the hash seed and drop overrides for this process too
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run(args, metric_units(args.trace))


if __name__ == "__main__":
    sys.exit(main())
