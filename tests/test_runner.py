"""Tests for the parallel experiment runner and its on-disk cache.

Covers the contract stated in :mod:`repro.runner`:

* cache hit / miss / invalidation by each digest component;
* corrupted or version-stale entries are dropped and recomputed;
* worker count never changes results (workers=1 vs workers=4);
* duplicate specs inside a sweep are simulated once;
* ExperimentSetup reads/writes the disk cache and bypasses it for
  non-canonical inputs.
"""

import dataclasses
import json
import os

import pytest

from repro.experiments.common import ExperimentSetup
from repro.runner import (
    CACHE_VERSION,
    ResultCache,
    RunSpec,
    aggregate_metrics,
    execute_spec,
    execute_spec_metrics,
    key_for_spec,
    map_specs,
    run_sweep,
)
from repro.sim.pipeline import PipelineStats

N, SEED = 64, 11


def spec_of(predictor="not-taken", bench="adpcm_enc", asbr=False, **kw):
    return RunSpec(bench, N, SEED, predictor, with_asbr=asbr, **kw)


def as_dicts(stats_list):
    return [dataclasses.asdict(s) for s in stats_list]


# ----------------------------------------------------------------------
# execute_spec
# ----------------------------------------------------------------------
def test_execute_spec_returns_verified_stats():
    stats = execute_spec(spec_of())
    assert isinstance(stats, PipelineStats)
    assert stats.cycles > stats.committed > 0


def test_execute_spec_asbr_folds():
    plain = execute_spec(spec_of("bimodal-512-512"))
    folded = execute_spec(spec_of("bimodal-512-512", asbr=True))
    assert folded.folds_committed > 0
    assert folded.cycles < plain.cycles


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
def test_key_changes_with_each_digest_component():
    base = key_for_spec(spec_of())
    assert key_for_spec(spec_of()) == base                    # stable
    assert key_for_spec(spec_of("bimodal-2048")) != base      # config
    assert key_for_spec(spec_of(bench="adpcm_dec")) != base   # program
    assert key_for_spec(RunSpec("adpcm_enc", N, SEED + 1,
                                "not-taken")) != base         # input
    assert key_for_spec(spec_of(asbr=True)) != base
    assert key_for_spec(spec_of(asbr=True, bdt_update="commit")) \
        != key_for_spec(spec_of(asbr=True))


# ----------------------------------------------------------------------
# cache hit / miss / recovery
# ----------------------------------------------------------------------
def test_cache_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    assert cache.get(key) is None
    assert cache.misses == 1
    stats = execute_spec(spec_of())
    cache.put(key, stats)
    again = cache.get(key)
    assert cache.hits == 1
    assert dataclasses.asdict(again) == dataclasses.asdict(stats)


def test_cache_drops_corrupted_entry(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    cache.put(key, execute_spec(spec_of()))
    path = os.path.join(str(tmp_path), key + ".json")
    with open(path, "w") as f:
        f.write("{ truncated garbage")
    assert cache.get(key) is None
    assert cache.dropped == 1
    assert not os.path.exists(path)      # recomputed entries re-land
    # and a sweep recovers transparently
    results = run_sweep([spec_of()], cache=cache)
    assert results[0].cycles > 0
    assert cache.get(key) is not None


def test_cache_drops_version_mismatch(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    cache.put(key, execute_spec(spec_of()))
    path = os.path.join(str(tmp_path), key + ".json")
    with open(path) as f:
        entry = json.load(f)
    entry["version"] = CACHE_VERSION + 1
    with open(path, "w") as f:
        json.dump(entry, f)
    assert cache.get(key) is None
    assert cache.dropped == 1


def test_cache_drops_wrong_stats_fields(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    with open(os.path.join(str(tmp_path), key + ".json"), "w") as f:
        json.dump({"version": CACHE_VERSION,
                   "stats": {"no_such_field": 1}}, f)
    assert cache.get(key) is None
    assert cache.dropped == 1


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
SWEEP = [
    spec_of("not-taken"),
    spec_of("bimodal-512-512"),
    spec_of("bimodal-512-512", asbr=True),
    spec_of("not-taken"),                       # duplicate of [0]
]


def test_sweep_dedupes_and_orders(tmp_path):
    cache = ResultCache(str(tmp_path))
    results = run_sweep(SWEEP, cache=cache)
    assert len(results) == len(SWEEP)
    assert results[0] is results[3]             # computed once
    assert cache.misses == 3                    # distinct specs only
    assert len(os.listdir(str(tmp_path))) == 3


def test_sweep_warm_rerun_hits_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    cold = run_sweep(SWEEP, cache=cache)
    warm_cache = ResultCache(str(tmp_path))
    warm = run_sweep(SWEEP, cache=warm_cache)
    assert as_dicts(cold) == as_dicts(warm)
    assert warm_cache.hits == 3
    assert warm_cache.misses == 0


def test_workers_do_not_change_results():
    inline = map_specs(SWEEP[:3], workers=1)
    pooled = map_specs(SWEEP[:3], workers=4)
    assert as_dicts(inline) == as_dicts(pooled)


def test_sweep_without_cache():
    results = run_sweep(SWEEP, workers=0, cache=None)
    assert results[0] is results[3]
    assert as_dicts(results[:1]) == as_dicts([execute_spec(SWEEP[0])])


# ----------------------------------------------------------------------
# metric sweeps (telemetry riding the cache)
# ----------------------------------------------------------------------
def test_execute_spec_metrics_matches_plain():
    spec = spec_of("bimodal-512-512", asbr=True)
    plain = execute_spec(spec)
    stats, metrics = execute_spec_metrics(spec)
    assert dataclasses.asdict(stats) == dataclasses.asdict(plain)
    from repro.telemetry import MetricsRegistry
    reg = MetricsRegistry.from_dict(metrics)
    assert reg.total_branch_executions == stats.branches
    assert reg.total_fold_hits == stats.folds_committed


def test_metric_sweep_caches_and_upgrades(tmp_path):
    spec = spec_of()
    cache = ResultCache(str(tmp_path))
    # a metric-less entry serves plain lookups but misses for metrics
    run_sweep([spec], cache=cache)
    key = key_for_spec(spec)
    assert cache.get(key) is not None
    assert cache.get(key, with_metrics=True) is None
    assert os.path.exists(os.path.join(str(tmp_path), key + ".json"))

    # the metric sweep recomputes once, upgrading the entry in place
    (stats, metrics), = run_sweep([spec], cache=cache,
                                  collect_metrics=True)
    warm = ResultCache(str(tmp_path))
    (w_stats, w_metrics), = run_sweep([spec], cache=warm,
                                      collect_metrics=True)
    assert warm.hits == 1 and warm.misses == 0
    assert dataclasses.asdict(w_stats) == dataclasses.asdict(stats)
    assert w_metrics == metrics
    # and the upgraded entry still serves metric-less lookups
    assert warm.get(key) is not None


def test_aggregate_metrics_merges_per_benchmark():
    specs = [spec_of(), RunSpec("adpcm_enc", N, SEED + 1, "not-taken")]
    results = run_sweep(specs, collect_metrics=True)
    merged = aggregate_metrics(specs, [m for _, m in results])
    assert set(merged) == {"adpcm_enc"}
    total = sum(stats.branches for stats, _ in results)
    assert merged["adpcm_enc"].total_branch_executions == total
    with pytest.raises(ValueError):
        aggregate_metrics(specs, [None])


# ----------------------------------------------------------------------
# the shared selection pass (profile + baseline accuracy per input)
# ----------------------------------------------------------------------
@pytest.fixture
def profile_calls(monkeypatch):
    """Empty selection memo + a counter of real profiling passes."""
    from repro.profiling import BranchProfiler
    from repro.runner import pool

    monkeypatch.setattr(pool, "_selection_memo", type(
        pool._selection_memo)())
    calls = []
    real = BranchProfiler.profile

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(BranchProfiler, "profile", counting)
    return calls


def test_selection_memo_is_bounded_lru(profile_calls):
    from repro.runner import pool, selection_inputs
    from repro.workloads import get_workload, speech_like

    wl = get_workload("adpcm_enc")
    cap = pool.SELECTION_MEMO_SIZE
    first = selection_inputs(wl, speech_like(16, 0))
    for seed in range(1, cap + 3):
        selection_inputs(wl, speech_like(16, seed))
        assert len(pool._selection_memo) <= cap
    assert len(pool._selection_memo) == cap
    assert len(profile_calls) == cap + 3
    # the oldest entry was evicted: asking again recomputes it
    again = selection_inputs(wl, speech_like(16, 0))
    assert len(profile_calls) == cap + 4
    assert again is not first
    # the most recent entries are still served
    selection_inputs(wl, speech_like(16, cap + 2))
    assert len(profile_calls) == cap + 4


def test_selection_memo_keyed_by_content_not_name(profile_calls):
    import copy

    from repro.runner import selection_inputs
    from repro.runner.cache import program_digest
    from repro.sched import schedule_program
    from repro.workloads import get_workload, speech_like

    wl = get_workload("adpcm_enc")
    pair = selection_inputs(wl, speech_like(N, SEED))
    # another name, an equal copy of the program, an equal input list:
    # same digests, so the same shared pair
    renamed = wl.with_program(copy.deepcopy(wl.program), suffix="-copy")
    assert selection_inputs(renamed, list(speech_like(N, SEED))) is pair
    assert len(profile_calls) == 1
    # the same name with a different program or input misses
    sched = schedule_program(copy.deepcopy(wl.program))
    assert program_digest(sched) != program_digest(wl.program)
    same_name = wl.with_program(sched, suffix="")
    assert same_name.name == wl.name
    assert selection_inputs(same_name, speech_like(N, SEED)) is not pair
    assert selection_inputs(wl, speech_like(N, SEED + 1)) is not pair
    assert len(profile_calls) == 3


def test_selection_pass_shared_across_asbr_specs(profile_calls):
    specs = [spec_of("bimodal-512-512", asbr=True, bdt_update=u,
                     bit_capacity=b)
             for u in ("execute", "mem") for b in (8, 16)]
    map_specs(specs, workers=0)
    assert len(profile_calls) == 1


# ----------------------------------------------------------------------
# ExperimentSetup integration
# ----------------------------------------------------------------------
def test_setup_uses_disk_cache(tmp_path):
    first = ExperimentSetup(n_samples=N, seed=SEED,
                            cache_dir=str(tmp_path))
    s1 = first.run("adpcm_enc", "not-taken")
    assert first.result_cache().misses == 1
    assert len(os.listdir(str(tmp_path))) == 1

    second = ExperimentSetup(n_samples=N, seed=SEED,
                             cache_dir=str(tmp_path))
    s2 = second.run("adpcm_enc", "not-taken")
    assert second.result_cache().hits == 1
    assert dataclasses.asdict(s1) == dataclasses.asdict(s2)


def test_setup_matches_runner_stats(tmp_path):
    """Inline ExperimentSetup.run == worker-path execute_spec."""
    setup = ExperimentSetup(n_samples=N, seed=SEED)
    for spec in SWEEP[:3]:
        inline = setup.run(spec.benchmark, spec.predictor_spec,
                           with_asbr=spec.with_asbr)
        assert dataclasses.asdict(inline) == \
            dataclasses.asdict(execute_spec(spec))


def test_setup_prefetch_fills_memo(tmp_path):
    setup = ExperimentSetup(n_samples=N, seed=SEED,
                            cache_dir=str(tmp_path))
    setup.prefetch([("adpcm_enc", "not-taken", False),
                    ("adpcm_enc", "bimodal-512-512", True)])
    assert len(setup._runs) == 2
    # the later .run() calls are pure memo lookups
    assert setup.run("adpcm_enc", "not-taken") \
        is setup._runs[("adpcm_enc", "not-taken", False, 16, "execute")]


def test_setup_noncanonical_input_bypasses_cache(tmp_path):
    setup = ExperimentSetup(n_samples=N, seed=SEED,
                            cache_dir=str(tmp_path))
    setup._pcm = [0] * N                 # not speech_like(N, SEED)
    setup.prefetch([("adpcm_enc", "not-taken", False)])
    assert setup._runs == {}             # prefetch refused
    setup.run("adpcm_enc", "not-taken")  # inline compute still works
    assert os.listdir(str(tmp_path)) == []   # and never touched disk


def test_golden_mismatch_is_never_cached(tmp_path, monkeypatch):
    from repro.workloads.loader import Workload
    monkeypatch.setattr(Workload, "golden_output",
                        lambda self, pcm: ["wrong"])
    cache = ResultCache(str(tmp_path))
    with pytest.raises(AssertionError):
        run_sweep([spec_of()], cache=cache)
    assert os.listdir(str(tmp_path)) == []


# ----------------------------------------------------------------------
# payload checksums and cache verification
# ----------------------------------------------------------------------
def test_cache_entries_carry_verifiable_checksum(tmp_path):
    from repro.runner.cache import _payload_checksum
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    cache.put(key, execute_spec(spec_of()))
    with open(os.path.join(str(tmp_path), key + ".json")) as f:
        entry = json.load(f)
    assert entry["sha256"] == _payload_checksum(entry)
    assert cache.get(key) is not None        # and it reads back


def test_cache_drops_silently_tampered_payload(tmp_path):
    """A bit flip that keeps the JSON valid is caught by the checksum
    (the pre-checksum cache would have served it as truth)."""
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    cache.put(key, execute_spec(spec_of()))
    path = os.path.join(str(tmp_path), key + ".json")
    with open(path) as f:
        entry = json.load(f)
    entry["stats"]["cycles"] += 1
    with open(path, "w") as f:
        json.dump(entry, f)
    assert cache.get(key) is None
    assert cache.dropped == 1
    assert not os.path.exists(path)


def test_cache_verify_classifies_and_prunes(tmp_path):
    cache = ResultCache(str(tmp_path))
    good = key_for_spec(spec_of())
    cache.put(good, execute_spec(spec_of()))

    def write(name, payload):
        with open(os.path.join(str(tmp_path), name + ".json"), "w") as f:
            f.write(payload)

    with open(os.path.join(str(tmp_path), good + ".json")) as f:
        entry = json.load(f)
    stale = dict(entry, version=CACHE_VERSION - 1)
    write("aa" * 32, json.dumps(stale))
    tampered = dict(entry)
    tampered["stats"] = dict(entry["stats"], cycles=1)
    write("bb" * 32, json.dumps(tampered))
    write("cc" * 32, "{ not json")

    scan = ResultCache(str(tmp_path)).verify(prune=False)
    assert (scan.scanned, scan.ok) == (4, 1)
    assert (scan.stale, scan.corrupt, scan.pruned) == (1, 2, 0)
    assert "4 entries scanned" in scan.render()

    pruned = ResultCache(str(tmp_path)).verify(prune=True)
    assert pruned.pruned == 3
    assert os.listdir(str(tmp_path)) == [good + ".json"]
    assert ResultCache(str(tmp_path)).verify().ok == 1


def test_cache_verify_empty_directory(tmp_path):
    result = ResultCache(str(tmp_path / "missing")).verify()
    assert result.scanned == 0 and result.pruned == 0


# ----------------------------------------------------------------------
# FuncSpec: batchable functional runs through the same pool front door
# ----------------------------------------------------------------------
def test_func_specs_batch_matches_serial():
    from repro.runner import FuncResult, FuncSpec, execute_func_spec, \
        execute_func_specs

    specs = [FuncSpec("adpcm_enc", 20 + 7 * i, i) for i in range(5)]
    batched = execute_func_specs(specs)
    for spec, got in zip(specs, batched):
        assert isinstance(got, FuncResult)
        assert got == execute_func_spec(spec)


def test_map_specs_mixes_func_and_run_specs():
    from repro.runner import FuncResult, FuncSpec

    specs = [FuncSpec("adpcm_enc", 20, 1), spec_of(),
             FuncSpec("adpcm_enc", 30, 2)]
    order = []
    results = map_specs(specs, on_result=lambda i, s, r: order.append(i))
    assert isinstance(results[0], FuncResult)
    assert isinstance(results[1], PipelineStats)
    assert isinstance(results[2], FuncResult)
    assert sorted(order) == [0, 1, 2]
    assert dataclasses.asdict(results[1]) \
        == dataclasses.asdict(execute_spec(specs[1]))


def test_func_specs_group_by_program_digest():
    """Two workload names assembling different programs must not share
    a batch; same name + same budget must."""
    from repro.runner.batch import _group_key, FuncSpec

    digests = {}
    k_enc = _group_key(FuncSpec("adpcm_enc", 10, 0), digests)
    k_enc2 = _group_key(FuncSpec("adpcm_enc", 40, 3), digests)
    k_dec = _group_key(FuncSpec("adpcm_dec", 10, 0), digests)
    k_budget = _group_key(FuncSpec("adpcm_enc", 10, 0,
                                   max_instructions=100), digests)
    assert k_enc == k_enc2
    assert k_enc != k_dec
    assert k_enc != k_budget


def test_func_spec_rejects_collect_metrics():
    from repro.runner import FuncSpec

    with pytest.raises(ValueError):
        map_specs([FuncSpec("adpcm_enc", 8, 0)], collect_metrics=True)


def test_func_spec_bad_lane_is_quarantined():
    """A lane that trips its instruction budget settles as a
    FailedResult without aborting its healthy batch neighbours."""
    from repro.runner import FailedResult, FuncSpec

    # one batched group (same program, same budget): the long lane
    # trips the budget, the short lane completes
    specs = [FuncSpec("adpcm_enc", 40, 1, max_instructions=800),
             FuncSpec("adpcm_enc", 12, 2, max_instructions=800),
             FuncSpec("adpcm_enc", 40, 1, max_instructions=50)]
    results = map_specs(specs, on_error="return")
    assert isinstance(results[0], FailedResult)
    assert results[0].kind == "error"
    assert "budget" in results[0].error
    assert not isinstance(results[1], FailedResult)
    # singleton group (unique budget) quarantines through the serial path
    assert isinstance(results[2], FailedResult)
    with pytest.raises(RuntimeError):
        map_specs(specs, on_error="raise")
