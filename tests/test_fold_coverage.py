"""Fold coverage from stats counters vs the telemetry tables.

The DSE's ``fold_coverage`` objective is computed from two commit-time
counters, ``folds_committed / (folds_committed + branches)``
(:func:`repro.dse.objectives.fold_coverage`), so design points run
untraced on the compiled engines.  It used to be read off a traced
run's :class:`~repro.telemetry.MetricsRegistry` (fold hits / (fold hits
+ branch executions)).  This suite locks the two definitions together
wherever they must agree and pins down where they may not:

* on the in-order pipeline they are *equal*, counter for counter,
  across the random differential corpus (every BDT update point,
  unconditional folding on/off, coupled fetch, decoupled front end and
  FDIP); ``tests/test_runner.py`` checks the same on a workload run;
* on the out-of-order backend telemetry also counts wrong-path branch
  resolutions as executions, so its ratio can only be lower; the
  counters define coverage on committed work for every backend.
"""

import pytest

from repro.dse.objectives import fold_coverage
from repro.frontend import FrontendConfig
from repro.runner import RunSpec, execute_spec_metrics
from repro.sim.ooo import OoOConfig, OoOSimulator
from repro.sim.pipeline import PipelineSimulator
from repro.telemetry import MetricsRegistry, Tracer
from repro.testing import random_program

from tests.test_differential_random import ALL_SEEDS, FAST_SEEDS, _asbr_for

FRONTENDS = {"coupled": None, "fe": FrontendConfig(),
             "fdip": FrontendConfig(fdip=True)}


def telemetry_coverage(registry: MetricsRegistry):
    folds = registry.total_fold_hits
    execs = registry.total_branch_executions
    total = folds + execs
    return (folds / total if total else 0.0), folds, execs


def _check_inorder(seed, update, fold, frontend):
    prog = random_program(seed, units=14)
    registry = MetricsRegistry()
    stats = PipelineSimulator(prog, asbr=_asbr_for(prog, update),
                              fold_unconditional=fold,
                              frontend=FRONTENDS[frontend],
                              trace=Tracer(registry)).run()
    coverage, folds, execs = telemetry_coverage(registry)
    assert (folds, execs) == (stats.folds_committed, stats.branches)
    assert fold_coverage(stats) == coverage


@pytest.mark.parametrize("seed", FAST_SEEDS)
@pytest.mark.parametrize("update", ["execute", "mem", "commit"])
@pytest.mark.parametrize("fold", [False, True], ids=["nofold", "fold"])
@pytest.mark.parametrize("frontend", sorted(FRONTENDS))
def test_inorder_counters_equal_telemetry_fast_subset(seed, update, fold,
                                                      frontend):
    _check_inorder(seed, update, fold, frontend)


@pytest.mark.slow
@pytest.mark.parametrize("seed", ALL_SEEDS[len(FAST_SEEDS):])
def test_inorder_counters_equal_telemetry_full_sweep(seed):
    for update in ("execute", "mem", "commit"):
        for fold in (False, True):
            for frontend in FRONTENDS:
                _check_inorder(seed, update, fold, frontend)


def _check_ooo(seed, width):
    prog = random_program(seed, units=14)
    registry = MetricsRegistry()
    stats = OoOSimulator(prog, asbr=_asbr_for(prog),
                         config=OoOConfig(issue_width=width),
                         trace=Tracer(registry)).run()
    coverage, folds, execs = telemetry_coverage(registry)
    assert folds == stats.folds_committed
    assert execs >= stats.branches       # + wrong-path resolutions
    assert fold_coverage(stats) >= coverage
    return execs - stats.branches


def test_ooo_telemetry_counts_wrong_path_resolutions():
    """The documented difference, on the workload where DSE sees it:
    equal fold counts, more telemetry executions than committed
    branches, hence a strictly lower telemetry ratio."""
    spec = RunSpec("huffman_dec", 150, 20010618, "bimodal-512-512",
                   with_asbr=True, backend="ooo", issue_width=1)
    stats, metrics = execute_spec_metrics(spec)
    coverage, folds, execs = telemetry_coverage(
        MetricsRegistry.from_dict(metrics))
    assert folds == stats.folds_committed > 0
    assert execs > stats.branches
    assert fold_coverage(stats) > coverage


@pytest.mark.parametrize("width", [1, 2])
def test_ooo_counters_bound_telemetry_fast_subset(width):
    for seed in FAST_SEEDS:
        _check_ooo(seed, width)


@pytest.mark.slow
@pytest.mark.parametrize("width", [1, 2, 4])
def test_ooo_counters_bound_telemetry_full_sweep(width):
    extra = sum(_check_ooo(seed, width) for seed in ALL_SEEDS)
    if width > 1:
        # wide machines do resolve wrong-path branches on this corpus
        assert extra > 0
