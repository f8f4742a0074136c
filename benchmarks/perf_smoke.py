"""CI perf-smoke gate: compiled/batched engines must earn their keep.

A coarse anti-regression check, not a tight threshold: it first proves
compiled-vs-interpreted equivalence on a quick sweep (both simulators,
with and without ASBR/bimodal, superblocks included) and lockstep-batch
vs serial equivalence over divergent lanes, then races the engines on
the ADPCM workload and fails if

* the block-compiled pipeline engine is *slower* than interpreted,
* the fold-specialized superblock engine is *slower* than blocks
  (measured with the ASBR unit attached — the configuration the
  specialization exists for), or
* the batch functional engine is below **5x** the serial interpreter's
  aggregate instructions/s on a 64-lane campaign, or
* the default design-space exploration (``Evaluator`` over the
  ``default`` space, the ``repro dse run`` workflow) is below **1.5x**
  faster end to end on superblocks than on interp, or the two engines'
  objective vectors differ.

Run as a plain script::

    PYTHONPATH=src python benchmarks/perf_smoke.py

Exit status 0 = pass.  Kept out of the pytest tiers on purpose — wall
clock assertions do not belong in the correctness suite.
"""

import dataclasses
import sys
import time

from repro.asbr import ASBRUnit
from repro.predictors import make_predictor
from repro.profiling import BranchProfiler, select_branches
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import OoOConfig, OoOSimulator
from repro.sim.pipeline import PipelineSimulator
from repro.workloads import get_workload
from repro.workloads.inputs import speech_like

WORKLOAD = "adpcm_enc"
EQUIV_SAMPLES = 96
RACE_SAMPLES = 8000
REPS = 3
DSE_SAMPLES = 60


def check_equivalence() -> None:
    wl = get_workload(WORKLOAD)
    pcm = speech_like(EQUIV_SAMPLES, seed=11)
    stream = wl.input_stream(pcm)

    # functional: architectural state must match exactly
    ref = FunctionalSimulator(wl.program, wl.build_memory(stream))
    retired = ref.run()
    sim = FunctionalSimulator(wl.program, wl.build_memory(stream),
                              engine="blocks")
    assert sim.run() == retired, "retired count diverged"
    assert sim.regs.snapshot() == ref.regs.snapshot(), "registers diverged"
    assert sim.memory.snapshot() == ref.memory.snapshot(), "memory diverged"

    # pipeline: full PipelineStats must be bit-identical, across the
    # plain, predicted and ASBR-folding configurations
    profile = BranchProfiler().profile(wl.program, wl.build_memory(stream))
    sel = select_branches(profile, bit_capacity=16, bdt_update="execute")

    def one(pred_spec, with_asbr, engine):
        asbr = (ASBRUnit.from_branch_infos(sel.infos, capacity=16,
                                           bdt_update="execute")
                if with_asbr else None)
        sim = PipelineSimulator(wl.program, wl.build_memory(stream),
                                predictor=make_predictor(pred_spec),
                                asbr=asbr, engine=engine)
        return dataclasses.asdict(sim.run())

    for pred_spec, with_asbr in (("not-taken", False),
                                 ("bimodal-512-512", False),
                                 ("bimodal-512-512", True)):
        a = one(pred_spec, with_asbr, "interp")
        for engine in ("blocks", "superblocks"):
            b = one(pred_spec, with_asbr, engine)
            assert a == b, ("pipeline stats diverged under %s asbr=%s "
                            "engine=%s:\n%r\n%r"
                            % (pred_spec, with_asbr, engine, a, b))

    # out-of-order backend: architectural state and the retirement
    # ledger must match the functional model, folding on and off
    for width, with_asbr in ((1, True), (2, True), (2, False)):
        asbr = (ASBRUnit.from_branch_infos(sel.infos, capacity=16,
                                           bdt_update="execute")
                if with_asbr else None)
        sim = OoOSimulator(wl.program, wl.build_memory(stream),
                           predictor=make_predictor("bimodal-512-512"),
                           asbr=asbr,
                           config=OoOConfig(issue_width=width))
        stats = sim.run()
        assert sim.regs.snapshot() == ref.regs.snapshot(), \
            "ooo registers diverged (w%d)" % width
        assert sim.memory.snapshot() == ref.memory.snapshot(), \
            "ooo memory diverged (w%d)" % width
        assert stats.committed + stats.folds_committed \
            + stats.uncond_folds_committed == retired, \
            "ooo retirement ledger diverged (w%d)" % width
    print("equivalence: OK (%s, %d samples, 3 pipeline configs x 3 "
          "engines + 3 ooo configs)" % (WORKLOAD, EQUIV_SAMPLES))


def check_batch_equivalence() -> None:
    """Divergent-lane batch sweep vs serial functional runs."""
    from repro.sim.batch import run_batch

    wl = get_workload(WORKLOAD)
    lanes = [(16, 3), (96, 11), (40, 7), (96, 11), (5, 0), (64, 42)]
    mems = [wl.build_memory(wl.input_stream(speech_like(n, seed=s)))
            for n, s in lanes]
    res = run_batch(wl.program, mems)
    for i, mem in enumerate(mems):
        ref = FunctionalSimulator(wl.program, mem.copy())
        retired = ref.run()
        lr = res[i]
        assert lr.error is None and lr.halted, "lane %d did not halt" % i
        assert lr.instructions_retired == retired, \
            "lane %d retired count diverged" % i
        assert lr.regs == [ref.regs[r] for r in range(32)], \
            "lane %d registers diverged" % i
        assert lr.memory == ref.memory.snapshot(), \
            "lane %d memory diverged" % i
    print("batch equivalence: OK (%s, %d divergent lanes)"
          % (WORKLOAD, len(lanes)))


def race() -> int:
    wl = get_workload(WORKLOAD)
    pcm = speech_like(RACE_SAMPLES, seed=42)

    def best_rate(engine):
        best = 0.0
        for _ in range(REPS):
            sim = PipelineSimulator(wl.program, wl.build_memory(pcm),
                                    engine=engine)
            t0 = time.perf_counter()
            stats = sim.run()
            dt = time.perf_counter() - t0
            best = max(best, stats.cycles / dt)
        return best

    interp = best_rate("interp")
    blocks = best_rate("blocks")
    ratio = blocks / interp
    print("race: interp %.0f cycles/s, blocks %.0f cycles/s (%.2fx)"
          % (interp, blocks, ratio))
    if blocks < interp:
        print("FAIL: blocks engine is slower than interp on %s"
              % WORKLOAD, file=sys.stderr)
        return 1
    return 0


def race_superblocks() -> int:
    """Superblocks vs blocks with the ASBR unit attached — the fold
    checks and predictor updates the superblock bodies inline are only
    on the hot path in this configuration."""
    wl = get_workload(WORKLOAD)
    pcm = speech_like(RACE_SAMPLES, seed=42)
    stream = wl.input_stream(pcm)
    profile = BranchProfiler().profile(wl.program, wl.build_memory(stream))
    sel = select_branches(profile, bit_capacity=16, bdt_update="execute")

    def best_rate(engine):
        best = 0.0
        for _ in range(REPS):
            asbr = ASBRUnit.from_branch_infos(sel.infos, capacity=16,
                                              bdt_update="execute")
            sim = PipelineSimulator(wl.program, wl.build_memory(stream),
                                    predictor=make_predictor(
                                        "bimodal-512-512"),
                                    asbr=asbr, engine=engine)
            t0 = time.perf_counter()
            stats = sim.run()
            dt = time.perf_counter() - t0
            best = max(best, stats.cycles / dt)
        return best

    blocks = best_rate("blocks")
    superblocks = best_rate("superblocks")
    ratio = superblocks / blocks
    print("race (asbr): blocks %.0f cycles/s, superblocks %.0f "
          "cycles/s (%.2fx)" % (blocks, superblocks, ratio))
    if superblocks < blocks:
        print("FAIL: superblock engine is slower than blocks on %s "
              "with ASBR" % WORKLOAD, file=sys.stderr)
        return 1
    return 0


def race_batch() -> int:
    """64-lane campaign: batch engine vs 64 serial interpreter runs.

    The gate is aggregate architectural throughput — total lane
    instructions per wall-clock second — and the batch engine must
    clear 5x, the margin that makes fault campaigns and DSE rung
    prefetches effectively free next to cycle-accurate work.
    """
    from repro.sim.batch import run_batch

    lanes = 64
    wl = get_workload(WORKLOAD)
    mem = wl.build_memory(wl.input_stream(speech_like(2000, seed=42)))

    serial_best = 0.0
    for _ in range(REPS):
        total = 0
        t0 = time.perf_counter()
        for _lane in range(lanes):
            sim = FunctionalSimulator(wl.program, mem.copy())
            total += sim.run()
        dt = time.perf_counter() - t0
        serial_best = max(serial_best, total / dt)

    batch_best = 0.0
    for _ in range(REPS):
        mems = [mem] * lanes
        t0 = time.perf_counter()
        res = run_batch(wl.program, mems)
        dt = time.perf_counter() - t0
        assert res.total_retired == total, "batch retired diverged"
        batch_best = max(batch_best, res.total_retired / dt)

    ratio = batch_best / serial_best
    print("race (batch): serial %.0f instr/s, batch(%d lanes) %.0f "
          "instr/s (%.2fx)" % (serial_best, lanes, batch_best, ratio))
    if ratio < 5.0:
        print("FAIL: batch engine is below 5x serial functional interp "
              "on a %d-lane campaign (%.2fx)" % (lanes, ratio),
              file=sys.stderr)
        return 1
    return 0


def race_dse() -> int:
    """The end-to-end gate: the default DSE on superblocks vs interp.

    Both engines run the same evaluator path (shared selection pass,
    untraced runs, coverage from counters) with no result cache or
    journal, so the ratio is what ``repro dse run`` gains from the
    engine alone; the objective vectors must be identical.
    """
    from repro.dse import Evaluator, GridSearch, default_space

    space = default_space()

    def best_time(engine):
        best, objectives = float("inf"), None
        for _ in range(REPS):
            ev = Evaluator(WORKLOAD, DSE_SAMPLES, 42, workers=0,
                           engine=engine)
            t0 = time.perf_counter()
            results = GridSearch().run(ev, space)
            best = min(best, time.perf_counter() - t0)
            objectives = [r.objectives for r in results]
        return best, objectives

    interp, interp_obj = best_time("interp")
    superblocks, super_obj = best_time("superblocks")
    ratio = interp / superblocks
    print("race (dse, %d points, n=%d): interp %.2fs, superblocks %.2fs "
          "(%.2fx)" % (len(space.points()), DSE_SAMPLES, interp,
                       superblocks, ratio))
    if super_obj != interp_obj:
        print("FAIL: DSE objective vectors differ between superblocks "
              "and interp", file=sys.stderr)
        return 1
    if ratio < 1.5:
        print("FAIL: default DSE on superblocks is below 1.5x interp "
              "(%.2fx)" % ratio, file=sys.stderr)
        return 1
    return 0


def main() -> int:
    check_equivalence()
    check_batch_equivalence()
    return (race() or race_superblocks() or race_batch()
            or race_dse())


if __name__ == "__main__":
    sys.exit(main())
