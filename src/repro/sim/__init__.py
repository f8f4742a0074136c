"""Architectural simulators.

* :class:`~repro.sim.functional.FunctionalSimulator` — instruction-accurate
  golden model; also drives profiling and branch-trace collection.
* :class:`~repro.sim.pipeline.PipelineSimulator` — cycle-accurate 5-stage
  in-order single-issue pipeline with caches, a pluggable branch
  predictor, and optional ASBR branch folding; the measurement vehicle
  for every experiment in the paper.
* :mod:`~repro.sim.blocks` — the block-compiled execution engine behind
  ``engine="blocks"`` on both simulators: basic blocks are compiled to
  specialized Python functions (content-addressed, memoised on disk),
  bit-identical to the interpreted paths.
* :mod:`~repro.sim.superblocks` — the fold-specialized execution engine
  behind ``engine="superblocks"`` on the pipeline simulator: the ASBR
  fold check, BDT update points and predictor updates are compiled into
  the loop body, bit-identical to ``blocks`` and ``interp``.
* :mod:`~repro.sim.batch` — NumPy lockstep batch functional engine
  (:func:`~repro.sim.batch.run_batch`): one program over N lanes as
  ``(32, N)`` array operations, exactly per-lane-equivalent to serial
  :class:`~repro.sim.functional.FunctionalSimulator` runs.
* :class:`~repro.sim.ooo.OoOSimulator` — cycle-accurate R10000-style
  out-of-order backend (rename, issue queue, active list, checkpoint
  recovery) sharing the in-order machine's fetch-side mechanisms
  (ASBR folding, decoupled front end) and architectural semantics.

``DEFAULT_ENGINE`` (``"superblocks"``) is the engine every workflow runs
on unless told otherwise; the simulator constructors themselves default
to ``"interp"``, the reference and observer path.
"""

from repro.sim.batch import BatchResult, LaneResult, run_batch
from repro.sim.blocks import BlockCache, CompiledBlocks, compile_blocks
from repro.sim.core import DEFAULT_ENGINE, ENGINES
from repro.sim.functional import (
    FunctionalSimulator,
    SimulationError,
    BranchRecord,
    collect_branch_trace,
)
from repro.sim.ooo import OoOConfig, OoOSimulator, OoOStats
from repro.sim.pipeline import PipelineConfig, PipelineSimulator, PipelineStats

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "FunctionalSimulator",
    "SimulationError",
    "BranchRecord",
    "collect_branch_trace",
    "PipelineConfig",
    "PipelineSimulator",
    "PipelineStats",
    "OoOConfig",
    "OoOSimulator",
    "OoOStats",
    "BlockCache",
    "CompiledBlocks",
    "compile_blocks",
    "BatchResult",
    "LaneResult",
    "run_batch",
]
