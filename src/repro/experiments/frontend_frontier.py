"""Extension experiment E5 — branch folding vs a modern front end.

The paper's fetch-stage folding (2001) predates decoupled front ends:
a branch-prediction unit running ahead of fetch through a two-level
BTB, filling a fetch target queue whose entries drive fetch-directed
instruction prefetching (FDIP) into the I-cache (see PAPERS.md:
"Fetch-Directed Instruction Prefetching Revisited"; "Micro BTB").
This driver asks the question those two decades raise: *does ASBR
folding still earn its table bits once the front end predicts and
prefetches ahead?*

It sweeps {ASBR on/off} × {decoupled frontend off/on, BTB sizing, FTQ
depth, FDIP on/off} × BIT capacity on the Huffman decoder (the
control-dominated benchmark FDIP has the most to offer), computes the
speedup / table-bits / energy Pareto frontier, and reports — per
front-end variant — whether the paper's threshold-2 folding
configuration stays non-dominated or drops off the frontier.  The
expected shape: behind a plain decoupled front end (no FDIP) folding
pays frontend SRAM for zero extra cycles and *drops off*; with FDIP
the combined core is the fastest point in the pool and folding is
*non-dominated* again.

Journals land in ``results/dse/`` next to the E3 frontier's, so
re-rendering is pure journal replay.  ``quick=True`` (the CI smoke
mode, ``repro experiments frontend_frontier --quick``) shrinks the
sweep to the verdict-bearing corner of the space.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.dse import (
    DEFAULT_OBJECTIVES,
    ConfigSpace,
    DesignPoint,
    Evaluator,
    GridSearch,
    Journal,
    frontier_of,
    render_frontier_plot,
    render_results_table,
)
from repro.dse.engine import EvalResult
from repro.experiments.common import ExperimentSetup, default_setup

#: the benchmark of the sweep: Huffman decoding is the repo's most
#: control-dominated workload, the class both ASBR and FDIP target.
BENCHMARK = "huffman_dec"

JOURNAL_ROOT = os.path.join("results", "dse")


def frontend_space(quick: bool = False) -> ConfigSpace:
    """The {ASBR} × {frontend, BTB, FTQ, FDIP} × {BIT bits} sweep.

    The quick space keeps one point per verdict: frontend off, plain
    frontend, and frontend+FDIP, each with and without the threshold-2
    ASBR unit.  The full space adds BTB/FTQ sizing and a second BIT
    capacity so the frontier has a real table-bits axis.
    """
    if quick:
        return ConfigSpace(
            predictors=("bimodal-512-512",),
            asbr=(False, True),
            bit_capacities=(16,),
            bdt_updates=("execute",),          # the paper's threshold 2
            frontends=(False, True),
            btb_l1_entries=(64,),
            btb_l2_entries=(2048,),
            ftq_depths=(8,),
            fdip=(False, True),
        )
    return ConfigSpace(
        predictors=("bimodal-512-512",),
        asbr=(False, True),
        bit_capacities=(4, 16),
        bdt_updates=("execute",),
        frontends=(False, True),
        btb_l1_entries=(16, 64),
        btb_l2_entries=(2048,),
        ftq_depths=(4, 8),
        fdip=(False, True),
    )


def journal_path(setup: ExperimentSetup, quick: bool) -> str:
    return os.path.join(JOURNAL_ROOT, "frontend-%s-n%d-s%d%s.jsonl"
                        % (BENCHMARK, setup.n_samples, setup.seed,
                           "-quick" if quick else ""))


def run(setup: Optional[ExperimentSetup] = None,
        quick: bool = False) -> List[EvalResult]:
    """Evaluate the frontend space on the Huffman decoder (resumable)."""
    setup = setup if setup is not None else default_setup()
    space = frontend_space(quick)
    with Journal(journal_path(setup, quick)).open({
            "space": space.digest(), "benchmark": BENCHMARK,
            "n_samples": setup.n_samples,
            "seed": setup.seed}) as journal:
        evaluator = Evaluator(BENCHMARK, setup.n_samples, setup.seed,
                              workers=setup.workers,
                              cache=setup.result_cache(),
                              journal=journal, engine=setup.engine)
        return GridSearch().run(evaluator, space)


def _frontend_tag(point: DesignPoint) -> str:
    """Human name of a point's front-end variant."""
    if not point.frontend:
        return "no frontend"
    return "fe(btb %d/%d, ftq %d)%s" % (
        point.btb_l1_entries, point.btb_l2_entries, point.ftq_depth,
        " + fdip" if point.fdip else "")


def verdicts(evals: List[EvalResult]) -> List[str]:
    """Per-front-end-variant fate of the threshold-2 folding point.

    For every front-end variant present in the pool, finds the ASBR
    threshold-2 points behind that variant and reports whether each is
    on the full-pool frontier (NON-DOMINATED) or has dropped off.
    """
    front_ids = set(id(r) for r in frontier_of(evals, DEFAULT_OBJECTIVES))
    lines = []
    evaluated_t2 = 0
    for r in evals:
        p = r.point
        if not (p.with_asbr and p.bdt_update == "execute"):
            continue
        evaluated_t2 += 1
        fate = ("NON-DOMINATED — folding stays on the frontier"
                if id(r) in front_ids
                else "DOMINATED — folding drops off the frontier here")
        lines.append("threshold-2 folding (bit%d) behind %s: %s"
                     % (p.bit_capacity, _frontend_tag(p), fate))
    lines.append("threshold-2 ASBR points evaluated: %d" % evaluated_t2)
    return lines


def render(evals: List[EvalResult]) -> str:
    sections = [
        render_results_table(
            evals, DEFAULT_OBJECTIVES,
            title="Extension E5: %s folding-vs-frontend frontier "
                  "(%d configurations)" % (BENCHMARK, len(evals))),
        render_frontier_plot(evals),
        "\n".join(verdicts(evals)),
    ]
    return "\n\n".join(sections)


def main(setup: Optional[ExperimentSetup] = None,
         quick: bool = False) -> str:
    text = render(run(setup, quick=quick))
    print(text)
    return text


if __name__ == "__main__":
    main()
