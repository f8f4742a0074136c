"""Extension experiment E3 — the paper's story as a Pareto frontier.

Figures 9-11 hand-pick configurations: the ASBR core with a
quarter-size auxiliary bimodal, at the aggressive threshold-2 (post-EX)
forwarding path.  This driver runs the whole paper configuration space
(:func:`repro.dse.space.paper_space`) on the ADPCM pair through the DSE
engine and shows *where those hand-picked points sit* on the computed
speedup / table-cost / energy frontier: the threshold-2 customized core
must come out non-dominated — the paper's choice is a frontier point,
not an arbitrary one.

Journals land in ``results/dse/`` keyed by (benchmark, input), so
re-rendering the figure is pure journal replay.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.dse import (
    DEFAULT_OBJECTIVES,
    DesignPoint,
    Evaluator,
    GridSearch,
    Journal,
    frontier_of,
    paper_space,
    render_frontier_plot,
    render_results_table,
)
from repro.dse.engine import EvalResult
from repro.experiments.common import ExperimentSetup, default_setup

#: the benchmarks of figures 9 and 10.
BENCHMARKS: Tuple[str, ...] = ("adpcm_enc", "adpcm_dec")

#: the configuration the paper's headline results use (fig. 11,
#: Section 8): ASBR + quarter-size bimodal at threshold 2.
PAPER_CONFIG = DesignPoint(predictor_spec="bimodal-512-512",
                           with_asbr=True, bit_capacity=16,
                           bdt_update="execute")

JOURNAL_ROOT = os.path.join("results", "dse")


def journal_path(benchmark: str, setup: ExperimentSetup) -> str:
    return os.path.join(JOURNAL_ROOT, "%s-n%d-s%d.jsonl"
                        % (benchmark, setup.n_samples, setup.seed))


def run(setup: Optional[ExperimentSetup] = None
        ) -> Dict[str, List[EvalResult]]:
    """Evaluate the paper space on both ADPCM benchmarks (resumable)."""
    setup = setup if setup is not None else default_setup()
    space = paper_space()
    results: Dict[str, List[EvalResult]] = {}
    for bench in BENCHMARKS:
        with Journal(journal_path(bench, setup)).open({
                "space": space.digest(), "benchmark": bench,
                "n_samples": setup.n_samples,
                "seed": setup.seed}) as journal:
            evaluator = Evaluator(bench, setup.n_samples, setup.seed,
                                  workers=setup.workers,
                                  cache=setup.result_cache(),
                                  journal=journal, engine=setup.engine)
            results[bench] = GridSearch().run(evaluator, space)
    return results


def render(results: Dict[str, List[EvalResult]]) -> str:
    sections = []
    for bench, evals in results.items():
        front = frontier_of(evals, DEFAULT_OBJECTIVES)
        on_front = any(r.point == PAPER_CONFIG for r in front)
        sections.append(render_results_table(
            evals, DEFAULT_OBJECTIVES,
            title="Extension E3: %s design-space frontier "
                  "(%d configurations)" % (bench, len(evals))))
        sections.append(render_frontier_plot(evals))
        sections.append(
            "paper's threshold-2 configuration (%s): %s"
            % (PAPER_CONFIG.label(),
               "NON-DOMINATED — on the frontier" if on_front
               else "DOMINATED — check the model"))
    return "\n\n".join(sections)


def main(setup: Optional[ExperimentSetup] = None) -> str:
    text = render(run(setup))
    print(text)
    return text


if __name__ == "__main__":
    main()
