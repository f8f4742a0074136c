"""Extension experiment E6 — how much of branch folding survives OoO.

The paper evaluates ASBR folding on an in-order embedded pipeline,
where every fetch bubble is a lost cycle — the strongest possible case
for a fetch-stage customization.  A dynamically scheduled core hides
much of that latency: while fetch recovers from a mispredicted branch,
the issue queue keeps draining older work, so removing a branch from
the fetch stream buys less than it does in-order.  This driver plots
the curve the paper could not: the fold win (cycles without ASBR /
cycles with ASBR, everything else equal) on the in-order machine vs
1/2/4-wide out-of-order backends (:mod:`repro.sim.ooo`) at several
active-list depths.

Each machine variant is evaluated with and without the paper's
threshold-2 folding unit on the Huffman decoder (the most
control-dominated workload, where folding has the most to lose).  The
verdict lines report the in-order fold speedup and, per OoO variant,
what fraction of that win survives — the number ROADMAP item 4 asks
for, asserted in CI via ``--quick``.

Journals land in ``results/dse/`` next to the E3/E5 frontiers, so
re-rendering is pure journal replay.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.dse import (
    DEFAULT_OBJECTIVES,
    ConfigSpace,
    DesignPoint,
    Evaluator,
    GridSearch,
    Journal,
    render_results_table,
)
from repro.dse.engine import EvalResult
from repro.experiments.common import (
    ExperimentSetup,
    default_setup,
    render_table,
)

#: the benchmark of the sweep: Huffman decoding is the repo's most
#: control-dominated workload — the strongest in-order fold win, hence
#: the most interesting retention question.
BENCHMARK = "huffman_dec"

JOURNAL_ROOT = os.path.join("results", "dse")


def ooo_space(quick: bool = False) -> ConfigSpace:
    """The {ASBR off/on} × {in-order, OoO width × ROB depth} sweep.

    The quick space keeps one ROB depth (32 — the default machine) so
    the CI smoke run still produces the headline 2-wide retention
    verdict; the full space adds shallow (16) and deep (64) active
    lists to show how the retention curve moves with window size.
    """
    return ConfigSpace(
        predictors=("bimodal-512-512",),
        asbr=(False, True),
        bit_capacities=(16,),
        bdt_updates=("execute",),          # the paper's threshold 2
        backends=("inorder", "ooo"),
        issue_widths=(1, 2, 4),
        rob_sizes=(32,) if quick else (16, 32, 64),
    )


def journal_path(setup: ExperimentSetup, quick: bool) -> str:
    return os.path.join(JOURNAL_ROOT, "ooo-%s-n%d-s%d%s.jsonl"
                        % (BENCHMARK, setup.n_samples, setup.seed,
                           "-quick" if quick else ""))


def run(setup: Optional[ExperimentSetup] = None,
        quick: bool = False) -> List[EvalResult]:
    """Evaluate the fold-sensitivity space (resumable via journal)."""
    setup = setup if setup is not None else default_setup()
    space = ooo_space(quick)
    with Journal(journal_path(setup, quick)).open({
            "space": space.digest(), "benchmark": BENCHMARK,
            "n_samples": setup.n_samples,
            "seed": setup.seed}) as journal:
        evaluator = Evaluator(BENCHMARK, setup.n_samples, setup.seed,
                              workers=setup.workers,
                              cache=setup.result_cache(),
                              journal=journal, engine=setup.engine)
        return GridSearch().run(evaluator, space)


# ----------------------------------------------------------------------
# fold-win extraction
# ----------------------------------------------------------------------
def _machine(point: DesignPoint) -> Tuple[int, int]:
    """Machine identity of a point: (issue width, ROB) — (0, 0) is the
    in-order pipeline."""
    if point.backend != "ooo":
        return (0, 0)
    return (point.issue_width, point.rob_size)


def machine_tag(machine: Tuple[int, int]) -> str:
    if machine == (0, 0):
        return "in-order"
    return "%d-wide OoO (rob %d)" % machine


def fold_wins(evals: List[EvalResult]
              ) -> Dict[Tuple[int, int], Tuple[int, int, float]]:
    """Per machine variant: (cycles without ASBR, cycles with the
    threshold-2 unit, fold speedup)."""
    cycles: Dict[Tuple[int, int], Dict[bool, int]] = {}
    for r in evals:
        cycles.setdefault(_machine(r.point), {})[r.point.with_asbr] \
            = r.objectives.cycles
    out = {}
    for machine, by_asbr in sorted(cycles.items()):
        if True not in by_asbr or False not in by_asbr:
            continue                      # half-evaluated variant
        base, fold = by_asbr[False], by_asbr[True]
        out[machine] = (base, fold, base / fold if fold else 0.0)
    return out


def verdicts(evals: List[EvalResult]) -> List[str]:
    """The greppable result lines (asserted by the CI ooo-smoke step).

    Retention is measured on the win itself — ``(speedup - 1)`` — not
    on the speedup ratio, so a machine where folding buys nothing
    reports 0% rather than ~hiding behind the 1.0x floor.
    """
    wins = fold_wins(evals)
    lines = []
    inorder = wins.get((0, 0))
    if inorder is None:
        return ["in-order fold speedup: not evaluated"]
    lines.append("in-order fold speedup: %.3fx (%d -> %d cycles)"
                 % (inorder[2], inorder[0], inorder[1]))
    base_win = inorder[2] - 1.0
    for machine, (_, _, speedup) in sorted(wins.items()):
        if machine == (0, 0):
            continue
        retention = 100.0 * (speedup - 1.0) / base_win if base_win \
            else 0.0
        lines.append("fold-win retention at %s: %.1f%% of the in-order "
                     "win (%.3fx)"
                     % (machine_tag(machine), retention, speedup))
    lines.append("machine variants evaluated: %d" % len(wins))
    return lines


def render(evals: List[EvalResult]) -> str:
    wins = fold_wins(evals)
    inorder_win = wins.get((0, 0), (0, 0, 1.0))[2] - 1.0
    rows = []
    for machine, (base, fold, speedup) in sorted(wins.items()):
        retention = (100.0 * (speedup - 1.0) / inorder_win
                     if inorder_win else 0.0)
        rows.append([machine_tag(machine), "%d" % base, "%d" % fold,
                     "%.3fx" % speedup,
                     "-" if machine == (0, 0) else "%.1f%%" % retention])
    sections = [
        render_results_table(
            evals, DEFAULT_OBJECTIVES,
            title="Extension E6: %s fold sensitivity to dynamic "
                  "scheduling (%d configurations)"
                  % (BENCHMARK, len(evals))),
        render_table(
            ["machine", "cycles (no asbr)", "cycles (asbr t2)",
             "fold speedup", "win retained"],
            rows, title="Fold-win curve (threshold-2 ASBR, bit16, "
                        "bimodal-512-512)"),
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
