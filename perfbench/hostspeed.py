"""Host-speed sampling inside the measured processes.

On a shared host the vCPUs of this VM run at two or more speeds about
1.4x apart that switch every few seconds (co-tenants on the sibling
hardware threads), and CPU time slows with wall time, so neither longer
runs nor CPU time make a pass time steady.  Every measured process —
the agent of a ``dse_cold`` / ``faults_matrix`` pass, the serve daemon —
therefore calls :func:`start` first: every :data:`INTERVAL_S` a SIGALRM
handler runs one fixed pure-Python snippet (no code of ``repro``) and
records when it ran and the CPU time it took in that thread, so waits
for the GIL or the CPU do not count.  :func:`scale` turns the ticks that
fall inside a timed phase into the factor that converts the phase's
wall time to the reference speed at which the snippet takes
:data:`REF_US`.  The snippet costs ~1.5% of a pass, on both sides of
any comparison.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional, Sequence

INTERVAL_S = 0.01
LOOP = 2000
#: the snippet's time at the reference speed: the fast speed of the
#: 2-vCPU VM (Python 3.11) the benchmark was written on
REF_US = 125.0
#: fewest ticks a phase must hold for its own factor
MIN_TICKS = 5

_ticks: List[list] = []


def _snippet() -> int:
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return acc


def _tick(_signum, _frame) -> None:
    when = time.perf_counter_ns()
    cpu = time.thread_time_ns()
    _snippet()
    _ticks.append([when, time.thread_time_ns() - cpu])


def start() -> None:
    """Sample from now on (call from the main thread)."""
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> List[list]:
    """Stop sampling; returns every ``[perf_counter_ns, cpu_ns]`` tick."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    return list(_ticks)


def scale(ticks: Sequence[list], start_ns: int, end_ns: int
          ) -> Optional[float]:
    """``REF_US`` over the median snippet time of the ticks inside
    ``[start_ns, end_ns]`` (all ticks when the phase holds too few);
    None without ticks."""
    inside = [cpu for when, cpu in ticks if start_ns <= when <= end_ns]
    if len(inside) < MIN_TICKS:
        inside = [cpu for _, cpu in ticks]
    if not inside:
        return None
    return REF_US * 1e3 / statistics.median(inside)
