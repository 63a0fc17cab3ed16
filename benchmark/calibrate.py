"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same work can take 30% longer from one second to
the next.  The run therefore times a fixed probe before and after every
item: numpy calls on short vectors and Python object and call overhead, the
kinds of work that dominate the package's run time.  An item's time is
reported scaled by NOMINAL_MS / (mean of the two probes around it), that is,
as it would read on a machine where the probe takes NOMINAL_MS.  The probe
uses numpy and the standard library only, so a change to the package cannot
move it.  Scaling by the adjacent probes, rather than by the probes of the
surrounding second, halved the spread of the latency tail between runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Median probe time on the machine the benchmark was defined on (2 cores,
# Python 3.11, numpy 2.4, one BLAS thread).
NOMINAL_MS = 4.5

_C = np.linspace(-1.0, 1.0, 16)
_U = np.linspace(0.5, -1.5, 16)


@dataclass(frozen=True)
class _Row:
    lower: float
    upper: float


def probe() -> float:
    acc = 0.0
    for _ in range(160):
        order = np.argsort(_C, kind="stable")
        e = np.exp(_U[order] - 1.0)
        acc += float(np.cumsum(_C[order] * e)[-1] / e.sum())
    rows = [_Row(float(i), float(i) + 0.5) for i in range(2500)]
    acc += sum(r.upper - r.lower for r in rows if r.lower >= 0.0)
    return acc


class Calibration:
    """Every probe time of one run, in order."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []

    def sample(self) -> int:
        t0 = time.perf_counter_ns()
        probe()
        ns = time.perf_counter_ns() - t0
        self.samples_ns.append(ns)
        return ns

    @staticmethod
    def scale(before_ns: int, after_ns: int) -> float:
        """Factor that turns a time measured between two probes into one at
        nominal speed."""
        return NOMINAL_MS * 2e6 / (before_ns + after_ns)
