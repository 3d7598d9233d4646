"""Machine-speed calibration for the end-to-end times.

On a shared virtual machine the speed of one core drifts by 20-40% over a
few seconds, as neighbours come and go, which is more than the bounds the
benchmark must hold.  So a fixed piece of calibration work runs just before
every op, outside the op's clock, and the throughput, median and set-up
times are rescaled by how fast it ran.

The kernel is a tight loop, and in the machine's fast spells it gains more
than the ops do: on 160 runs over four workloads the ops' log-speed moved
0.3-0.9 times as far as the kernel's.  So an op's wall time is multiplied
by (REFERENCE_S / c) ** ELASTICITY, c being the median calibration time of
the ops around it; 0.65 gave the smallest spread between runs over all
workloads.  The calibration never calls the program under test, so a change
to the program moves the rescaled times exactly as it moves the wall times.
Raw wall times are reported alongside.
"""
from __future__ import annotations

import gc
import json
import statistics
from time import perf_counter

import numpy as np

# Typical calibration time on the 2-vCPU Xeon VM the bounds were set on.
REFERENCE_S = 2.5e-3
ELASTICITY = 0.65
# Calibrations on each side of an op that set its speed factor.
WINDOW = 3

_DOC = json.dumps([[i * 0.1, -i * 0.25, i / 7.0] for i in range(300)])
_M = np.arange(256, dtype=float).reshape(16, 16) / 256.0 + np.eye(16)


def calibration() -> float:
    """Wall time of fixed work mixing interpreted loops, JSON parsing and
    small dense kernels, the three kinds of work the ops do.  The garbage
    collector is paused so the program's heap does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc: dict[int, float] = {}
        for i in range(6000):
            acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        json.loads(_DOC)
        for _ in range(40):
            np.linalg.eigvalsh(_M @ _M.T)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(cals: list[float]) -> float:
    return (REFERENCE_S / statistics.median(cals)) ** ELASTICITY


def rescale(times: list[float], cals: list[float]) -> list[float]:
    """times[i] scaled by the speed factor of calibrations i-WINDOW..i+WINDOW
    (cals[i] ran just before times[i])."""
    return [t * factor(cals[max(0, i - WINDOW):i + WINDOW + 1])
            for i, t in enumerate(times)]
