"""Coarse cycle-level GPU simulator substrate.

This subpackage implements, from scratch, everything the Equalizer
runtime needs to observe and act on: streaming multiprocessors with a
warp scheduler and finite load/store queueing, per-SM L1 data caches, a
shared L2, a bandwidth-limited DRAM with queueing back-pressure, a
global work distribution engine, and independently clocked SM/memory
frequency domains.
"""

from .clock import ClockDomain
from .gpu import GPU, run_kernel, run_workload
from .per_sm_vrm import (PerSMEqualizerController, PerSMVRMGPU,
                         run_kernel_per_sm_vrm)
from .results import RunResult, KernelResult

__all__ = [
    "ClockDomain",
    "GPU",
    "run_kernel",
    "run_workload",
    "PerSMVRMGPU",
    "PerSMEqualizerController",
    "run_kernel_per_sm_vrm",
    "RunResult",
    "KernelResult",
]
