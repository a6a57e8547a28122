"""Shared fixtures and miniature configurations for the test suite.

Simulation tests run on a shrunken GPU (few SMs, short epochs) and tiny
synthetic kernels so the whole suite stays fast while still exercising
the real machinery end to end.
"""

import os
import signal
import time

from repro.config import EqualizerConfig, GPUConfig, PowerConfig, SimConfig
from repro.workloads import KernelSpec, Phase, build_workload


def tiny_gpu(**overrides) -> GPUConfig:
    """A small GPU: 4 SMs with proportionally scaled shared resources.

    DRAM bandwidth and L2 capacity shrink with the SM count so the
    contention regimes (bandwidth saturation, L2 overflow) stay
    reachable by tiny workloads.
    """
    base = dict(sm_count=4, dram_bytes_per_cycle=68.0, l2_sets=200)
    base.update(overrides)
    return GPUConfig(**base)


def tiny_equalizer(**overrides) -> EqualizerConfig:
    """Short epochs so controllers act within tiny kernels."""
    base = dict(sample_interval=16, epoch_cycles=256)
    base.update(overrides)
    return EqualizerConfig(**base)


def tiny_sim(**overrides) -> SimConfig:
    gpu = overrides.pop("gpu", tiny_gpu())
    eq = overrides.pop("equalizer", tiny_equalizer())
    power = overrides.pop("power", PowerConfig())
    return SimConfig(gpu=gpu, equalizer=eq, power=power, **overrides)


def compute_spec(**overrides) -> KernelSpec:
    """A small, clearly compute-bound kernel."""
    base = dict(
        name="t-compute", category="compute", wcta=4, max_blocks=4,
        total_blocks=16, iterations=10, dep_latency=3,
        phases=(Phase(alu_per_mem=30, ws_lines=8, shared_ws=True),))
    base.update(overrides)
    return KernelSpec(**base)


def memory_spec(**overrides) -> KernelSpec:
    """A small, clearly bandwidth-bound streaming kernel."""
    base = dict(
        name="t-memory", category="memory", wcta=8, max_blocks=4,
        total_blocks=16, iterations=20, dep_latency=6,
        phases=(Phase(alu_per_mem=3, txns=1, ws_lines=0),))
    base.update(overrides)
    return KernelSpec(**base)


def cache_spec(**overrides) -> KernelSpec:
    """A small kernel that thrashes the L1 at full concurrency."""
    base = dict(
        name="t-cache", category="cache", wcta=8, max_blocks=4,
        total_blocks=16, iterations=40, dep_latency=6,
        phases=(Phase(alu_per_mem=3, txns=2, ws_lines=10),))
    base.update(overrides)
    return KernelSpec(**base)


def tiny_workload(spec=None, seed=7):
    return build_workload(spec or compute_spec(), seed=seed)


def live_group_members(pgid: int):
    """Pids of the not-yet-dead processes in process group ``pgid``.

    Zombies are dead already (only their exit status is left for a
    parent to collect), so they do not count.
    """
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp.
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def kill_process_group(pgid: int, timeout_s: float = 10.0):
    """SIGKILL a whole process group; return its members still alive.

    Tests that SIGKILL a subprocess spawned with
    ``start_new_session=True`` call this afterwards, so the pool
    workers the dead leader left behind die with it.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return []
    deadline = time.monotonic() + timeout_s
    while True:
        alive = live_group_members(pgid)
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)
