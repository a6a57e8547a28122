"""Object lifetime: a run's heap holds only the warps still resident.

A retired thread block is freed at retirement, as a CTA's registers
are on the hardware, so the live ``Warp`` objects at any epoch are
bounded by the resident capacity of the chip, not by the number of
warps the kernel launches over the whole run.
"""

import gc

from repro.baselines import CCWSController
from repro.core.controller import Controller
from repro.experiments.common import default_sim
from repro.sim.gpu import run_kernel
from repro.sim.warp import Warp
from repro.workloads import build_workload
from repro.workloads.suite import kernel_by_name

#: Many small blocks: bfs-2 launches far more warps than fit at once.
KERNEL = "bfs-2"
SCALE = 0.01


def live_warps() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Warp)


class CountsWarps:
    """Mixin: count live warps after each epoch step of the controller."""

    def attach(self, gpu):
        super().attach(gpu)
        self.gpu = gpu
        self.counts = []

    def on_epoch(self, gpu, per_sm):
        # CCWS prunes its per-warp state here, before the count.
        super().on_epoch(gpu, per_sm)
        self.counts.append(live_warps())


class WarpCounter(CountsWarps, Controller):
    pass


class CCWSWarpCounter(CountsWarps, CCWSController):
    pass


def assert_bounded_by_resident_capacity(controller):
    sim = default_sim()
    workload = build_workload(kernel_by_name(KERNEL), scale=SCALE,
                              seed=sim.seed)
    # Start from a heap without stale warps of earlier runs.
    gc.collect()
    run_kernel(workload, sim, controller=controller)
    cfg = sim.gpu
    bound = cfg.sm_count * cfg.max_warps_per_sm
    launched = sum(sm.blocks_run for sm in controller.gpu.sms) * \
        workload.spec.wcta
    assert launched > 4 * bound, "kernel too small to test lifetimes"
    assert len(controller.counts) > 1
    assert max(controller.counts) <= bound, (
        f"{max(controller.counts)} live warps, resident capacity "
        f"{bound}: retired blocks are kept alive")


def test_retired_blocks_are_freed():
    assert_bounded_by_resident_capacity(WarpCounter())


def test_ccws_drops_retired_warps_by_next_epoch():
    assert_bounded_by_resident_capacity(CCWSWarpCounter())
