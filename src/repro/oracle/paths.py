"""The oracle's execution-path matrix.

Paths are discovered from the cycle-kernel specialization registry
(:data:`repro.sim.cycle_kernel.SPECIALIZATIONS`) rather than
hard-coded: every registered run-loop specialization must have a
*family* binding here.  The chip and per-SM families expand into the
classic four variants:

========== ==========================================================
variant    what runs
========== ==========================================================
fused      the compiled run loop, fast-forward on (the reference)
fused-noff the compiled run loop with fast-forward disabled
method     a hand-written reference loop stepping ``SM.cycle_once``
           and ``MemorySubsystem.cycle`` -- the other two compiled
           specializations -- one cycle at a time
fused-debug the compiled run loop with ``debug_counters`` on every
           SM, so each sample re-derives the incremental counters
           from a full scan and raises on mismatch
========== ==========================================================

The vector family (the vectorized busy-slot backend) has its own
variants -- see :data:`FAMILY_VARIANTS` -- diffing ``VectorGPU``
against the plain fused chip loop in three modes (bursts live,
fast-forward off, debug counters on).

All variants of a family must produce bit-identical
:class:`~repro.sim.results.RunResult` payloads.  Families are *not*
compared to each other: the chip loop records epochs on the SM-cycle
axis and the per-SM-VRM loop on the tick axis, so their results
legitimately differ.

The method-path loops in this module intentionally mirror the
*semantics* of the fused skeletons (tick structure, service-order
rotation, epoch axis) while taking none of their shortcuts: no
fast-forward, no idle parking, no inline memory-cycle specialization.
Divergence between them and the compiled loops is exactly what the
oracle exists to catch.
"""

from typing import Dict, List, Optional

from ..config import EqualizerConfig, GPUConfig, SimConfig
from ..errors import OracleError, SimulationError
from ..sim.cycle_kernel import SPECIALIZATIONS
from ..sim.gpu import GPU
from ..sim.multikernel import MultiKernelWorkload
from ..sim.per_sm_vrm import (PerSMEqualizerController, PerSMVRMGPU,
                              compute_energy_per_sm)
from ..sim.results import RunResult
from ..sim.sm import SM
from ..workloads.spec import KernelSpec, SyntheticWorkload
from .generate import OracleCase

#: run-loop specialization tag -> oracle family.  A run-loop tag added
#: to SPECIALIZATIONS without a binding here makes discover_families()
#: raise, which tests/test_oracle.py turns into a failing test: new
#: compiled paths must join the oracle matrix.
LOOP_FAMILIES = {
    "chip-loop": "chip",
    "per-sm-loop": "per-sm",
    "vector-loop": "vector",
}

#: Per-family variants; "fused" is the reference each other variant is
#: diffed against.
VARIANTS = ("fused", "fused-noff", "method", "fused-debug")
REFERENCE_VARIANT = "fused"

#: The vector family diffs the vectorized busy-slot backend against
#: the fused chip loop it claims bit-identity with: "fused" is the
#: plain chip fused path, "vector" the VectorGPU run loop with span
#: bursts live, "vector-noff" the same with chip fast-forward disabled
#: (so burst-parked SMs meet the catch-up path instead of the
#: calendar), and "vector-debug" with ``debug_counters`` on every SM,
#: which re-derives the incremental counters from a full scan at each
#: sample *and* after every burst resync.
FAMILY_VARIANTS = {
    "chip": VARIANTS,
    "per-sm": VARIANTS,
    "vector": ("fused", "vector", "vector-noff", "vector-debug"),
}


def variants_for(family: str):
    """The variant tuple of a family (classic four unless overridden)."""
    return FAMILY_VARIANTS.get(family, VARIANTS)


def discover_families() -> Dict[str, List[str]]:
    """family -> run-loop tags, derived from the specialization registry.

    Raises :class:`OracleError` if a registered run-loop
    specialization has no family binding -- the guard that keeps the
    path matrix in lock-step with the compiled paths.
    """
    families: Dict[str, List[str]] = {}
    for tag, spec in SPECIALIZATIONS.items():
        if spec["kind"] != "run-loop":
            continue
        family = LOOP_FAMILIES.get(tag)
        if family is None:
            raise OracleError(
                f"run-loop specialization {tag!r} has no oracle family "
                f"binding; add it to repro.oracle.paths.LOOP_FAMILIES "
                f"so the differential oracle covers it")
        families.setdefault(family, []).append(tag)
    return families


def all_paths() -> List[str]:
    """Every path id, e.g. ``chip:fused``, ``vector:vector``."""
    return [f"{family}:{variant}"
            for family in sorted(discover_families())
            for variant in variants_for(family)]


def split_path(path_id: str):
    """``"chip:method"`` -> ``("chip", "method")``, validated."""
    if ":" not in path_id:
        raise OracleError(f"malformed path id {path_id!r}")
    family, variant = path_id.split(":", 1)
    if (family not in discover_families()
            or variant not in variants_for(family)):
        raise OracleError(
            f"unknown path {path_id!r}; known: {all_paths()}")
    return family, variant


# ----------------------------------------------------------------------
# Case -> simulator objects
# ----------------------------------------------------------------------
def build_sim(case: OracleCase) -> SimConfig:
    """The SimConfig a case describes."""
    gpu = GPUConfig(
        sm_count=case.sm_count,
        lsu_queue_depth=case.lsu_queue_depth,
        mshr_entries=case.mshr_entries,
        memory_ingress_depth=case.memory_ingress_depth,
        dram_queue_depth=case.dram_queue_depth,
        l1_sets=case.l1_sets,
        l2_sets=case.l2_sets,
        dram_bytes_per_cycle=case.dram_bytes_per_cycle,
    )
    eq = EqualizerConfig(
        sample_interval=case.sample_interval,
        epoch_cycles=case.epoch_cycles,
    )
    # Generous relative to the tiny workloads (tens of thousands of
    # cycles): a legitimate run never gets near it, so hitting it is a
    # real finding rather than an expected failure mode.
    return SimConfig(gpu=gpu, equalizer=eq, max_ticks=2_000_000,
                     seed=case.seed)


def _kernel_spec(k) -> KernelSpec:
    from ..workloads.program import Phase
    return KernelSpec(
        name=k.name,
        category="compute",
        wcta=k.wcta,
        max_blocks=k.max_blocks,
        total_blocks=k.total_blocks,
        iterations=k.iterations,
        dep_latency=k.dep_latency,
        barrier_interval=k.barrier_interval,
        phases=tuple(Phase(
            fraction=p.fraction,
            alu_per_mem=p.alu_per_mem,
            txns=p.txns,
            ws_lines=p.ws_lines,
            shared_ws=p.shared_ws,
            store_fraction=p.store_fraction,
            texture=p.texture,
            alu_jitter=p.alu_jitter,
            stream_fraction=p.stream_fraction,
        ) for p in k.phases),
    )


def build_case_workload(case: OracleCase):
    """The runnable workload of a case (multikernel when >1 kernel)."""
    specs = [_kernel_spec(k) for k in case.kernels]
    if len(specs) == 1:
        return SyntheticWorkload(specs[0], seed=case.seed)
    if case.sm_count < len(specs):
        raise OracleError(
            f"case {case.seed}: {len(specs)} kernels need at least "
            f"{len(specs)} SMs, have {case.sm_count}")
    base = case.sm_count // len(specs)
    extra = case.sm_count % len(specs)
    assignments = []
    next_sm = 0
    for i, spec in enumerate(specs):
        width = base + (1 if i < extra else 0)
        assignments.append(
            (spec, list(range(next_sm, next_sm + width))))
        next_sm += width
    return MultiKernelWorkload(assignments, seed=case.seed)


def make_case_controller(case: OracleCase, family: str,
                         sim: SimConfig):
    """A fresh controller instance for one path run."""
    key = list(case.controller)
    kind = key[0]
    if kind == "baseline":
        return None
    if kind == "equalizer":
        mode = key[1]
        if family == "per-sm":
            return PerSMEqualizerController(mode, config=sim.equalizer)
        from ..core.equalizer import EqualizerController
        return EqualizerController(mode, config=sim.equalizer)
    if kind == "static":
        from ..baselines.static import StaticController
        _, sm_vf, mem_vf, blocks = key
        return StaticController(sm_vf=sm_vf, mem_vf=mem_vf,
                                blocks=blocks)
    if kind == "ccws":
        # Installs sm.hooks, exercising the guarded miss hook site.
        from ..baselines.ccws import CCWSController
        return CCWSController()
    if kind == "dyncta":
        # Drives occupancy (set_target_blocks), so block launch/retire
        # churn exercises the GWDE fragments.
        from ..baselines.dyncta import DynCTAController
        return DynCTAController()
    raise OracleError(f"unknown oracle controller key {key!r}")


# ----------------------------------------------------------------------
# Method-path reference loops
# ----------------------------------------------------------------------
class _MethodDispatchSM(SM):
    """An SM whose block launch/retire use the GWDE reference API.

    The production :class:`~repro.sim.sm.SM` compiles both paths from
    the GWDE-axis fragments of :mod:`repro.sim.cycle_kernel`; this
    subclass rewrites them as plain ``request``/``notify_done`` method
    dispatch, so every method path diffs the inlined fragments against
    the reference API they claim identity with.
    """

    __slots__ = ()

    def ensure_blocks(self):
        while len(self.blocks) < self.target_blocks:
            if self.paused_blocks:
                self._unpause_one()
                continue
            factory = self.gpu.gwde.request(self.sm_id)
            if factory is None:
                break
            self._launch_block(factory)

    def _block_finished(self, block):
        if block.paused:
            self.paused_blocks.remove(block)
        else:
            blocks = self.blocks
            idx = blocks.index(block)
            last = blocks.pop()
            if idx < len(blocks):
                blocks[idx] = last
        self.gpu.gwde.notify_done()
        self.ensure_blocks()
        if (self._counted_busy and not self.blocks
                and not self.paused_blocks):
            self._counted_busy = False
            self.gpu.busy_sm_count -= 1


class MethodPathGPU(GPU):
    """Chip-wide GPU stepping the compiled method entry points.

    Mirrors the fused chip loop's semantics -- one shared SM clock
    domain, cycle-major iteration, per-tick service-order rotation,
    epochs on the SM-cycle axis -- but executes every cycle through
    ``SM.cycle_once`` / ``MemorySubsystem.cycle`` with no fast-forward,
    no idle parking, and no inline memory specialization.  Its SMs
    launch and retire blocks through the GWDE reference API rather
    than the inlined fragments.
    """

    sm_class = _MethodDispatchSM

    def _cycle_loop(self, workload):
        start_tick = self.tick
        interval = self.sim.equalizer.sample_interval
        epoch_cycles = self.sim.equalizer.epoch_cycles
        max_ticks = self.sim.max_ticks
        sms = self.sms
        nsms = len(sms)
        sm_domain = self.sm_domain
        mem_domain = self.mem_domain
        memory = self.memory
        gwde = self.gwde
        while not gwde.drained or self.busy_sm_count:
            if self.tick >= max_ticks:
                raise SimulationError(
                    f"{workload.name}: exceeded max_ticks={max_ticks}")
            tick = self.tick + 1
            self.tick = tick
            n = sm_domain.advance()
            s = tick % nsms
            order = sms[s:] + sms[:s]
            for _ in range(n):
                for sm in order:
                    sm.cycle_once(interval)
            for _ in range(mem_domain.advance()):
                memory.cycle()
            while sm_domain.cycles >= self._next_epoch_cycle:
                self._handle_epoch()
                self._next_epoch_cycle += epoch_cycles
        ticks = self.tick - start_tick
        self._invocation_ticks.append(ticks)
        return ticks


class MethodPathPerSMVRMGPU(PerSMVRMGPU):
    """Per-SM-VRM GPU stepping the compiled method entry points.

    Mirrors the fused per-SM loop's semantics -- a private clock domain
    per SM, SM-major iteration, epochs on the tick axis -- with the
    same shortcuts removed as :class:`MethodPathGPU`.
    """

    sm_class = _MethodDispatchSM

    def _cycle_loop(self, workload):
        start_tick = self.tick
        interval = self.sim.equalizer.sample_interval
        epoch_cycles = self.sim.equalizer.epoch_cycles
        max_ticks = self.sim.max_ticks
        sms = self.sms
        nsms = len(sms)
        domains = self.sm_domains
        mem_domain = self.mem_domain
        memory = self.memory
        gwde = self.gwde
        while not gwde.drained or self.busy_sm_count:
            if self.tick >= max_ticks:
                raise SimulationError(
                    f"{workload.name}: exceeded max_ticks={max_ticks}")
            tick = self.tick + 1
            self.tick = tick
            start = tick % nsms
            for k in range(nsms):
                i = start + k
                if i >= nsms:
                    i -= nsms
                sm = sms[i]
                for _ in range(domains[i].advance()):
                    sm.cycle_once(interval)
            for _ in range(mem_domain.advance()):
                memory.cycle()
            while self.tick * 1.0 >= self._next_epoch_cycle:
                self._handle_epoch()
                self._next_epoch_cycle += epoch_cycles
        ticks = self.tick - start_tick
        self._invocation_ticks.append(ticks)
        return ticks


# ----------------------------------------------------------------------
# Running one (case, path)
# ----------------------------------------------------------------------
_CHIP_CLASSES = {"method": MethodPathGPU}
_PER_SM_CLASSES = {"method": MethodPathPerSMVRMGPU}

def _run_vector_variant(case: OracleCase, variant: str, sim: SimConfig,
                        workload, controller) -> RunResult:
    """One vector-family path: fused reference or a VectorGPU mode.

    ``fused`` runs the plain chip fused loop -- the exact path the
    vectorized backend claims bit-identity with -- so the family's
    within-family diffs are vector-vs-scalar by construction.  Without
    numpy VectorGPU *is* the chip loop and every variant collapses to
    the reference, which is precisely the fallback contract the
    numpy-absent CI job pins.
    """
    from ..power.energy_model import compute_energy
    from ..sim.vector import VectorGPU
    if variant == "fused":
        gpu = GPU(sim, controller=controller)
    else:
        gpu = VectorGPU(sim, controller=controller)
        if variant == "vector-noff":
            gpu.enable_fast_forward = False
        elif variant == "vector-debug":
            for sm in gpu.sms:
                sm.debug_counters = True
    return compute_energy(gpu.run(workload), sim.power, sim.gpu)


def run_case_path(case: OracleCase, path_id: str,
                  sim: Optional[SimConfig] = None) -> RunResult:
    """Run one case through one path; return its full RunResult.

    Every field of the result -- including ``seconds`` and the energy
    breakdown, which are derived from deterministic tick counts, not
    wall clock -- is a pure function of (case, path), so results are
    diffable bit for bit.
    """
    family, variant = split_path(path_id)
    if sim is None:
        sim = build_sim(case)
    workload = build_case_workload(case)
    controller = make_case_controller(case, family, sim)
    if family == "vector":
        return _run_vector_variant(case, variant, sim, workload,
                                   controller)
    if family == "chip":
        cls = _CHIP_CLASSES.get(variant, GPU)
    else:
        cls = _PER_SM_CLASSES.get(variant, PerSMVRMGPU)
    gpu = cls(sim, controller=controller)
    if variant == "fused-noff":
        gpu.enable_fast_forward = False
    elif variant == "fused-debug":
        for sm in gpu.sms:
            sm.debug_counters = True
    result = gpu.run(workload)
    if family == "chip":
        from ..power.energy_model import compute_energy
        return compute_energy(result, sim.power, sim.gpu)
    return compute_energy_per_sm(gpu, result)
