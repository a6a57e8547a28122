"""Top-level GPU: SMs, memory system, clock domains, and the run loop.

The GPU advances a global base tick (one nominal SM cycle of wall
clock).  The SM and memory clock domains execute a rate-scaled number
of cycles per tick, so changing a domain's VF state speeds up or slows
down exactly that domain, never wall-clock bookkeeping.

The run loop itself (:attr:`GPU._cycle_loop`) is compiled at import
time from the templates in :mod:`repro.sim.cycle_kernel`; it carries
the guarded call a controller's per-miss instrumentation needs, so
hooked (CCWS) and unhooked runs execute the same loop.  The setup
that precedes it (GWDE construction, kernel preparation, controller
notification) lives in :meth:`GPU.run_invocation`.

The loop carries three cross-cutting responsibilities:

* **Epoch bookkeeping** -- every ``epoch_cycles`` SM cycles it reads
  each SM's counter accumulators, appends an :class:`EpochRecord`, and
  gives the attached runtime controller its decision slot.
* **Power segmentation** -- activity counters are snapshotted whenever
  the operating point changes, producing the segments the energy model
  integrates.
* **Quiescent fast-forward** -- when every SM is stalled on outstanding
  memory and the memory system has no queued work, the loop jumps to
  the next event (bounded by the next sample/epoch boundary) instead of
  spinning empty cycles.

Two pieces of cached state keep the idle checks O(1) per tick:
``busy_sm_count`` counts SMs with resident blocks (maintained by the
SMs at launch/retire), replacing the per-tick ``any(sm.busy())`` scan;
and ``_ff_blocked`` remembers that a fast-forward attempt failed, so
the per-SM quiescence scan re-runs only after an event that could
change the answer (a warp wake, a block launch/unpause, or a memory
response delivery) clears the flag.  Fast-forwarding never changes
results -- the skipped cycles are provably empty -- so it can be
switched off (:attr:`GPU.enable_fast_forward`) to cross-check a run.
"""

import gc

from ..config import SimConfig, VF_NORMAL, VF_STATES, vf_ratio
from ..errors import SimulationError
from .clock import ClockDomain
from .cycle_kernel import build
from .gwde import GWDE
from .memory import MemorySubsystem
from .results import EpochRecord, KernelResult, RunResult, Segment
from .sm import SM


class GPU:
    """The simulated GPU."""

    #: The SM class instantiated by ``__init__``.  The differential
    #: oracle's method-dispatch reference substitutes an SM subclass
    #: whose block launch/retire go through the ``GWDE.request`` /
    #: ``notify_done`` reference API instead of the inlined fragments.
    sm_class = SM

    def __init__(self, sim: SimConfig, controller=None) -> None:
        self.sim = sim
        self.cfg = sim.gpu
        self.controller = controller
        self.sm_domain = ClockDomain("sm")
        self.mem_domain = ClockDomain("mem")
        #: SMs with at least one resident (active or paused) block;
        #: maintained by the SMs themselves at launch and retirement.
        self.busy_sm_count = 0
        #: True while fast-forward is known to be impossible; cleared
        #: by any event that could make an SM quiescent span end.
        self._ff_blocked = False
        #: Debug/verification switch: with fast-forward off the loop
        #: executes every cycle explicitly.  Results are identical
        #: either way (the property tests assert this); only wall
        #: clock differs.
        self.enable_fast_forward = True
        self._sample_interval = sim.equalizer.sample_interval
        # The memory system is built before the SMs so each SM can bind
        # direct references to it (the LSU miss path is hot).
        self.memory = MemorySubsystem(self.cfg, self._deliver)
        self.sms = [self.sm_class(i, self.cfg, self)
                    for i in range(self.cfg.sm_count)]
        self.gwde = GWDE([])
        self.tick = 0
        self.sm_vf = VF_NORMAL
        self.mem_vf = VF_NORMAL
        self._block_id = 0
        self._segments = []
        self._seg_start_tick = 0
        self._seg_instr = 0
        self._seg_l2 = 0
        self._seg_dram = 0
        self._epochs = []
        self._next_epoch_cycle = sim.equalizer.epoch_cycles
        self._epoch_index = 0
        self._invocation = 0
        self._invocation_ticks = []
        if controller is not None:
            controller.attach(self)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _deliver(self, sm_id: int, line: int, kind: int) -> None:
        self._ff_blocked = False
        sm = self.sms[sm_id]
        # A parked SM lags its clock domain; replay the provably idle
        # span before it observes the fill.
        lag = self.sm_domain.cycles - sm.cycle
        if lag > 0:
            sm.skip_cycles(lag, self._sample_interval)
        sm.receive_fill(line, kind)

    def next_block_id(self) -> int:
        self._block_id += 1
        return self._block_id

    def total_instructions(self) -> int:
        return sum(sm.insts_issued for sm in self.sms)

    # ------------------------------------------------------------------
    # VF management
    # ------------------------------------------------------------------
    def set_vf(self, sm_vf=None, mem_vf=None) -> None:
        """Move to a new operating point; closes the power segment."""
        new_sm = self.sm_vf if sm_vf is None else sm_vf
        new_mem = self.mem_vf if mem_vf is None else mem_vf
        if new_sm not in VF_STATES or new_mem not in VF_STATES:
            raise SimulationError(f"invalid VF state ({new_sm}, {new_mem})")
        if new_sm == self.sm_vf and new_mem == self.mem_vf:
            return
        self._close_segment()
        self.sm_vf = new_sm
        self.mem_vf = new_mem
        step = self.cfg.vf_step
        self.sm_domain.set_rate(vf_ratio(new_sm, step))
        self.mem_domain.set_rate(vf_ratio(new_mem, step))

    def _close_segment(self) -> None:
        ticks = self.tick - self._seg_start_tick
        instr = self.total_instructions()
        l2 = self.memory.l2_txns
        dram = self.memory.dram_txns
        if ticks > 0:
            self._segments.append(Segment(
                sm_vf=self.sm_vf, mem_vf=self.mem_vf, ticks=ticks,
                instructions=instr - self._seg_instr,
                l2_txns=l2 - self._seg_l2,
                dram_txns=dram - self._seg_dram))
        self._seg_start_tick = self.tick
        self._seg_instr = instr
        self._seg_l2 = l2
        self._seg_dram = dram

    # ------------------------------------------------------------------
    # Epoch handling
    # ------------------------------------------------------------------
    def _handle_epoch(self) -> None:
        per_sm = [sm.read_epoch() for sm in self.sms]
        n = len(per_sm)
        blocks = sum(len(sm.blocks) for sm in self.sms) / n
        self._epoch_index += 1
        self._epochs.append(EpochRecord(
            index=self._epoch_index,
            invocation=self._invocation,
            tick=self.tick,
            sm_cycle=self.sm_domain.cycles,
            active=sum(t[0] for t in per_sm) / n,
            waiting=sum(t[1] for t in per_sm) / n,
            xmem=sum(t[2] for t in per_sm) / n,
            xalu=sum(t[3] for t in per_sm) / n,
            blocks=blocks,
            sm_vf=self.sm_vf,
            mem_vf=self.mem_vf))
        if self.controller is not None:
            self.controller.on_epoch(self, per_sm)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run_invocation(self, workload, invocation: int) -> int:
        """Run one kernel invocation to completion; return its ticks.

        Workloads may optionally provide ``make_gwde(invocation)`` and
        per-SM geometry (``wcta_for_sm`` / ``max_blocks_for_sm``) to run
        different kernels on disjoint SM partitions (Section I's
        concurrent-kernel scenario, :mod:`repro.sim.multikernel`).
        """
        self._invocation = invocation
        make_gwde = getattr(workload, "make_gwde", None)
        if make_gwde is not None:
            self.gwde = make_gwde(invocation)
        else:
            self.gwde = GWDE(workload.block_factories(invocation))
        wcta = workload.wcta(invocation)
        max_blocks = workload.max_blocks(invocation)
        wcta_for_sm = getattr(workload, "wcta_for_sm", None)
        blocks_for_sm = getattr(workload, "max_blocks_for_sm", None)
        for sm in self.sms:
            sm.prepare_kernel(
                wcta_for_sm(invocation, sm.sm_id) if wcta_for_sm
                else wcta,
                blocks_for_sm(invocation, sm.sm_id) if blocks_for_sm
                else max_blocks)
        if self.controller is not None:
            self.controller.on_invocation_start(self, invocation)
        for sm in self.sms:
            sm.ensure_blocks()
        return self._cycle_loop(workload)

    #: The fused chip-wide run loop, compiled from
    #: :mod:`repro.sim.cycle_kernel`.  Subclasses with different
    #: clocking (per-SM VRMs) or a burst gate (vector) install their
    #: own specializations of the same templates.
    _cycle_loop = build("chip-loop")

    def _fast_forward(self, interval: int) -> bool:
        """Jump toward the next event; True if any ticks were skipped."""
        cur_cycle = self.sm_domain.cycles
        wake = None
        for sm in self.sms:
            w = sm.next_wake_cycle()
            if w is not None and (wake is None or w < wake):
                wake = w
        resp = self.memory.next_event_cycle()
        if wake is None and resp is None:
            # Nothing can ever happen again: either we are done (caller
            # checks) or the workload deadlocked.
            raise SimulationError("GPU deadlock: no pending events")
        # Never skip past the next epoch boundary; per-SM sampling inside
        # skip_cycles handles ordinary sample boundaries.
        target = self._next_epoch_cycle
        if wake is not None and wake < target:
            target = wake
        ticks = None
        if target > cur_cycle:
            ticks = int((target - cur_cycle - 2) / self.sm_domain.rate)
        if resp is not None:
            dt_mem = resp - self.memory.cycle_count
            t2 = int((dt_mem - 2) / self.mem_domain.rate)
            if ticks is None or t2 < ticks:
                ticks = t2
        if ticks is None or ticks < 2:
            return False
        self.tick += ticks
        self.sm_domain.advance_many(ticks)
        c = self.sm_domain.cycles
        for sm in self.sms:
            # Catch-up form: parked SMs lag the domain, so skip each SM
            # to the domain clock rather than by a fixed amount.  The
            # vectorized loop can also leave an SM *ahead* of the
            # domain (a burst executed its future cycles already), so
            # a non-positive lag must not replay anything.
            lag = c - sm.cycle
            if lag > 0:
                sm.skip_cycles(lag, interval)
        m = self.mem_domain.advance_many(ticks)
        self.memory.skip_cycles(m)
        return True

    def run(self, workload) -> KernelResult:
        """Run every invocation of a workload; return the kernel result."""
        for inv in range(workload.invocations):
            self.run_invocation(workload, inv)
        self._close_segment()
        if self.controller is not None:
            self.controller.on_run_end(self)
        return self._collect(workload.name)

    def _collect(self, name: str) -> KernelResult:
        res = KernelResult(kernel=name)
        res.ticks = self.tick
        for sm in self.sms:
            res.instructions += sm.insts_issued
            res.alu_instructions += sm.alu_issued
            res.mem_instructions += sm.mem_issued
            res.loads += sm.loads_issued
            res.stores += sm.stores_issued
            res.blocks_run += sm.blocks_run
            res.l1_hits += sm.l1.hits
            res.l1_misses += sm.l1.misses
            res.tot_active += sm.tot_active
            res.tot_waiting += sm.tot_waiting
            res.tot_xmem += sm.tot_xmem
            res.tot_xalu += sm.tot_xalu
            res.tot_samples += sm.tot_samples
        res.l2_hits = self.memory.l2.hits
        res.l2_misses = self.memory.l2.misses
        res.l2_txns = self.memory.l2_txns
        res.dram_txns = self.memory.dram_txns
        res.invocation_ticks = list(self._invocation_ticks)
        res.epochs = list(self._epochs)
        res.segments = list(self._segments)
        return res


def run_kernel(workload, sim: SimConfig, controller=None,
               gpu_class=None) -> RunResult:
    """Simulate a workload and attach energy figures.

    This is the main entry point used by examples, tests, and the
    experiment harnesses.  By default it executes through the
    vectorized busy-slot backend (:mod:`repro.sim.vector`) when numpy
    is importable and through the scalar chip loop otherwise; the two
    are bit-identical (the vector oracle family and the golden digests
    pin this), so the choice is pure throughput.  Pass ``gpu_class``
    to force a specific executor (the tests do, to pin the scalar
    and vector loops against the same goldens).
    """
    from ..power.energy_model import compute_energy
    if gpu_class is None:
        from .vector import default_gpu_class
        gpu_class = default_gpu_class()
    gpu = gpu_class(sim, controller=controller)
    # The cycle loop allocates heavily (accesses, response buckets,
    # blocks and warps), but retirement frees a block and its warps by
    # reference counting, and the only cycle left (the GPU <-> SM
    # graph) lives for the whole run, so collector passes during the
    # run only burn time.  Suspend the GC for the simulation and
    # restore the caller's setting after.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        result = gpu.run(workload)
    finally:
        if gc_was_enabled:
            gc.enable()
    return compute_energy(result, sim.power, sim.gpu)
