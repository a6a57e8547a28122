"""Per-SM voltage regulators: the extension Section V-A1 sketches.

The paper assumes one chip-wide SM voltage regulator because per-SM
VRMs "may be prohibitive" in cost, and notes that with concurrent
kernels of different needs "per SM VRMs should be used".  This module
implements that alternative as a drop-in GPU variant:

* every SM owns its own clock domain and VF state;
* Equalizer decisions apply *locally* -- no majority vote, each SM's
  CompAction/MemAction moves its own frequency one step per epoch
  (the memory domain stays chip-wide, as it physically must);
* power accounting keeps per-SM segments so leakage, clock power and
  dynamic energy follow each SM's own voltage.

Even with a single kernel this pays off whenever SMs diverge: in a
load-imbalanced kernel (prtcl-2) the idle SMs can sit at low voltage
while the straggler boosts, which a chip-wide regulator cannot do.
"""

from typing import List

from ..config import (SimConfig, VF_HIGH, VF_LOW, VF_NORMAL, VF_STATES,
                      vf_ratio)
from ..errors import SimulationError
from .clock import ClockDomain
from .cycle_kernel import build
from .gpu import GPU
from .results import Segment


class PerSMVRMGPU(GPU):
    """A GPU whose SMs each have a private voltage/frequency domain.

    The base class's chip-wide ``sm_vf`` is kept as the *median* state
    for reporting; the real per-SM states live in :attr:`sm_vfs`.
    """

    def __init__(self, sim: SimConfig, controller=None) -> None:
        # Base init builds the shared domains; attach the controller
        # only after the per-SM structures exist (attach hooks may set
        # per-SM states immediately).
        super().__init__(sim, controller=None)
        n = len(self.sms)
        self.sm_domains: List[ClockDomain] = [
            ClockDomain(f"sm{i}") for i in range(n)]
        self.sm_vfs: List[int] = [VF_NORMAL] * n
        # Per-SM power segmentation (SM-domain components only).
        self._sm_seg_start = [0] * n
        self._sm_seg_instr = [0] * n
        self.sm_segments: List[List[Segment]] = [[] for _ in range(n)]
        self.controller = controller
        if controller is not None:
            controller.attach(self)

    # ------------------------------------------------------------------
    # Per-SM VF management
    # ------------------------------------------------------------------
    def set_sm_vf(self, sm_id: int, state: int) -> None:
        """Move one SM's domain; closes that SM's power segment."""
        if state not in VF_STATES:
            raise SimulationError(f"invalid VF state {state!r}")
        if state == self.sm_vfs[sm_id]:
            return
        self._close_sm_segment(sm_id)
        self.sm_vfs[sm_id] = state
        self.sm_domains[sm_id].set_rate(
            vf_ratio(state, self.cfg.vf_step))
        # Keep the chip-wide field at the median for observers.
        ordered = sorted(self.sm_vfs)
        self.sm_vf = ordered[len(ordered) // 2]

    def _close_sm_segment(self, sm_id: int) -> None:
        sm = self.sms[sm_id]
        ticks = self.tick - self._sm_seg_start[sm_id]
        if ticks > 0:
            self.sm_segments[sm_id].append(Segment(
                sm_vf=self.sm_vfs[sm_id], mem_vf=VF_NORMAL, ticks=ticks,
                instructions=sm.insts_issued - self._sm_seg_instr[sm_id],
                l2_txns=0, dram_txns=0))
        self._sm_seg_start[sm_id] = self.tick
        self._sm_seg_instr[sm_id] = sm.insts_issued

    # ------------------------------------------------------------------
    # Overridden run loop pieces
    # ------------------------------------------------------------------
    def _deliver(self, sm_id: int, line: int, kind: int) -> None:
        self._ff_blocked = False
        sm = self.sms[sm_id]
        # Parked SMs lag their *private* domain here, not the chip-wide
        # one the base class consults.
        lag = self.sm_domains[sm_id].cycles - sm.cycle
        if lag > 0:
            sm.skip_cycles(lag, self._sample_interval)
        sm.receive_fill(line, kind)

    #: The fused run loop, compiled from the same cycle-kernel
    #: templates as the base class's but specialized for this
    #: variant's clocking: a private domain per SM (SM-major
    #: iteration, since per-SM cycle counts diverge) and epochs keyed
    #: on the wall-clock tick axis.  The inherited ``run_invocation``
    #: setup applies unchanged; only the loop differs.
    _cycle_loop = build("per-sm-loop")

    def _fast_forward(self, interval: int) -> bool:
        """Jump toward the next event, with per-domain skip horizons.

        The tick budget is still the minimum over the per-SM wake
        horizons (wall clock is shared, so no domain may jump past its
        own next event), but the *skips* are per-domain and lazy: each
        private domain advances its full owed cycles and its SM stays
        parked -- no eager per-jump replay.  The SM's own consumer
        (the gate's lag catch-up, a fill delivery, the epoch boundary)
        later replays the whole accumulated span in one
        ``skip_cycles`` call, which ``skip_cycles`` additivity makes
        bit-identical.  The practical difference is that one boosted
        SM domain -- whose early wakes bound every jump -- no longer
        chops the other domains' provably idle spans into per-jump
        slivers.
        """
        ticks = None
        target_tick = self._next_epoch_cycle
        if target_tick > self.tick:
            ticks = int(target_tick - self.tick - 2)
        for sm, dom in zip(self.sms, self.sm_domains):
            wake = sm.next_wake_cycle()
            if wake is None:
                continue
            # Measure from the domain clock: a parked SM's own cycle
            # counter lags until its idle span is replayed.
            t = int((wake - dom.cycles - 2) / dom.rate)
            if ticks is None or t < ticks:
                ticks = t
        resp = self.memory.next_event_cycle()
        if resp is not None:
            t = int((resp - self.memory.cycle_count - 2)
                    / self.mem_domain.rate)
            if ticks is None or t < ticks:
                ticks = t
        if ticks is None:
            raise SimulationError("GPU deadlock: no pending events")
        if ticks < 2:
            return False
        self.tick += ticks
        for dom in self.sm_domains:
            dom.advance_many(ticks)
        self.memory.skip_cycles(self.mem_domain.advance_many(ticks))
        return True

    def _collect(self, name: str):
        for sm_id in range(len(self.sms)):
            self._close_sm_segment(sm_id)
        return super()._collect(name)


def compute_energy_per_sm(gpu: PerSMVRMGPU, result) -> "RunResult":
    """Energy for a per-SM-VRM run.

    Memory-domain and constant components come from the chip-wide
    segments (whose SM state is always nominal in this variant); the
    SM-domain components are summed from each SM's private segments,
    each carrying 1/n of the chip-wide SM static power at its own
    voltage and its own instructions at its own V^2.
    """
    from ..config import vf_ratio as _ratio
    from ..power.energy_model import EnergyModel, _COMPONENTS
    from .results import RunResult
    power = gpu.sim.power
    model = EnergyModel(power, gpu.cfg)
    tick_s = model.tick_seconds
    totals = {name: 0.0 for name in _COMPONENTS}
    for seg in result.segments:
        seconds = seg.ticks * tick_s
        bd = model.static_breakdown_w(VF_NORMAL, seg.mem_vf)
        for name in ("constant", "mem_leakage", "mem_clock",
                     "dram_standby"):
            totals[name] += bd[name] * seconds
        dyn = model.dynamic_energy_j(seg)
        totals["mem_dynamic"] += dyn["mem_dynamic"]
        totals["dram_dynamic"] += dyn["dram_dynamic"]
    n = len(gpu.sms)
    step = gpu.cfg.vf_step
    for segments in gpu.sm_segments:
        for seg in segments:
            seconds = seg.ticks * tick_s
            v = _ratio(seg.sm_vf, step)
            totals["sm_leakage"] += (power.sm_leakage_w / n) * v * seconds
            totals["sm_clock"] += ((power.sm_clock_power_w / n)
                                   * v ** 3 * seconds)
            totals["sm_dynamic"] += (seg.instructions
                                     * power.energy_per_instruction_j
                                     * v * v)
    total = sum(totals.values())
    return RunResult(result=result, seconds=result.ticks * tick_s,
                     energy_j=total, energy_breakdown=totals)


def run_kernel_per_sm_vrm(workload, sim: SimConfig,
                          controller=None) -> "RunResult":
    """Run a workload on the per-SM-VRM GPU variant."""
    gpu = PerSMVRMGPU(sim, controller=controller)
    result = gpu.run(workload)
    return compute_energy_per_sm(gpu, result)


class PerSMEqualizerController:
    """Equalizer without the majority vote: per-SM VF decisions.

    Blocks are managed exactly as in the global controller; frequency
    requests apply directly to the deciding SM's own regulator.  The
    memory domain still needs a chip-wide decision, so memory votes go
    through the usual majority.
    """

    def __init__(self, mode: str = "performance", config=None,
                 manage_blocks: bool = True) -> None:
        from ..core.equalizer import EqualizerController
        self._inner = EqualizerController(mode, config=config,
                                          manage_blocks=manage_blocks,
                                          manage_frequency=False)
        self.mode = mode
        self.config = self._inner.config

    @property
    def decisions(self):
        return self._inner.decisions

    def attach(self, gpu) -> None:
        if not isinstance(gpu, PerSMVRMGPU):
            raise SimulationError(
                "PerSMEqualizerController requires a PerSMVRMGPU")
        self._inner.attach(gpu)
        self._gpu = gpu

    def on_invocation_start(self, gpu, invocation) -> None:
        self._inner.on_invocation_start(gpu, invocation)

    def on_run_end(self, gpu) -> None:
        self._inner.on_run_end(gpu)

    def on_epoch(self, gpu, per_sm) -> None:
        from ..core.decision import decide
        from ..core.modes import comp_action, mem_action
        # Let the inner controller manage blocks (and log decisions).
        self._inner.on_epoch(gpu, per_sm)
        mem_votes_up = 0
        mem_votes_down = 0
        n = len(gpu.sms)
        for sm, (active, waiting, xmem, xalu, _idle) in zip(gpu.sms,
                                                            per_sm):
            d = decide(active, waiting, xmem, xalu, sm.wcta,
                       self.config.xmem_saturation_threshold)
            if d.tendency == "idle":
                # This is where a private regulator beats the chip-wide
                # one: an SM that ran out of work can drop its *own*
                # voltage while the stragglers keep (or raise) theirs.
                # Algorithm 1's idle arm instead votes CompAction
                # because the global design has no per-SM knob.
                cur = gpu.sm_vfs[sm.sm_id]
                if self.mode == "energy" and cur > VF_LOW:
                    gpu.set_sm_vf(sm.sm_id, cur - 1)
                elif self.mode != "energy" and cur > VF_NORMAL:
                    gpu.set_sm_vf(sm.sm_id, cur - 1)
                continue
            if d.comp_action:
                action = comp_action(self.mode)
            elif d.mem_action:
                action = mem_action(self.mode)
            else:
                continue
            # SM side: apply locally, one step toward the target.
            cur = gpu.sm_vfs[sm.sm_id]
            if action.sm_target is not None and action.sm_target != cur:
                step = 1 if action.sm_target > cur else -1
                gpu.set_sm_vf(sm.sm_id, cur + step)
            # Memory side: chip-wide majority as before.
            if action.mem_target is not None:
                if action.mem_target > gpu.mem_vf:
                    mem_votes_up += 1
                elif action.mem_target < gpu.mem_vf:
                    mem_votes_down += 1
        if mem_votes_up > n / 2.0 and gpu.mem_vf < VF_HIGH:
            gpu.set_vf(mem_vf=gpu.mem_vf + 1)
        elif mem_votes_down > n / 2.0 and gpu.mem_vf > VF_LOW:
            gpu.set_vf(mem_vf=gpu.mem_vf - 1)
