"""Procedural warp programs.

A warp program is a tiny state machine the SM pulls one operation at a
time.  Its shape is the canonical GPGPU inner loop: a run of dependent
ALU instructions, then one (coalesced or scattered) memory access, with
an optional block barrier every few iterations.  Phases let a single
kernel change personality mid-execution (the paper's Figure 2b and
Figure 11b behaviours).
"""

from dataclasses import dataclass
from typing import Tuple

from ..errors import WorkloadError
from ..sim.instruction import (OP_ALU, OP_BARRIER, OP_DONE, OP_LOAD,
                               OP_STORE, OP_TEX_LOAD)
from .addresses import MixedAddresses, make_address_model
from .schedule import draw_schedules, phase_bounds

_ALU = (OP_ALU, None)
_BARRIER = (OP_BARRIER, None)
_DONE = (OP_DONE, None)


@dataclass(frozen=True)
class Phase:
    """One personality stretch of a kernel's inner loop."""

    #: Fraction of the warp's iterations spent in this phase.
    fraction: float = 1.0
    #: Mean ALU instructions between memory accesses.
    alu_per_mem: int = 4
    #: Memory transactions (cache lines) per warp access.
    txns: int = 1
    #: Private working-set size in lines; 0 means streaming.
    ws_lines: int = 0
    #: Share the working set across the block instead of per warp.
    shared_ws: bool = False
    #: Probability that a memory access is a store.
    store_fraction: float = 0.0
    #: Route loads through the deep texture path (leuko-1).
    texture: bool = False
    #: Uniform jitter (+/-) applied to alu_per_mem each iteration.
    alu_jitter: int = 0
    #: Fraction of working-set accesses replaced by streaming accesses
    #: (only meaningful when ws_lines > 0).
    stream_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise WorkloadError("phase fraction must lie in (0, 1]")
        if self.alu_per_mem < 0:
            raise WorkloadError("alu_per_mem must be >= 0")
        if not 0.0 <= self.store_fraction <= 1.0:
            raise WorkloadError("store_fraction must lie in [0, 1]")
        if self.alu_jitter < 0 or self.alu_jitter > self.alu_per_mem:
            raise WorkloadError("alu_jitter must lie in [0, alu_per_mem]")
        if not 0.0 <= self.stream_fraction <= 1.0:
            raise WorkloadError("stream_fraction must lie in [0, 1]")


class WarpProgram:
    """Instruction stream of one warp.

    Every random input of the stream (ALU-run jitter, store coin,
    mixed-address choice) is read from a precomputed draw schedule
    (:mod:`repro.workloads.schedule`), so :meth:`next_op` only walks a
    cursor: ``_i`` (iterations started), ``_j`` (ALU ops left in the
    current run), ``_emit_mem``/``_pending_barrier`` (what follows the
    run) and ``_phase_idx``.  ``schedule`` passes in a prebuilt one --
    it must be what :func:`draw_schedules` returns for these arguments.
    """

    __slots__ = ("_phases", "_iters", "_models", "_phase_idx", "_i",
                 "_phase_end", "_j", "_emit_mem", "_pending_barrier",
                 "_barrier_interval", "_codes", "_ops", "_mem",
                 "total_iterations", "dep_latency")

    def __init__(self, phases: Tuple[Phase, ...], iterations: int,
                 block_uid: int, warp_idx: int, seed: int,
                 barrier_interval: int = 0, dep_latency: int = 6,
                 schedule=None) -> None:
        if iterations < 1:
            raise WorkloadError("iterations must be >= 1")
        if not phases:
            raise WorkloadError("a program needs at least one phase")
        if dep_latency < 1:
            raise WorkloadError("dep_latency must be >= 1")
        #: Cycles before a dependent instruction can issue after an ALU
        #: instruction -- a property of the code's dependence chains.
        self.dep_latency = dep_latency
        self._phases = phases
        self.total_iterations = iterations
        self._barrier_interval = barrier_interval
        if schedule is None:
            schedule, = draw_schedules(phases, iterations, block_uid,
                                       ((warp_idx, seed),))
        self._codes = schedule
        bounds = phase_bounds(phases, iterations)
        self._models = [make_address_model(p, block_uid, warp_idx)
                        for p in phases]
        self._iters = bounds
        self._phase_idx = 0
        self._phase_end = bounds[0]
        self._ops = _mem_ops(phases[0], self._models[0])
        self._mem = None
        self._i = 0
        self._j = 0
        self._emit_mem = False
        self._pending_barrier = False

    def next_op(self):
        """Return the warp's next ``(opcode, payload)`` operation."""
        j = self._j
        if j > 0:
            self._j = j - 1
            return _ALU
        if self._emit_mem:
            self._emit_mem = False
            op, addresses = self._mem
            return (op, addresses())
        if self._pending_barrier:
            self._pending_barrier = False
            return _BARRIER
        # Start the next iteration (possibly in the next phase).
        i = self._i
        if i >= self.total_iterations:
            return _DONE
        if i >= self._phase_end:
            idx = self._phase_idx
            while i >= self._iters[idx]:
                idx += 1
            self._phase_idx = idx
            self._phase_end = self._iters[idx]
            self._ops = _mem_ops(self._phases[idx], self._models[idx])
        code = self._codes[i]
        i += 1
        self._i = i
        interval = self._barrier_interval
        if interval and i % interval == 0:
            self._pending_barrier = True
        mem = self._ops[code & 3]
        alu = code >> 2
        if alu:
            # First ALU of the run; the memory access follows it.
            self._j = alu - 1
            self._emit_mem = True
            self._mem = mem
            return _ALU
        # No ALU run this iteration: emit the memory access directly.
        op, addresses = mem
        return (op, addresses())


def _mem_ops(phase: Phase, model):
    """``(opcode, address source)`` of a memory access, by code bits.

    Indexed by ``code & 3`` (store bit, stream bit); a store takes
    precedence over the texture path, and only a mixed model has a
    separate streaming source.
    """
    load = OP_TEX_LOAD if phase.texture else OP_LOAD
    if isinstance(model, MixedAddresses):
        ws = model.ws.next
        stream = model.stream.next
    else:
        ws = stream = model.next
    return ((load, ws), (load, stream), (OP_STORE, ws), (OP_STORE, stream))
