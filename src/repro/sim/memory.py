"""The shared memory system: interconnect queue, L2, and DRAM.

All stages run in the *memory* clock domain, so raising the memory VF
state makes every stage (NoC ingress, L2 ports, the DRAM bandwidth
server) execute proportionally more cycles per base tick -- exactly the
knob the paper's frequency manager turns ("the operating points of the
entire memory system which includes the interconnect between SMs and
L2, L2, memory controller and the DRAM are changed", Section IV-C).

Back-pressure chain (Section III-A): when the DRAM queue is full the L2
stops draining the ingress queue; when the ingress queue is full the
SMs' LSUs cannot forward misses; a blocked LSU is what parks ready
memory warps in the Xmem state.
"""

from collections import deque

from ..config import GPUConfig
from .cache import SetAssocCache

#: Request kinds carried end-to-end.  Defined before the cycle-kernel
#: import below so the compiled cycle body can bind them even while
#: this module is still initializing.
REQ_READ = 0
REQ_WRITE = 1
REQ_TEX = 2

from .cycle_kernel import build  # noqa: E402


class MemorySubsystem:
    """Shared L2 + DRAM model with finite queues and a bandwidth server."""

    __slots__ = ("cfg", "cycle_count", "ingress", "l2", "dram_queue",
                 "_dram_acc", "_responses", "deliver",
                 "dram_txns", "l2_txns", "writes_dropped",
                 "peak_ingress", "peak_dram_queue")

    def __init__(self, cfg: GPUConfig, deliver) -> None:
        self.cfg = cfg
        self.cycle_count = 0
        #: (sm_id, line, kind) triples waiting for an L2 port.
        self.ingress = deque()
        self.l2 = SetAssocCache(cfg.l2_sets, cfg.l2_ways, name="L2")
        self.dram_queue = deque()
        self._dram_acc = 0.0
        #: due cycle -> [(sm_id, line, kind)] in schedule order.  All
        #: responses are scheduled strictly in the future (latencies
        #: are >= 1), so each cycle pops at most its own bucket, and
        #: append order reproduces the old (due, seq) heap order.
        self._responses = {}
        #: Callback ``deliver(sm_id, line, kind)`` invoked when a read
        #: (or texture) response reaches the requesting SM.
        self.deliver = deliver
        self.dram_txns = 0
        self.l2_txns = 0
        self.writes_dropped = 0
        self.peak_ingress = 0
        self.peak_dram_queue = 0

    # ------------------------------------------------------------------
    # SM-side interface
    # ------------------------------------------------------------------
    def can_accept(self) -> bool:
        """True when the LSU may forward one more miss transaction."""
        return len(self.ingress) < self.cfg.memory_ingress_depth

    def submit(self, sm_id: int, line: int, kind: int) -> None:
        """Enqueue a transaction from an SM.

        Texture requests may exceed the ingress depth: the texture path
        has deep outstanding-request capacity, so its saturation never
        back-pressures the LD/ST pipeline (the leuko-1 effect the paper
        describes in Section V-B).
        """
        self.ingress.append((sm_id, line, kind))
        if len(self.ingress) > self.peak_ingress:
            self.peak_ingress = len(self.ingress)

    # ------------------------------------------------------------------
    # Memory-domain cycle
    # ------------------------------------------------------------------
    #: One memory-domain cycle (response delivery, L2 port drain, DRAM
    #: bandwidth server), compiled at import time from the canonical
    #: body in :mod:`repro.sim.cycle_kernel`.  The fused GPU run loops
    #: specialize the same body for the rate-1.0 case, so there is
    #: exactly one definition to edit.
    cycle = build("memory-cycle")

    # ------------------------------------------------------------------
    # Fast-forward support
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when only in-flight responses remain (no queued work)."""
        return not self.ingress and not self.dram_queue

    def next_event_cycle(self):
        """Memory-domain cycle of the next due response, or None."""
        resp = self._responses
        return min(resp) if resp else None

    def skip_cycles(self, n: int) -> None:
        """Account ``n`` cycles during which no queued work exists.

        Callers guarantee :meth:`quiescent` held and that no response
        comes due strictly inside the skipped span; the boundary cycle
        itself is executed normally afterwards.

        Executing a quiescent cycle explicitly always leaves the DRAM
        bandwidth accumulator saturated at one cycle's allowance (both
        the idle short-circuit and the busy path's no-banking clamp end
        there with empty queues), so a skipped span must too --
        otherwise the first burst after a fast-forward is served with
        less banked bandwidth than the cycle-by-cycle path grants it.
        """
        if n:
            self.cycle_count += n
            self._dram_acc = self.cfg.dram_bytes_per_cycle

    @property
    def outstanding(self) -> int:
        """Transactions anywhere in the memory system."""
        return (len(self.ingress) + len(self.dram_queue)
                + sum(len(b) for b in self._responses.values()))
