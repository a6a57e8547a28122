"""Warps and thread blocks as seen by the SM warp scheduler.

A warp is a small state machine driven by its program (a procedural
instruction stream).  The scheduler-visible states map one-to-one onto
the paper's Section III-A classification:

==================  ====================================================
State               Paper's category
==================  ====================================================
``W_WAITMEM``       Waiting (blocked on a dependent memory value)
``W_SLEEP``         Waiting (dependent ALU result not yet committed)
``W_READY_ALU``     Issued or Excess ALU (ready for the arithmetic pipe)
``W_READY_MEM``     Issued or Excess memory (ready for the LSU)
``W_BARRIER``       Others (waiting on a synchronisation instruction)
``W_DONE``          retired; unaccounted
==================  ====================================================

Paused warps (CTA pausing, Section IV-B) keep their state but are
removed from the scheduler's ready queues and excluded from every
counter.
"""

from .instruction import OP_ALU

# Scheduler-visible warp states.
W_NEW = 0        #: created, first instruction not yet fetched
W_SLEEP = 1      #: waiting for a dependent (ALU) result
W_READY_ALU = 2  #: head instruction ready for the arithmetic pipeline
W_READY_MEM = 3  #: head instruction ready for the LSU
W_WAITMEM = 4    #: blocked on an outstanding load
W_BARRIER = 5    #: waiting at a block-wide barrier
W_DONE = 6       #: program finished

STATE_NAMES = {
    W_NEW: "new",
    W_SLEEP: "sleep",
    W_READY_ALU: "ready_alu",
    W_READY_MEM: "ready_mem",
    W_WAITMEM: "waitmem",
    W_BARRIER: "barrier",
    W_DONE: "done",
}

#: States counted as "Waiting" by the Equalizer counters.
WAITING_STATES = (W_SLEEP, W_WAITMEM)


class Warp:
    """One warp: program cursor plus scheduler bookkeeping."""

    __slots__ = ("wid", "block", "program", "state", "head_op",
                 "head_payload", "paused", "dep_latency")

    def __init__(self, wid: int, block: "ThreadBlock", program,
                 dep_latency: int = 1) -> None:
        self.wid = wid
        self.block = block
        self.program = program
        self.state = W_NEW
        self.head_op = OP_ALU
        self.head_payload = None
        self.paused = False
        #: Dependent-issue interval after an ALU instruction, resolved
        #: once at construction so the issue stage never looks it up.
        self.dep_latency = dep_latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Warp({self.wid}, block={self.block.bid}, "
                f"state={STATE_NAMES[self.state]}, paused={self.paused})")


class ThreadBlock:
    """A thread block resident on an SM (active or paused)."""

    __slots__ = ("bid", "warps", "remaining", "barrier_count", "paused",
                 "held", "seq")

    def __init__(self, bid: int) -> None:
        self.bid = bid
        #: The block's warps; emptied (with :attr:`held`) when the
        #: block retires, so retirement frees the warps.
        self.warps = []
        #: Activation stamp (set by the SM at launch and unpause); the
        #: CTA-pausing victim is the block with the highest stamp.
        self.seq = 0
        #: Warps of this block that have not yet retired.
        self.remaining = 0
        #: Warps currently parked at the block barrier.
        self.barrier_count = 0
        self.paused = False
        #: Warps that became runnable while the block was paused; they
        #: re-enter the scheduler when the block is unpaused.
        self.held = []

    @property
    def done(self) -> bool:
        """True when every warp of the block has retired."""
        return self.remaining == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ThreadBlock({self.bid}, remaining={self.remaining}, "
                f"paused={self.paused})")
