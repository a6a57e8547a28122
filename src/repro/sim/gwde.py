"""Global Work Distribution Engine.

The GWDE owns the pool of not-yet-launched thread blocks of the current
kernel invocation and hands them to SMs on request (Figure 3 of the
paper).  Equalizer's block-increase path asks the GWDE for one more
block; its block-decrease path never returns blocks here -- it pauses
them on the SM (Section IV-B).
"""

from collections import deque


class GWDE:
    """Thread-block dispenser for one kernel invocation.

    The hot launch/retire paths are the compiled GWDE fragments of
    :mod:`repro.sim.cycle_kernel`, which operate directly on
    :attr:`pending` (via :meth:`pool_for`) and the counters, so they
    must preserve the ``live == len(pending) + outstanding`` invariant
    the inlined drain condition relies on.  :meth:`request` and
    :meth:`notify_done` remain the reference API for external callers
    and the oracle's method-dispatch path.
    """

    __slots__ = ("pending", "outstanding", "dispatched", "live")

    def __init__(self, block_factories) -> None:
        #: Factories for blocks not yet assigned to any SM.
        self.pending = deque(block_factories)
        #: Blocks launched on some SM and not yet retired.
        self.outstanding = 0
        #: Total blocks handed out.
        self.dispatched = 0
        #: Blocks not yet retired (pending + outstanding); zero means
        #: drained.  A launch moves a block between the two terms, so
        #: only retirement decrements it.
        self.live = len(self.pending)

    def pool_for(self, sm_id: int):
        """The pending pool this SM draws from (one shared pool)."""
        return self.pending

    def request(self, sm_id: int):
        """Hand one block factory to the requesting SM, or None."""
        if not self.pending:
            return None
        self.outstanding += 1
        self.dispatched += 1
        return self.pending.popleft()

    def notify_done(self) -> None:
        """An SM retired one block."""
        self.outstanding -= 1
        self.live -= 1

    @property
    def drained(self) -> bool:
        """True when every block has been dispatched and retired."""
        return not self.pending and self.outstanding == 0

    def __len__(self) -> int:
        return len(self.pending)
