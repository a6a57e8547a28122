"""Address-stream models for synthetic warp programs.

Each model yields, per warp memory access, a tuple of cache-line
addresses (one per memory transaction the coalesced warp access turns
into).  Three locality personalities cover the paper's categories:

* :class:`StreamingAddresses` -- every access touches fresh lines;
  no temporal locality at any cache level (memory-intensive kernels).
* :class:`WorkingSetAddresses` -- the warp cycles through a private
  footprint of ``ws_lines`` lines; it hits in L1 exactly when the
  aggregate footprint of all *unpaused* warps fits, which is the
  mechanism behind cache-sensitive kernels.
* :class:`SharedWorkingSetAddresses` -- the footprint is shared by all
  warps of a block (compute kernels' small read-only tables).

Address spaces are partitioned per block and per warp by construction,
so distinct warps never alias unless a model makes them share.
"""

from ..errors import WorkloadError
from .schedule import mixed_seed

#: Line-address stride separating two warps' private regions.
WARP_REGION_LINES = 1 << 18
#: Line-address stride separating two blocks' regions.
BLOCK_REGION_LINES = 1 << 25


def block_base(block_uid: int) -> int:
    """Base line address of a block's private region."""
    return block_uid * BLOCK_REGION_LINES


def warp_base(block_uid: int, warp_idx: int) -> int:
    """Base line address of a warp's private region.

    A per-warp/per-block skew decorrelates the cache sets that
    different warps' regions start in (bases are large powers of two
    and would otherwise all land in set 0).  Warps inside a block are
    spaced 8 sets apart so that exact-fit working sets (e.g. kmn's
    8 warps x 32 lines in a 256-line L1) tile the sets uniformly
    instead of overloading a few.
    """
    return (block_base(block_uid) + (warp_idx + 1) * WARP_REGION_LINES
            + (block_uid * 29 + warp_idx * 8) % 64)


class StreamingAddresses:
    """Fresh lines forever; models bandwidth-bound streaming."""

    __slots__ = ("base", "pos", "txns")

    def __init__(self, base: int, txns: int = 1) -> None:
        if txns < 1:
            raise WorkloadError("txns must be >= 1")
        self.base = base
        self.pos = 0
        self.txns = txns

    def next(self):
        base = self.base + self.pos
        self.pos += self.txns
        if self.txns == 1:
            return (base,)
        return tuple(base + k for k in range(self.txns))


class WorkingSetAddresses:
    """Cyclic traversal of a private ``ws_lines``-line footprint."""

    __slots__ = ("base", "ws_lines", "pos", "txns")

    def __init__(self, base: int, ws_lines: int, txns: int = 1) -> None:
        if ws_lines < 1:
            raise WorkloadError("ws_lines must be >= 1")
        if txns < 1:
            raise WorkloadError("txns must be >= 1")
        if txns > ws_lines:
            raise WorkloadError("txns cannot exceed ws_lines")
        self.base = base
        self.ws_lines = ws_lines
        self.pos = 0
        self.txns = txns

    def next(self):
        ws = self.ws_lines
        pos = self.pos
        self.pos = (pos + self.txns) % ws
        base = self.base
        if self.txns == 1:
            return (base + pos,)
        return tuple(base + (pos + k) % ws for k in range(self.txns))


class SharedWorkingSetAddresses(WorkingSetAddresses):
    """A working set shared by all warps of a block.

    Identical traversal logic; the sharing comes from the caller
    passing the *block* base (plus a fixed offset) to every warp, so
    all warps touch the same lines and the first toucher warms the L1
    for the rest.  Each warp still keeps its own cursor, offset by its
    index so accesses interleave rather than march in lockstep.
    """

    __slots__ = ()

    def __init__(self, base: int, ws_lines: int, txns: int = 1,
                 warp_idx: int = 0) -> None:
        super().__init__(base, ws_lines, txns)
        self.pos = (warp_idx * 3) % ws_lines


class MixedAddresses:
    """A working set with a fraction of streaming (compulsory-miss)
    accesses mixed in.

    Models kernels whose inner loop reuses a tile but also streams
    through fresh data (e.g. bp-1): the streaming share sets the
    bandwidth appetite while the working-set share sets L1 behaviour.
    Which access streams is drawn, with probability ``fraction``, from
    a stream seeded with ``seed`` -- by the warp's draw schedule
    (:mod:`repro.workloads.schedule`), which then calls ``ws.next`` or
    ``stream.next`` directly.
    """

    __slots__ = ("ws", "stream", "fraction", "seed")

    def __init__(self, ws_model, stream_model, fraction: float,
                 seed: int) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise WorkloadError("stream fraction must lie in [0, 1]")
        self.ws = ws_model
        self.stream = stream_model
        self.fraction = fraction
        self.seed = seed


def make_address_model(phase, block_uid: int, warp_idx: int):
    """Instantiate the address model a phase asks for."""
    if phase.ws_lines <= 0:
        return StreamingAddresses(warp_base(block_uid, warp_idx),
                                  txns=phase.txns)
    if phase.shared_ws:
        # Skew each block's shared region so the regions of concurrent
        # blocks start in different cache sets; aligned bases would pile
        # every block's working set into the same few sets and thrash.
        base = block_base(block_uid) + (1 << 22) + (block_uid * 13) % 64
        model = SharedWorkingSetAddresses(base, phase.ws_lines,
                                          txns=phase.txns,
                                          warp_idx=warp_idx)
    else:
        model = WorkingSetAddresses(warp_base(block_uid, warp_idx),
                                    phase.ws_lines, txns=phase.txns)
    if phase.stream_fraction > 0.0:
        stream = StreamingAddresses(
            warp_base(block_uid, warp_idx) + (1 << 16), txns=phase.txns)
        return MixedAddresses(model, stream, phase.stream_fraction,
                              seed=mixed_seed(block_uid, warp_idx))
    return model
