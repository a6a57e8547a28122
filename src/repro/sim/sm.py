"""A streaming multiprocessor: scheduler, pipelines, L1, CTA pausing.

The model is warp-granular and coarse but preserves every mechanism the
Equalizer counters observe:

* a dual-issue arithmetic path with a dependent-issue interval, so that
  more ready-ALU warps than issue slots accumulate as ``Xalu``;
* a single-issue LSU with a finite queue; misses allocate finite MSHRs
  and forward to the shared memory system, whose back-pressure fills
  the LSU queue and parks ready-memory warps in ``Xmem``;
* a real set-associative L1 whose thrashing under high concurrency is
  what makes cache-sensitive kernels fast when blocks are paused;
* a texture path with deep outstanding-request capacity that saturates
  bandwidth without visible LSU back-pressure (the leuko-1 effect);
* CTA pausing and unpausing exactly as Section IV-B describes.

The hot path is event-driven rather than scan-based:

* ``active_warps`` / ``waiting_warps`` are maintained incrementally at
  every warp state transition, so :meth:`SM._sample` is O(1) instead of
  O(resident warps).  Set ``SIM_DEBUG=1`` to cross-check the counters
  against a full scan at every sample.
* sleeping warps live in a bucket map keyed by wake cycle; a cycle pops
  at most its own bucket instead of probing a heap.  Bucket order
  equals the old ``(due, seq)`` heap order because appends are already
  in seq order.
* each SM knows its next sample-boundary cycle, so the per-cycle
  ``% sample_interval`` disappears.
"""

import os
from collections import deque

from ..errors import SimulationError
from .cache import SetAssocCache
from .cycle_kernel import build
from .instruction import (OP_ALU, OP_BARRIER, OP_DONE, OP_STORE,
                          OP_TEX_LOAD)
from .memory import REQ_TEX
from .warp import (W_BARRIER, W_DONE, W_READY_ALU, W_READY_MEM,
                   W_SLEEP, W_WAITMEM, ThreadBlock, Warp)

#: When truthy, every sample re-derives the incremental counters from a
#: full block/warp scan and raises on divergence (see ``SIM_DEBUG``).
DEBUG_COUNTERS = os.environ.get("SIM_DEBUG", "") not in ("", "0")


class MemAccess:
    """One warp memory access travelling through the LSU and caches."""

    __slots__ = ("warp", "lines", "idx", "pending", "is_write", "is_tex",
                 "issued_all")

    def __init__(self, warp, lines, is_write=False, is_tex=False):
        self.warp = warp
        self.lines = lines
        self.idx = 0
        #: Outstanding miss transactions for this access.
        self.pending = 0
        self.is_write = is_write
        self.is_tex = is_tex
        #: True once every line has been looked up in the L1.
        self.issued_all = False


class SM:
    """One streaming multiprocessor."""

    __slots__ = (
        "sm_id", "cfg", "gpu", "cycle", "ready_alu", "ready_mem",
        "_sleep_buckets", "lsu_queue", "l1", "mshr", "tex_pending",
        "tex_outstanding", "blocks", "paused_blocks", "target_blocks",
        "wcta", "kernel_max_blocks", "insts_issued", "alu_issued",
        "mem_issued", "loads_issued", "stores_issued", "blocks_run",
        "epoch_active", "epoch_waiting", "epoch_xmem", "epoch_xalu",
        "epoch_idle", "epoch_samples", "tot_active", "tot_waiting",
        "tot_xmem", "tot_xalu", "tot_idle", "tot_samples",
        "_needs_fetch", "hooks", "_lsu_busy", "active_warps",
        "waiting_warps", "_next_sample_cycle", "_counted_busy",
        "debug_counters", "_block_seq", "memory", "_lsu_depth",
        "_alu_width", "_miss_cycles", "_mshr_entries", "_ingress_depth",
        "_hit_latency", "_mem_width", "_tex_depth", "_l1_data",
        "_l1_sets", "_vec_hold",
    )

    def __init__(self, sm_id, cfg, gpu) -> None:
        self.sm_id = sm_id
        self.cfg = cfg
        self.gpu = gpu
        self.cycle = 0
        self.ready_alu = deque()
        self.ready_mem = deque()
        #: wake cycle -> warps due that cycle, in schedule order.
        self._sleep_buckets = {}
        self.lsu_queue = deque()
        self.l1 = SetAssocCache(cfg.l1_sets, cfg.l1_ways,
                                name=f"L1[{sm_id}]")
        self.mshr = {}          # line -> [MemAccess]
        self.tex_pending = {}   # line -> [MemAccess]
        self.tex_outstanding = 0
        self.blocks = []
        self.paused_blocks = deque()
        self.target_blocks = cfg.max_blocks_per_sm
        self.wcta = 1
        self.kernel_max_blocks = cfg.max_blocks_per_sm
        # Issue statistics.
        self.insts_issued = 0
        self.alu_issued = 0
        self.mem_issued = 0
        self.loads_issued = 0
        self.stores_issued = 0
        self.blocks_run = 0
        # Per-epoch counter accumulators (Section IV-A).
        self.epoch_active = 0
        self.epoch_waiting = 0
        self.epoch_xmem = 0
        self.epoch_xalu = 0
        self.epoch_idle = 0
        self.epoch_samples = 0
        # Whole-run accumulators (Figure 4).
        self.tot_active = 0
        self.tot_waiting = 0
        self.tot_xmem = 0
        self.tot_xalu = 0
        self.tot_idle = 0
        self.tot_samples = 0
        #: Remaining cycles the LSU miss path is occupied.
        self._lsu_busy = 0
        #: Vector-burst decline memo: no burst attempt before this
        #: cycle (planning is read-only, so skipping tries is safe).
        self._vec_hold = 0
        #: Warps whose load completed while paused; fetch deferred.
        self._needs_fetch = set()
        #: Controller hook object or None (CCWS needs per-miss hooks).
        self.hooks = None
        # Incremental Equalizer counters over *unpaused* blocks:
        #   active_warps  = warps in any state but W_DONE
        #   waiting_warps = warps in W_SLEEP or W_WAITMEM
        # Updated at every state transition; verified against a full
        # scan when ``debug_counters`` is set.
        self.active_warps = 0
        self.waiting_warps = 0
        interval = gpu.sim.equalizer.sample_interval
        self._next_sample_cycle = interval
        # Direct references and scalars for the per-cycle hot path (one
        # attribute hop instead of two or three).
        self.memory = gpu.memory
        self._lsu_depth = cfg.lsu_queue_depth
        self._alu_width = cfg.alu_issue_width
        self._miss_cycles = cfg.l1_miss_handling_cycles - 1
        self._mshr_entries = cfg.mshr_entries
        self._ingress_depth = cfg.memory_ingress_depth
        self._hit_latency = cfg.l1_hit_latency
        self._mem_width = cfg.mem_issue_width
        self._tex_depth = cfg.texture_queue_depth
        self._l1_data = self.l1._data
        self._l1_sets = self.l1.sets
        #: Whether this SM is counted in ``gpu.busy_sm_count``.
        self._counted_busy = False
        self.debug_counters = DEBUG_COUNTERS
        #: Monotonic block-activation stamp; the pause victim is the
        #: block with the highest stamp, which frees :attr:`blocks`
        #: from any ordering requirement (swap-remove on retirement).
        self._block_seq = 0

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------
    def prepare_kernel(self, wcta: int, kernel_max_blocks: int) -> None:
        """Reset per-kernel-launch structure; keeps statistics."""
        if self.blocks or self.paused_blocks:
            raise SimulationError("prepare_kernel with resident blocks")
        self.wcta = wcta
        self.kernel_max_blocks = min(kernel_max_blocks,
                                     self.cfg.max_blocks_per_sm,
                                     self.cfg.max_warps_per_sm // wcta)
        if self.kernel_max_blocks < 1:
            raise SimulationError(
                f"kernel with wcta={wcta} cannot fit a single block")
        self.target_blocks = min(self.target_blocks, self.kernel_max_blocks)

    def block_limit(self) -> int:
        """Upper bound on concurrent blocks for the current kernel."""
        return self.kernel_max_blocks

    def set_target_blocks(self, n: int) -> None:
        """Set the desired concurrency; pauses or unpauses blocks."""
        n = max(1, min(n, self.kernel_max_blocks))
        self.target_blocks = n
        while len(self.blocks) > n:
            self._pause_one()
        self.ensure_blocks()

    #: Block launch, compiled at import time from the canonical
    #: template in :mod:`repro.sim.cycle_kernel`: the GWDE hand-off is
    #: inlined (a GWDE fragment), so filling an SM costs deque and
    #: counter operations instead of work-distribution method calls.
    ensure_blocks = build("ensure-blocks")

    def _launch_block(self, factory) -> None:
        block = ThreadBlock(self.gpu.next_block_id())
        programs = factory()
        default_dep = self.cfg.alu_dep_latency
        block.warps = [
            Warp(i, block, p, getattr(p, "dep_latency", default_dep))
            for i, p in enumerate(programs)]
        block.remaining = len(block.warps)
        self._block_seq += 1
        block.seq = self._block_seq
        self.blocks.append(block)
        self.blocks_run += 1
        if not self._counted_busy:
            self._counted_busy = True
            self.gpu.busy_sm_count += 1
        self.gpu._ff_blocked = False
        # All warps start W_NEW (active, not waiting); the dispatches
        # below apply their own transition deltas on top.
        self.active_warps += len(block.warps)
        for i, warp in enumerate(block.warps):
            self._fetch_and_dispatch(warp, 1 + 2 * i)

    def _pause_one(self) -> None:
        """Pause the most recently activated block (CTA pausing)."""
        blocks = self.blocks
        if not blocks:
            return
        idx = max(range(len(blocks)), key=lambda i: blocks[i].seq)
        block = blocks[idx]
        last = blocks.pop()
        if idx < len(blocks):
            blocks[idx] = last
        block.paused = True
        active = 0
        waiting = 0
        for w in block.warps:
            w.paused = True
            st = w.state
            if st != W_DONE:
                active += 1
                if st == W_SLEEP or st == W_WAITMEM:
                    waiting += 1
        self.active_warps -= active
        self.waiting_warps -= waiting
        # Eagerly pull the block's warps out of the ready queues.
        for q in (self.ready_alu, self.ready_mem):
            if not q:
                continue
            kept = [w for w in q if not w.paused]
            if len(kept) != len(q):
                held = block.held
                for w in q:
                    if w.paused:
                        held.append(w)
                q.clear()
                q.extend(kept)
        self.paused_blocks.append(block)

    def _unpause_one(self) -> None:
        block = self.paused_blocks.popleft()
        block.paused = False
        self._block_seq += 1
        block.seq = self._block_seq
        active = 0
        waiting = 0
        for w in block.warps:
            w.paused = False
            st = w.state
            if st != W_DONE:
                active += 1
                if st == W_SLEEP or st == W_WAITMEM:
                    waiting += 1
        self.active_warps += active
        self.waiting_warps += waiting
        self.blocks.append(block)
        self.gpu._ff_blocked = False
        held, block.held = block.held, []
        needs_fetch = self._needs_fetch
        for w in held:
            if w in needs_fetch:
                needs_fetch.discard(w)
                self._fetch_and_dispatch(w, 1)
            else:
                self._enqueue_ready(w)

    #: Block retire, compiled like :attr:`ensure_blocks`: the GWDE
    #: retirement notification is inlined as the retire fragment.
    _block_finished = build("block-finished")

    # ------------------------------------------------------------------
    # Warp dispatch machinery
    # ------------------------------------------------------------------
    def _dispatch_special(self, warp) -> None:
        """Retire the warp or park it at the block barrier."""
        prev = warp.state
        block = warp.block
        if warp.head_op == OP_DONE:
            warp.state = W_DONE
            if not warp.paused:
                self.active_warps -= 1
                if prev == W_SLEEP or prev == W_WAITMEM:
                    self.waiting_warps -= 1
            block.remaining -= 1
            if block.remaining == 0:
                self._block_finished(block)
                # Free the retired CTA now, as the hardware does: this
                # breaks the block <-> warp reference cycle, so
                # reference counting releases the block, its warps and
                # their programs without waiting for the collector
                # (which run_kernel suspends for the whole run).
                block.warps = block.held = ()
            return
        warp.state = W_BARRIER
        if not warp.paused and (prev == W_SLEEP or prev == W_WAITMEM):
            self.waiting_warps -= 1
        block.barrier_count += 1
        if block.barrier_count >= block.remaining:
            block.barrier_count = 0
            # Snapshot before releasing: a released warp may arrive
            # at the *next* barrier during this loop and must not be
            # released twice.
            waiters = [w for w in block.warps if w.state == W_BARRIER]
            for w in waiters:
                self._fetch_and_dispatch(w, 1)

    def _fetch_and_dispatch(self, warp, delay: int) -> None:
        """Fetch the warp's next operation and schedule its readiness."""
        op, payload = warp.program.next_op()
        warp.head_op = op
        warp.head_payload = payload
        if op >= OP_BARRIER:
            # OP_BARRIER and OP_DONE are the two largest opcodes (see
            # instruction.py); everything below them sleeps until ready.
            self._dispatch_special(warp)
            return
        prev = warp.state
        warp.state = W_SLEEP
        if (prev != W_SLEEP and prev != W_WAITMEM
                and not warp.paused):
            self.waiting_warps += 1
        due = self.cycle + delay
        buckets = self._sleep_buckets
        bucket = buckets.get(due)
        if bucket is None:
            buckets[due] = [warp]
        else:
            bucket.append(warp)

    def _enqueue_ready(self, warp) -> None:
        if warp.state == W_SLEEP:
            self.waiting_warps -= 1
        if warp.head_op == OP_ALU:
            warp.state = W_READY_ALU
            self.ready_alu.append(warp)
        else:
            warp.state = W_READY_MEM
            self.ready_mem.append(warp)

    # ------------------------------------------------------------------
    # Issue stages
    # ------------------------------------------------------------------
    def _issue_mem(self) -> None:
        q = self.ready_mem
        lsu_queue = self.lsu_queue
        depth = self._lsu_depth
        hooks = self.hooks
        lsu_has_space = len(lsu_queue) < depth
        for _ in range(self._mem_width):
            if not q:
                break
            warp = q[0]
            op = warp.head_op
            if op == OP_TEX_LOAD:
                if self.tex_outstanding >= self._tex_depth:
                    break
                q.popleft()
                self._issue_tex(warp)
            else:
                if not lsu_has_space:
                    break
                if hooks is not None:
                    # CCWS-style prioritisation: prefer the first warp
                    # the controller protects.  A throttled warp may
                    # still issue when the LSU is about to run dry --
                    # the throttle is a scheduling priority, and a hard
                    # gate would starve low-priority warps' blocks.
                    for _ in range(len(q)):
                        warp = q[0]
                        if (warp.head_op == OP_TEX_LOAD
                                or self.hooks.can_issue_mem(self, warp)):
                            break
                        q.rotate(-1)
                    else:
                        if self.lsu_queue:
                            break  # keep the LSU fed by protected warps
                        warp = q[0]
                    if warp.head_op == OP_TEX_LOAD:
                        if self.tex_outstanding >= self._tex_depth:
                            break
                        q.popleft()
                        self._issue_tex(warp)
                        continue
                q.popleft()
                lines = warp.head_payload
                access = MemAccess(warp, lines, is_write=(op == OP_STORE))
                lsu_queue.append(access)
                lsu_has_space = len(lsu_queue) < depth
                self.insts_issued += 1
                self.mem_issued += 1
                if op == OP_STORE:
                    self.stores_issued += 1
                    self._fetch_and_dispatch(warp, 1)
                else:
                    self.loads_issued += 1
                    warp.state = W_WAITMEM
                    self.waiting_warps += 1

    def _issue_tex(self, warp) -> None:
        """Issue a texture load: deep queue, no L1, no LSU back-pressure."""
        lines = warp.head_payload
        access = MemAccess(warp, lines, is_tex=True)
        access.issued_all = True
        self.insts_issued += 1
        self.mem_issued += 1
        self.loads_issued += 1
        warp.state = W_WAITMEM
        self.waiting_warps += 1
        pending = self.tex_pending
        memory = self.memory
        ingress = memory.ingress
        sm_id = self.sm_id
        n = 0
        for line in lines:
            waiters = pending.get(line)
            if waiters is None:
                pending[line] = [access]
                # Inlined memory.submit: texture requests may exceed
                # the ingress depth (deep outstanding capacity).
                ingress.append((sm_id, line, REQ_TEX))
                if len(ingress) > memory.peak_ingress:
                    memory.peak_ingress = len(ingress)
            else:
                waiters.append(access)
            n += 1
        access.pending += n
        self.tex_outstanding += n

    # ------------------------------------------------------------------
    # Fill delivery and the miss path
    # ------------------------------------------------------------------
    def receive_fill(self, line: int, kind: int) -> None:
        """A read response arrived from the memory system."""
        if kind == REQ_TEX:
            waiters = self.tex_pending.pop(line, ())
            # One outstanding slot per waiter retires with this line;
            # nothing on the completion path reads tex_outstanding, so
            # the bulk decrement is equivalent to the per-waiter one.
            self.tex_outstanding -= len(waiters)
            for access in waiters:
                access.pending -= 1
                if access.pending == 0:
                    self._complete_load(access.warp)
            return
        # Inlined l1.fill(line): allocate-on-fill as MRU, evicting the
        # LRU line (the set dict's first key) past the way limit.
        l1 = self.l1
        st = self._l1_data[line % self._l1_sets]
        evicted = None
        if line in st:
            del st[line]
            st[line] = None
        else:
            l1.fills += 1
            st[line] = None
            if len(st) > l1.ways:
                l1.evictions += 1
                evicted = next(iter(st))
                del st[evicted]
        if self.hooks is not None and evicted is not None:
            self.hooks.on_l1_evict(self, evicted)
        waiters = self.mshr.pop(line, ())
        for access in waiters:
            access.pending -= 1
            if access.pending == 0 and access.issued_all:
                self._complete_load(access.warp)

    def _complete_load(self, warp) -> None:
        """All lines of a warp load arrived; resume the warp."""
        if warp.paused:
            self._needs_fetch.add(warp)
            warp.state = W_SLEEP
            warp.block.held.append(warp)
        else:
            self._fetch_and_dispatch(warp, 1)

    # ------------------------------------------------------------------
    # Counter sampling (Section IV-A)
    # ------------------------------------------------------------------
    def _sample(self, times: int = 1) -> None:
        if self.debug_counters:
            self._verify_counters()
        cfg = self.cfg
        cap_mem = (cfg.mem_issue_width
                   if len(self.lsu_queue) < cfg.lsu_queue_depth else 0)
        xmem = len(self.ready_mem) - cap_mem
        if xmem < 0:
            xmem = 0
        xalu = len(self.ready_alu) - cfg.alu_issue_width
        if xalu < 0:
            xalu = 0
        active = self.active_warps
        waiting = self.waiting_warps
        idle = 0 if (self.ready_alu or self.ready_mem) else 1
        self.epoch_active += active * times
        self.epoch_waiting += waiting * times
        self.epoch_xmem += xmem * times
        self.epoch_xalu += xalu * times
        self.epoch_idle += idle * times
        self.epoch_samples += times
        self.tot_active += active * times
        self.tot_waiting += waiting * times
        self.tot_xmem += xmem * times
        self.tot_xalu += xalu * times
        self.tot_idle += idle * times
        self.tot_samples += times

    def _verify_counters(self) -> None:
        """Cross-check the incremental counters against a full scan."""
        active = 0
        waiting = 0
        for block in self.blocks:
            for w in block.warps:
                st = w.state
                if st == W_DONE:
                    continue
                active += 1
                if st == W_SLEEP or st == W_WAITMEM:
                    waiting += 1
        if active != self.active_warps or waiting != self.waiting_warps:
            raise SimulationError(
                f"SM{self.sm_id} cycle {self.cycle}: incremental "
                f"counters diverged from scan (active "
                f"{self.active_warps} vs {active}, waiting "
                f"{self.waiting_warps} vs {waiting})")
        stale = [c for c in self._sleep_buckets if c < self.cycle]
        if stale:
            raise SimulationError(
                f"SM{self.sm_id} cycle {self.cycle}: missed sleep "
                f"buckets at {sorted(stale)}")

    def read_epoch(self):
        """Return and reset the per-epoch counter averages.

        Returns a tuple ``(active, waiting, xmem, xalu, idle)``: the
        four hardware counters as per-sample averages plus the fraction
        of samples at which no warp was ready to issue (used by the
        DynCTA baseline, not by Equalizer).
        """
        n = self.epoch_samples
        if n == 0:
            result = (0.0, 0.0, 0.0, 0.0, 0.0)
        else:
            result = (self.epoch_active / n, self.epoch_waiting / n,
                      self.epoch_xmem / n, self.epoch_xalu / n,
                      self.epoch_idle / n)
        self.epoch_active = 0
        self.epoch_waiting = 0
        self.epoch_xmem = 0
        self.epoch_xalu = 0
        self.epoch_idle = 0
        self.epoch_samples = 0
        return result

    # ------------------------------------------------------------------
    # Cycle execution
    # ------------------------------------------------------------------
    #: One SM cycle (wake, sample, memory issue, dual ALU issue, LSU
    #: drain), compiled at import time from the canonical cycle body in
    #: :mod:`repro.sim.cycle_kernel`.  The fused GPU run loops inline
    #: the same body, so there is exactly one definition to edit.
    cycle_once = build("cycle-once")

    # ------------------------------------------------------------------
    # Fast-forward support
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no issue or LSU work can happen this cycle."""
        return (not self.ready_alu and not self.ready_mem
                and not self.lsu_queue and not self._lsu_busy)

    def next_wake_cycle(self):
        """SM cycle of the next sleeping warp's wake, or None."""
        buckets = self._sleep_buckets
        return min(buckets) if buckets else None

    def skip_cycles(self, n: int, sample_interval: int) -> None:
        """Advance ``n`` cycles during which state is provably constant."""
        start = self.cycle
        cycle = start + n
        self.cycle = cycle
        k = cycle // sample_interval - start // sample_interval
        if k:
            self._sample(times=k)
            self._next_sample_cycle = (
                cycle // sample_interval + 1) * sample_interval

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def resident_warps(self) -> int:
        """Unretired warps across active and paused blocks."""
        return (sum(b.remaining for b in self.blocks)
                + sum(b.remaining for b in self.paused_blocks))

    def busy(self) -> bool:
        """True while any block (active or paused) is resident."""
        return bool(self.blocks or self.paused_blocks)
