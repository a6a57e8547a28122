"""Single source of truth for the simulator's hot cycle bodies.

PR 2 made the simulator fast by inlining the per-SM cycle body and the
rate-1.0 memory cycle into ``GPU.run_invocation`` -- and paid for it
with a hand-mirrored copy of ``SM.cycle_once`` / ``SM._lsu_drain``
guarded only by comments.  This module removes the duplication: the
canonical cycle bodies live here exactly once, as source-text
templates, and every execution path is *compiled* from them at import
time:

* ``SM.cycle_once``            -- the single-SM reference entry point;
* ``MemorySubsystem.cycle``    -- the single memory-cycle entry point;
* ``SM.ensure_blocks``         -- block launch, GWDE hand-off inlined;
* ``SM._block_finished``       -- block retire, GWDE notify inlined;
* ``GPU._cycle_loop``          -- the fused chip-wide run loop;
* ``PerSMVRMGPU._cycle_loop``  -- the fused per-SM-VRM run loop;
* ``VectorGPU._cycle_loop``    -- the chip-wide loop behind the
                                  vectorized busy-slot gate.

A *skeleton* template per clocking supplies the specialization points
the loops differ in -- clock-domain advance (one shared SM domain vs a
private domain per SM), iteration order (cycle-major vs SM-major),
epoch boundaries (SM-cycle axis vs tick axis) -- while the cycle body
(``SM_CYCLE_CORE``) and the memory cycle (``MEM_CYCLE_CORE``) are
substituted verbatim into each.  The vector loop is the chip skeleton
with a different ``gate`` fragment.  Editing a core template therefore
edits every path at once; there is nothing left to mirror by hand.
There is one compiled run loop per GPU class and no per-invocation
dispatch: the L1-miss instrumentation site (a controller's
``sm.hooks``, installed by CCWS) is a guarded call in every body.

The GWDE fragments render the drain condition, block launch, and
block retire as counter/deque operations (``${gwde_while}``,
``${gwde_launch}``, ``${gwde_retire}``) instead of
``GWDE.request``/``notify_done`` method dispatch.  The methods stay on
the GWDE classes as the reference API; the oracle's method-dispatch
path still exercises them.

Fragments communicate through a fixed local-variable contract
(``sm``, ``gpu``, ``target``, ``interval``, ``buckets``, ``bucket``,
``ready_alu``, ``ready_mem``, ``lsu_queue``, ``lsu_busy`` plus the
hoisted memory-system structures); each builder's prologue binds that
contract before the core text runs.  The compiled sources are
registered with :mod:`linecache` under ``SOURCE_PREFIX`` filenames, so
tracebacks and ``inspect.getsource`` show real line numbers into the
generated code.

The module is part of the engine's code-salt digest (everything under
``src/repro/sim`` is), so editing a template invalidates the run cache
exactly like editing the old hand-written loop did.
"""

import builtins
import linecache
import symtable
import textwrap

from ..config import LINE_BYTES
from ..errors import SimulationError
from .instruction import OP_ALU, OP_BARRIER, OP_TEX_LOAD
from .warp import W_READY_ALU, W_READY_MEM, W_SLEEP

#: Pseudo-filename prefix of the compiled specializations.
SOURCE_PREFIX = "<cycle-kernel:"


# ----------------------------------------------------------------------
# The per-SM cycle body (the former SM.cycle_once, once).
#
# Local contract on entry: ``sm`` (the SM), ``gpu`` (its GPU),
# ``target`` (the absolute SM cycle being executed, already stored in
# ``sm.cycle``), ``interval`` (sample interval), ``buckets``
# (``sm._sleep_buckets``), ``bucket`` (the popped due bucket or None),
# ``ready_alu``/``ready_mem``/``lsu_queue`` (the SM's queues),
# ``lsu_busy`` (snapshot of ``sm._lsu_busy``; nothing before the LSU
# stage writes it), ``memory``/``mem_ingress`` (the shared memory
# system and its ingress queue), and the lower-case constant bindings
# made by every prologue.
# ----------------------------------------------------------------------
SM_CYCLE_CORE = """\
if bucket is not None:
    # Wake every warp due this cycle (dispatch may add more).
    gpu._ff_blocked = False
    needs_fetch = sm._needs_fetch
    woken = 0
    while True:
        for w in bucket:
            if w.paused:
                w.block.held.append(w)
            elif needs_fetch and w in needs_fetch:
                # An L1-hit load completed: advance past it.
                needs_fetch.discard(w)
                sm._fetch_and_dispatch(w, 0)
            else:
                if w.head_op == op_alu:
                    w.state = w_ready_alu
                    ready_alu.append(w)
                else:
                    w.state = w_ready_mem
                    ready_mem.append(w)
                woken += 1
        # A zero-delay fetch above may have scheduled new work for
        # this same cycle; drain until the bucket stays empty.
        bucket = buckets.pop(target, None)
        if bucket is None:
            break
    sm.waiting_warps -= woken
if target == sm._next_sample_cycle:
    sm._sample()
    sm._next_sample_cycle = target + interval
if ready_mem and (len(lsu_queue) < sm._lsu_depth
                  or ready_mem[0].head_op == op_tex):
    # When the LSU queue is full and the head is not a texture
    # load, _issue_mem provably does nothing (it breaks before any
    # rotation or issue), so the call is skipped outright.
    sm._issue_mem()
if ready_alu:
    # Dual-issue arithmetic stage.  Consecutive issues usually
    # share a dependence latency, so the due bucket of the previous
    # issue is cached and reused.
    width = sm._alu_width
    issued = 0
    slept = 0
    last_due = -1
    last_bucket = None
    while ready_alu:
        warp = ready_alu.popleft()
        issued += 1
        prog = warp.program
        try:
            jj = prog._j
        except AttributeError:
            jj = 0
        if jj > 0:
            # WarpProgram fast path: mid ALU run, the next op is
            # another ALU and the head stands.
            prog._j = jj - 1
            warp.state = w_sleep
            slept += 1
            due = target + warp.dep_latency
            if due != last_due:
                last_bucket = buckets.get(due)
                if last_bucket is None:
                    last_bucket = buckets[due] = [warp]
                    last_due = due
                    if issued == width:
                        break
                    continue
                last_due = due
            last_bucket.append(warp)
        else:
            op, payload = prog.next_op()
            warp.head_op = op
            warp.head_payload = payload
            if op < op_barrier:
                warp.state = w_sleep
                slept += 1
                due = target + warp.dep_latency
                if due != last_due:
                    last_bucket = buckets.get(due)
                    if last_bucket is None:
                        last_bucket = buckets[due] = [warp]
                        last_due = due
                        if issued == width:
                            break
                        continue
                    last_due = due
                last_bucket.append(warp)
            else:
                sm._dispatch_special(warp)
        if issued == width:
            break
    sm.insts_issued += issued
    sm.alu_issued += issued
    sm.waiting_warps += slept
if lsu_busy:
    # Miss-handling occupancy countdown.  The snapshot is still
    # valid: only the drain below writes _lsu_busy, and it has not
    # run this cycle.
    sm._lsu_busy = lsu_busy - 1
elif lsu_queue:
    # LSU drain: probe the L1 for the head access's next line and
    # route hits, misses, and writes (the l1.access probe-and-
    # refresh dict dance, unrolled).  Memory-side capacity checks
    # and submission are the equivalent of memory.can_accept() /
    # memory.submit().  A back-pressured head advances nothing, so
    # the completion tail below is a no-op for it.
    access = lsu_queue[0]
    line = access.lines[access.idx]
    l1 = sm.l1
    st = sm._l1_data[line % sm._l1_sets]
    if access.is_write:
        # Write-through, no-allocate: every store line costs one
        # memory transaction; the warp has already moved on.
        if len(mem_ingress) < sm._ingress_depth:
            if line in st:
                l1.hits += 1
                del st[line]
                st[line] = None
            else:
                l1.misses += 1
            mem_ingress.append((sm.sm_id, line, req_write))
            if len(mem_ingress) > memory.peak_ingress:
                memory.peak_ingress = len(mem_ingress)
            sm._lsu_busy = sm._miss_cycles
            access.idx += 1
    elif line in st:
        l1.hits += 1
        del st[line]
        st[line] = None
        access.idx += 1
    else:
        l1.misses += 1
        # Miss instrumentation (CCWS).  One attribute load and one
        # None test per miss (~7 ns on CPython 3.11), so every loop
        # keeps the site rather than compiling a hook-free twin.
        sm_hooks = sm.hooks
        if sm_hooks is not None:
            sm_hooks.on_l1_miss(sm, access.warp, line)
        mshr = sm.mshr
        waiters = mshr.get(line)
        if waiters is not None:
            waiters.append(access)
            access.pending += 1
            access.idx += 1
            sm._lsu_busy = sm._miss_cycles
        elif (len(mshr) < sm._mshr_entries
                and len(mem_ingress) < sm._ingress_depth):
            mshr[line] = [access]
            access.pending += 1
            access.idx += 1
            mem_ingress.append((sm.sm_id, line, req_read))
            if len(mem_ingress) > memory.peak_ingress:
                memory.peak_ingress = len(mem_ingress)
            sm._lsu_busy = sm._miss_cycles
        # MSHR or ingress full: the head stalls and retries.
    if access.idx == len(access.lines):
        lsu_queue.popleft()
        access.issued_all = True
        if not access.is_write and access.pending == 0:
            # Pure L1 hit: data returns after the hit latency; the
            # wake path sees the needs-fetch mark and advances the
            # warp past the completed load.  W_WAITMEM -> W_SLEEP
            # keeps the warp in the waiting set: no counter change.
            warp = access.warp
            warp.state = w_sleep
            sm._needs_fetch.add(warp)
            due = target + sm._hit_latency
            bucket = buckets.get(due)
            if bucket is None:
                buckets[due] = [warp]
            else:
                bucket.append(warp)
"""


# ----------------------------------------------------------------------
# The memory-domain cycle body (the former MemorySubsystem.cycle, once).
#
# Local contract on entry: ``memory`` (the MemorySubsystem), ``now``
# (its already-incremented cycle_count), ``mem_resp``/``mem_ingress``/
# ``mem_dramq`` (its queues), ``deliver``, ``mem_l2``/``l2_data``/
# ``l2_sets``/``l2_ways``, and the ``dram_bpc``/``l2_ports``/
# ``l2_latency``/``dram_cap``/``dram_latency``/``line_bytes``/
# ``req_write`` configuration scalars.
# ----------------------------------------------------------------------
MEM_CYCLE_CORE = """\
if not (mem_resp or mem_ingress or mem_dramq):
    # Fully idle: nothing to deliver or drain, and with an empty
    # DRAM queue the bandwidth accumulator saturates at one cycle's
    # allowance -- what the full pass below computes, at a fraction
    # of the cost.
    memory._dram_acc = dram_bpc
else:
    # 1. Deliver responses whose latency has elapsed.
    rbucket = mem_resp.pop(now, None)
    if rbucket is not None:
        for r_sm, r_line, r_kind in rbucket:
            if r_kind != req_write:
                deliver(r_sm, r_line, r_kind)
    # 2. L2 ports drain the ingress queue toward the DRAM queue.
    # The (sm_id, line, kind) triple built at submit time travels
    # through every stage unchanged -- no repacking.  The L2 probe
    # keeps l2.access semantics: a blocked head-of-line transaction
    # re-probes -- and re-counts -- every cycle.
    if mem_ingress:
        l2_txns = memory.l2_txns
        l2_hits = mem_l2.hits
        l2_misses = mem_l2.misses
        for _ in range(l2_ports):
            txn = mem_ingress[0]
            line = txn[1]
            st = l2_data[line % l2_sets]
            if line in st:
                l2_hits += 1
                del st[line]
                st[line] = None
                mem_ingress.popleft()
                l2_txns += 1
                if txn[2] != req_write:
                    due = now + l2_latency
                    rbucket = mem_resp.get(due)
                    if rbucket is None:
                        mem_resp[due] = [txn]
                    else:
                        rbucket.append(txn)
            else:
                l2_misses += 1
                if len(mem_dramq) >= dram_cap:
                    break  # head-of-line blocked on DRAM
                mem_ingress.popleft()
                l2_txns += 1
                mem_dramq.append(txn)
                if len(mem_dramq) > memory.peak_dram_queue:
                    memory.peak_dram_queue = len(mem_dramq)
            if not mem_ingress:
                break
        memory.l2_txns = l2_txns
        mem_l2.hits = l2_hits
        mem_l2.misses = l2_misses
    # 3. DRAM bandwidth server (l2.fill semantics, victim
    # discarded: nothing observes L2 evictions).
    macc = memory._dram_acc + dram_bpc
    if mem_dramq and macc >= line_bytes:
        while True:
            macc -= line_bytes
            txn = mem_dramq.popleft()
            memory.dram_txns += 1
            if txn[2] == req_write:
                memory.writes_dropped += 1
            else:
                line = txn[1]
                st = l2_data[line % l2_sets]
                if line in st:
                    del st[line]
                    st[line] = None
                else:
                    mem_l2.fills += 1
                    st[line] = None
                    if len(st) > l2_ways:
                        mem_l2.evictions += 1
                        del st[next(iter(st))]
                due = now + dram_latency
                rbucket = mem_resp.get(due)
                if rbucket is None:
                    mem_resp[due] = [txn]
                else:
                    rbucket.append(txn)
            if not mem_dramq or macc < line_bytes:
                break
    if not mem_dramq and macc > dram_bpc:
        # Idle bandwidth cannot be banked for later bursts.
        macc = dram_bpc
    memory._dram_acc = macc
"""


# ----------------------------------------------------------------------
# Shared loop fragments.
# ----------------------------------------------------------------------

#: Local bindings shared by both run-loop skeletons.  ``gwde`` and the
#: memory structures are stable for a whole invocation, so one binding
#: outside the tick loop replaces millions of attribute loads inside
#: it.
LOOP_PROLOGUE = """\
start_tick = self.tick
interval = self.sim.equalizer.sample_interval
epoch_cycles = self.sim.equalizer.epoch_cycles
max_ticks = self.sim.max_ticks
sms = self.sms
nsms = len(sms)
memory = self.memory
mem_domain = self.mem_domain
gwde = self.gwde
gpu = self
self._ff_blocked = False
# Module constants as locals for the cycle body.
w_sleep = W_SLEEP
w_ready_alu = W_READY_ALU
w_ready_mem = W_READY_MEM
op_alu = OP_ALU
op_barrier = OP_BARRIER
op_tex = OP_TEX_LOAD
req_read = REQ_READ
req_write = REQ_WRITE
line_bytes = LINE_BYTES
# Stable memory-system structures for the idle-cycle check, the LSU
# drain, and the single-cycle memory path.
mem_resp = memory._responses
mem_ingress = memory.ingress
mem_dramq = memory.dram_queue
dram_bpc = memory.cfg.dram_bytes_per_cycle
deliver = memory.deliver
mem_l2 = memory.l2
l2_data = mem_l2._data
l2_sets = mem_l2.sets
l2_ways = mem_l2.ways
l2_ports = memory.cfg.l2_ports
l2_latency = memory.cfg.l2_latency
dram_cap = memory.cfg.dram_queue_depth
dram_latency = memory.cfg.dram_latency
"""

#: Quiescent fast-forward attempt; ``continue``s the tick loop on a
#: successful jump.  ``self._fast_forward`` dispatches to the chip-wide
#: or per-SM implementation.
FF_CHECK = """\
if (not self._ff_blocked and not mem_ingress
        and not mem_dramq
        and self.enable_fast_forward):
    for sm in sms:
        if (sm.ready_alu or sm.ready_mem or sm.lsu_queue
                or sm._lsu_busy):
            break
    else:
        if self._fast_forward(interval):
            continue
        # No skippable span until the next wake/launch/response
        # event; skip the scans until then.
        self._ff_blocked = True
"""

#: Per-SM idle gate: an SM with no issuable or LSU work and no warp
#: due this cycle cannot do anything observable, so it parks (its
#: clock lags) until a wake, fill, or epoch replays the idle span via
#: ``skip_cycles``.  Popping the due bucket doubles as the gate's
#: membership test (a miss pops nothing), and the bindings it makes
#: are exactly the cycle body's local contract.
CYCLE_GATE = """\
buckets = sm._sleep_buckets
bucket = buckets.pop(target, None)
ready_alu = sm.ready_alu
ready_mem = sm.ready_mem
lsu_queue = sm.lsu_queue
lsu_busy = sm._lsu_busy
if bucket is None and not (
        ready_alu or ready_mem
        or lsu_queue or lsu_busy):
    continue
lag = target - 1 - sm.cycle
if lag:
    sm.skip_cycles(lag, interval)
sm.cycle = target
"""

#: Memory clock-domain advance, rate-generic: the common rate-1.0 case
#: keeps its branch-free single specialization, and a DVFS'd memory
#: domain (zero or several memory cycles per tick) runs the *same*
#: inlined body per owed cycle.  The constants are already hoisted by
#: the prologue, so memory-DVFS sweeps never fall back to the
#: ``memory.cycle()`` method call.
MEM_ADVANCE = """\
acc = mem_domain._acc + mem_domain.rate
m = int(acc)
mem_domain._acc = acc - m
mem_domain.cycles += m
if m == 1:
    memory.cycle_count = now = memory.cycle_count + 1
    ${mem_cycle_core}
elif m:
    for _ in range(m):
        memory.cycle_count = now = memory.cycle_count + 1
        ${mem_cycle_core}
"""


# ----------------------------------------------------------------------
# The GWDE fragments: block launch / retire inlined.
#
# The run loops' drain condition and the SM's launch/retire paths used
# to go through ``GWDE.request`` / ``GWDE.notify_done`` method
# dispatch.  The fragments below inline the same bookkeeping against
# the GWDE's counters (``live`` = pending + outstanding, maintained as
# an invariant by both :class:`repro.sim.gwde.GWDE` and
# :class:`repro.sim.multikernel.PartitionedGWDE`); the methods remain
# as the reference API for external callers and the oracle's
# method-dispatch path.
# ----------------------------------------------------------------------

#: Invocation-drain condition: ``live`` counts blocks not yet retired
#: (pending + outstanding), so ``live == 0`` is exactly ``drained``
#: without the property call.
GWDE_WHILE = """\
while gwde.live or self.busy_sm_count:
"""

#: One block pulled from the SM's pool (``GWDE.request`` inlined).
#: ``pool`` is the deque ``gwde.pool_for(sm.sm_id)`` returned -- None
#: for an SM outside every partition, hence the falsy check.  A launch
#: moves a block from pending to outstanding, so ``live`` is
#: unchanged.
GWDE_LAUNCH = """\
if not pool:
    break
gwde.outstanding += 1
gwde.dispatched += 1
sm._launch_block(pool.popleft())
"""

#: One block retired (``GWDE.notify_done`` inlined).
GWDE_RETIRE = """\
gwde = sm.gpu.gwde
gwde.outstanding -= 1
gwde.live -= 1
"""


#: Vectorized busy-slot gate: the standard gate with an *ahead* guard
#: in front and a burst hand-off behind.  A successful burst executes a
#: whole run-ahead span of SM cycles at once (see
#: :mod:`repro.sim.vector`) and leaves the SM's clock *ahead* of the
#: domain, so the guard -- which must run before the bucket pop, or an
#: ahead SM would double-execute its wakes -- skips the SM's slots
#: until the domain catches up.  The burst precondition is the
#: fill-free closure argument: with no MSHR entries, no texture
#: requests, no LSU state and no deferred fetches, the SM can neither
#: produce nor consume a memory event, so its future is a pure
#: function of its sleep calendar and the planner may run it ahead of
#: the chip clock.  The same conditions keep miss instrumentation
#: exact: every ``sm.hooks`` call reads state a burst cannot touch
#: (``can_issue_mem`` needs ``ready_mem``, ``on_l1_miss`` an LSU drain,
#: ``on_l1_evict`` a fill).  Any divergence (memory state present or
#: the planner declining) falls through to the scalar cycle body with
#: the gate's bindings intact.  Declines are memoized on the SM
#: (``_vec_hold``) so dense decline regions neither pay the O(warps)
#: planning scan nor the burst call on every busy slot.
VECTOR_GATE = """\
if sm.cycle >= target:
    continue
""" + CYCLE_GATE + """\
if (not sm.mshr and target >= sm._vec_hold
        and not ready_mem and not lsu_queue
        and not lsu_busy and not sm.tex_pending
        and not sm._needs_fetch
        and gpu._vector_burst(sm, target, bucket, interval,
                              gpu._next_epoch_cycle)):
    gpu._ff_blocked = False
    continue
"""


# ----------------------------------------------------------------------
# The chip-wide fused run loop (GPU._cycle_loop).
# ----------------------------------------------------------------------
CHIP_LOOP = '''\
def _cycle_loop(self, workload):
    """Run the prepared invocation to completion; return its ticks.

    Compiled from repro.sim.cycle_kernel (chip-wide specialization):
    one shared SM clock domain, cycle-major SM iteration, epochs on
    the SM-cycle axis.  The catch-up ``skip_cycles`` calls guard on
    ``lag > 0``: behind the vector gate a burst SM may be ahead of
    the domain clock; behind the plain gate no SM ever is.
    """
    ${prologue}
    sm_domain = self.sm_domain
    orders = [[sms[i] for i in range(s, nsms)]
              + [sms[i] for i in range(s)]
              for s in range(nsms)]
    ${gwde_while}
        if self.tick >= max_ticks:
            raise SimulationError(
                f"{workload.name}: exceeded max_ticks={max_ticks}")
        ${ff_check}
        tick = self.tick + 1
        self.tick = tick
        # sm_domain.advance() unrolled: the same accumulator
        # arithmetic, without the per-tick method call.
        acc = sm_domain._acc + sm_domain.rate
        n = int(acc)
        sm_domain._acc = acc - n
        cbase = sm_domain.cycles
        sm_domain.cycles = cbase + n
        # Rotate the service order so no SM systematically wins
        # ingress arbitration (a fixed order starves high ids).
        order = orders[tick % nsms]
        for j in range(n):
            target = cbase + j + 1
            for sm in order:
                ${gate}
                ${cycle_core}
        ${mem_advance}
        if sm_domain.cycles >= self._next_epoch_cycle:
            c = sm_domain.cycles
            for sm in sms:
                lag = c - sm.cycle
                if lag > 0:
                    sm.skip_cycles(lag, interval)
            while sm_domain.cycles >= self._next_epoch_cycle:
                self._handle_epoch()
                self._next_epoch_cycle += epoch_cycles
            # The epoch horizon moved (and the controller may have
            # retuned), so a blocked fast-forward may now succeed.
            self._ff_blocked = False
    c = sm_domain.cycles
    for sm in sms:
        lag = c - sm.cycle
        if lag > 0:
            sm.skip_cycles(lag, interval)
    ticks = self.tick - start_tick
    self._invocation_ticks.append(ticks)
    return ticks
'''


# ----------------------------------------------------------------------
# The per-SM-VRM fused run loop (PerSMVRMGPU._cycle_loop).
# ----------------------------------------------------------------------
PER_SM_LOOP = '''\
def _cycle_loop(self, workload):
    """Run the prepared invocation to completion; return its ticks.

    Compiled from repro.sim.cycle_kernel (per-SM-VRM specialization):
    a private clock domain per SM, SM-major iteration (per-SM cycle
    counts diverge, so there is no common cycle axis to interleave
    on), epochs on the wall-clock tick axis.
    """
    ${prologue}
    domains = self.sm_domains
    ${gwde_while}
        if self.tick >= max_ticks:
            raise SimulationError(
                f"{workload.name}: exceeded max_ticks={max_ticks}")
        ${ff_check}
        tick = self.tick + 1
        self.tick = tick
        # SM-major: each SM runs every cycle its private domain owes
        # this tick before the next SM runs any.  The service order
        # rotates exactly as in the chip loop.
        start = tick % nsms
        for k in range(nsms):
            i = start + k
            if i >= nsms:
                i -= nsms
            sm = sms[i]
            dom = domains[i]
            # dom.advance() unrolled.
            acc = dom._acc + dom.rate
            n = int(acc)
            dom._acc = acc - n
            cbase = dom.cycles
            dom.cycles = cbase + n
            for j in range(n):
                target = cbase + j + 1
                ${gate}
                ${cycle_core}
        ${mem_advance}
        # Epochs follow wall-clock ticks here: per-SM cycle counts
        # diverge, so the decision heartbeat keys off the slowest
        # common clock (the nominal tick).
        if tick * 1.0 >= self._next_epoch_cycle:
            for sm, dom in zip(sms, domains):
                lag = dom.cycles - sm.cycle
                if lag:
                    sm.skip_cycles(lag, interval)
            while self.tick * 1.0 >= self._next_epoch_cycle:
                self._handle_epoch()
                self._next_epoch_cycle += epoch_cycles
            self._ff_blocked = False
    for sm, dom in zip(sms, domains):
        lag = dom.cycles - sm.cycle
        if lag:
            sm.skip_cycles(lag, interval)
    ticks = self.tick - start_tick
    self._invocation_ticks.append(ticks)
    return ticks
'''


# ----------------------------------------------------------------------
# The single-SM reference entry point (SM.cycle_once).
# ----------------------------------------------------------------------
CYCLE_ONCE = '''\
def cycle_once(self, sample_interval):
    """Execute one SM cycle.

    Compiled from repro.sim.cycle_kernel (single-SM specialization):
    the same cycle body the fused run loops execute, with the local
    contract bound per call instead of hoisted per invocation.  The
    run loops gate parked SMs before reaching the body; this entry
    point executes the cycle unconditionally.
    """
    sm = self
    gpu = sm.gpu
    interval = sample_interval
    memory = sm.memory
    mem_ingress = memory.ingress
    w_sleep = W_SLEEP
    w_ready_alu = W_READY_ALU
    w_ready_mem = W_READY_MEM
    op_alu = OP_ALU
    op_barrier = OP_BARRIER
    op_tex = OP_TEX_LOAD
    req_read = REQ_READ
    req_write = REQ_WRITE
    target = sm.cycle + 1
    sm.cycle = target
    buckets = sm._sleep_buckets
    bucket = buckets.pop(target, None)
    ready_alu = sm.ready_alu
    ready_mem = sm.ready_mem
    lsu_queue = sm.lsu_queue
    lsu_busy = sm._lsu_busy
    ${cycle_core}
'''


# ----------------------------------------------------------------------
# The block-launch entry point (SM.ensure_blocks).
# ----------------------------------------------------------------------
ENSURE_BLOCKS = '''\
def ensure_blocks(self):
    """Fill up to the target: unpause first, then pull from the GWDE.

    Compiled from repro.sim.cycle_kernel (block-launch
    specialization): the work-distribution hand-off is inlined as the
    GWDE launch fragment, so filling an SM costs deque and counter
    operations only.
    """
    sm = self
    gwde = sm.gpu.gwde
    pool = gwde.pool_for(sm.sm_id)
    while len(sm.blocks) < sm.target_blocks:
        if sm.paused_blocks:
            sm._unpause_one()
            continue
        ${gwde_launch}
'''


# ----------------------------------------------------------------------
# The block-retire entry point (SM._block_finished).
# ----------------------------------------------------------------------
BLOCK_FINISHED = '''\
def _block_finished(self, block):
    """Retire one finished block and refill from the GWDE.

    Compiled from repro.sim.cycle_kernel (block-retire
    specialization): the retirement notification is inlined as the
    GWDE retire fragment.  Retiring the last resident
    block drops the SM out of ``busy_sm_count``, which together with
    the inlined drain condition ends the run loop.
    """
    sm = self
    if block.paused:
        sm.paused_blocks.remove(block)
    else:
        blocks = sm.blocks
        idx = blocks.index(block)
        last = blocks.pop()
        if idx < len(blocks):
            blocks[idx] = last
    ${gwde_retire}
    sm.ensure_blocks()
    if (sm._counted_busy and not sm.blocks
            and not sm.paused_blocks):
        sm._counted_busy = False
        sm.gpu.busy_sm_count -= 1
'''


# ----------------------------------------------------------------------
# The memory-cycle entry point (MemorySubsystem.cycle).
# ----------------------------------------------------------------------
MEMORY_CYCLE = '''\
def cycle(self):
    """Execute one memory-domain cycle.

    Compiled from repro.sim.cycle_kernel: the same memory-cycle body
    the fused run loops specialize for the rate-1.0 case, with the
    configuration scalars bound per call instead of hoisted per
    invocation.
    """
    memory = self
    memory.cycle_count = now = memory.cycle_count + 1
    mem_resp = memory._responses
    mem_ingress = memory.ingress
    mem_dramq = memory.dram_queue
    cfg = memory.cfg
    dram_bpc = cfg.dram_bytes_per_cycle
    deliver = memory.deliver
    mem_l2 = memory.l2
    l2_data = mem_l2._data
    l2_sets = mem_l2.sets
    l2_ways = mem_l2.ways
    l2_ports = cfg.l2_ports
    l2_latency = cfg.l2_latency
    dram_cap = cfg.dram_queue_depth
    dram_latency = cfg.dram_latency
    line_bytes = LINE_BYTES
    req_write = REQ_WRITE
    ${mem_cycle_core}
'''


# ----------------------------------------------------------------------
# Template assembly and compilation.
# ----------------------------------------------------------------------
def _render(template: str, fragments: dict) -> str:
    """Substitute ``${name}`` placeholder lines, preserving indent.

    A placeholder must stand alone on its line; the fragment is
    re-indented to the placeholder's column, so nested fragments (the
    cycle body inside a loop skeleton) land at the right depth.
    """
    out = []
    for raw in template.splitlines():
        stripped = raw.strip()
        if stripped.startswith("${") and stripped.endswith("}"):
            name = stripped[2:-1]
            indent = raw[:len(raw) - len(raw.lstrip())]
            try:
                body = fragments[name]
            except KeyError:
                raise SimulationError(
                    f"cycle-kernel template references unknown "
                    f"fragment ${{{name}}}; known fragments: "
                    f"{sorted(fragments)}"
                ) from None
            if "${" in body:
                body = _render(body, fragments)
            out.append(textwrap.indent(body, indent).rstrip("\n"))
        else:
            out.append(raw)
    return "\n".join(out) + "\n"


def _fragments() -> dict:
    return {
        "prologue": LOOP_PROLOGUE,
        "ff_check": FF_CHECK,
        "gate": CYCLE_GATE,
        "cycle_core": SM_CYCLE_CORE,
        "mem_advance": MEM_ADVANCE,
        "mem_cycle_core": MEM_CYCLE_CORE,
        # Inlined GWDE drain condition, launch, and retire.
        "gwde_while": GWDE_WHILE,
        "gwde_launch": GWDE_LAUNCH,
        "gwde_retire": GWDE_RETIRE,
    }


def render_source(template: str, fragments=None) -> str:
    """The full generated source of one template (debugging aid).

    ``fragments`` overrides individual stock fragments by name; the
    differential oracle uses it to compile deliberately mutated cycle
    bodies without touching the canonical templates.
    """
    merged = _fragments()
    if fragments:
        merged.update(fragments)
    return _render(template, merged)


def _exec_globals() -> dict:
    # Imported lazily: repro.sim.memory builds its cycle method during
    # its own module initialization, before a top-level import here
    # could see it (the REQ_* constants are defined first, so this
    # late lookup always succeeds).
    from .memory import REQ_READ, REQ_WRITE
    return {
        "W_SLEEP": W_SLEEP,
        "W_READY_ALU": W_READY_ALU,
        "W_READY_MEM": W_READY_MEM,
        "OP_ALU": OP_ALU,
        "OP_BARRIER": OP_BARRIER,
        "OP_TEX_LOAD": OP_TEX_LOAD,
        "REQ_READ": REQ_READ,
        "REQ_WRITE": REQ_WRITE,
        "LINE_BYTES": LINE_BYTES,
        "SimulationError": SimulationError,
    }


def _unresolved_names(source: str, namespace: dict) -> set:
    """Names ``source`` reads as globals that nothing will ever bind.

    A fragment rendered into a skeleton that lacks its local contract
    compiles fine and only fails at run time with a ``NameError`` from
    the generated code.
    :mod:`symtable` sees the mistake statically: a name a function
    reads but never assigns is an implicit global, and a global that
    is neither in the exec namespace nor a builtin cannot resolve.
    """
    try:
        top = symtable.symtable(source, "<cycle-kernel>", "exec")
    except SyntaxError:
        return set()  # compile() below reports syntax errors better
    unresolved = set()
    stack = list(top.get_children())
    while stack:
        table = stack.pop()
        stack.extend(table.get_children())
        if table.get_type() != "function":
            continue
        for sym in table.get_symbols():
            name = sym.get_name()
            if (sym.is_global() and name not in namespace
                    and not hasattr(builtins, name)):
                unresolved.add(name)
    return unresolved


def compile_template(tag: str, template: str, entry: str, fragments=None):
    """Compile ``template`` and return its ``entry`` callable.

    The rendered source is registered with :mod:`linecache` under
    ``<cycle-kernel:tag>`` so tracebacks, pdb, and
    ``inspect.getsource`` resolve line numbers into real text.
    ``fragments`` overrides stock fragments by name (see
    :func:`render_source`); the oracle's injected-bug tests compile a
    mutated ``MEM_CYCLE_CORE`` this way.  A fragment/skeleton combo
    that does not compose -- the rendered source reads names the
    skeleton never binds -- is rejected here with the offending names,
    instead of surfacing later as a ``NameError`` from generated code.
    """
    source = render_source(template, fragments)
    filename = f"{SOURCE_PREFIX}{tag}>"
    namespace = _exec_globals()
    bad = _unresolved_names(source, namespace)
    if bad:
        raise SimulationError(
            f"cycle-kernel specialization {tag!r} does not compose: "
            f"the rendered source reads names no skeleton binding or "
            f"exec global supplies: {sorted(bad)} (a fragment was "
            f"rendered into a skeleton that lacks its local contract)")
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename)
    try:
        return namespace[entry]
    except KeyError:
        raise SimulationError(
            f"cycle-kernel template {tag!r} defines no entry point "
            f"{entry!r}"
        ) from None


#: Every compiled specialization, keyed by its linecache tag.  ``kind``
#: distinguishes the single-step reference entry points ("method") from
#: the fused run loops ("run-loop"); the differential oracle derives
#: its execution-path matrix from this registry instead of hard-coding
#: the paths, so a new specialization added here is automatically
#: fuzzed (or rejected by the oracle's coverage test until a family
#: binding exists for it).
#:
#: There is one run loop per GPU class.  ``vector-loop`` is the chip
#: skeleton with the vectorized busy-slot gate as its ``gate``
#: fragment.
SPECIALIZATIONS = {
    "cycle-once": {
        "template": CYCLE_ONCE,
        "entry": "cycle_once",
        "kind": "method",
        "installed_as": "repro.sim.sm.SM.cycle_once",
    },
    "memory-cycle": {
        "template": MEMORY_CYCLE,
        "entry": "cycle",
        "kind": "method",
        "installed_as": "repro.sim.memory.MemorySubsystem.cycle",
    },
    "ensure-blocks": {
        "template": ENSURE_BLOCKS,
        "entry": "ensure_blocks",
        "kind": "method",
        "installed_as": "repro.sim.sm.SM.ensure_blocks",
    },
    "block-finished": {
        "template": BLOCK_FINISHED,
        "entry": "_block_finished",
        "kind": "method",
        "installed_as": "repro.sim.sm.SM._block_finished",
    },
    "chip-loop": {
        "template": CHIP_LOOP,
        "entry": "_cycle_loop",
        "kind": "run-loop",
        "installed_as": "repro.sim.gpu.GPU._cycle_loop",
    },
    "per-sm-loop": {
        "template": PER_SM_LOOP,
        "entry": "_cycle_loop",
        "kind": "run-loop",
        "installed_as": "repro.sim.per_sm_vrm.PerSMVRMGPU._cycle_loop",
    },
    "vector-loop": {
        "template": CHIP_LOOP,
        "entry": "_cycle_loop",
        "kind": "run-loop",
        "installed_as": "repro.sim.vector.VectorGPU._cycle_loop",
        "fragments": {"gate": VECTOR_GATE},
    },
}


def build(tag: str):
    """Compile the registered specialization ``tag``."""
    try:
        spec = SPECIALIZATIONS[tag]
    except KeyError:
        raise SimulationError(
            f"unknown cycle-kernel specialization {tag!r}; "
            f"known: {sorted(SPECIALIZATIONS)}; "
            f"valid fragment-override keys: {sorted(_fragments())}"
        ) from None
    return compile_template(tag, spec["template"], spec["entry"],
                            spec.get("fragments"))
