"""Vectorized busy-slot execution: numpy SoA bursts over warp cadence.

PR 6 measured the simulator's cost structure honestly: the suite is
busy-slot dominated (cutcp runs ~118k busy SM-cycle slots against
~1.5k idle ones) and each busy slot costs irreducible Python
interpretation in the scalar cycle body.  This module attacks the busy
slots themselves.  A probe over the representative kernels shows where
the attackable regime is: slots where the SM holds *no* memory-system
state -- empty MSHRs, no texture requests in flight, empty LSU queue,
no miss-path countdown, no deferred fetches -- and every resident
runnable warp is mid ALU cadence.  In that regime the SM can neither
produce nor consume a memory event, so no fill can arrive (fills only
answer requests) and the SM's future is a pure function of its sleep
calendar: the loop may execute it arbitrarily far *ahead* of the chip
clock without changing anything observable.

The planner (:func:`_try_burst`) exploits exactly that closure.  At a
gated busy slot it collects the SM's ALU cadence -- the ready-queue
backlog, the warps waking this cycle, and every future sleep-bucket
arrival -- as a structure of arrays (FIFO position -> warp, arrival
due, committed service count), proves a span ``[c0, H)`` on which the
scalar scheduler's behaviour collapses to a closed form, executes the
whole span at once with numpy array arithmetic, and resyncs the SM's
scalar state (queues, sleep buckets, ``prog._j`` run counters,
Equalizer samples, the incremental active/waiting counters) to be
*bit-identical* to what cycle-by-cycle execution would have produced.
The SM's clock parks at ``H - 1``, ahead of the domain; the vector
gate skips its slots until the domain catches up.

Why the closed form is exact
----------------------------
Within the span every runnable warp's head is an ALU op with one
shared dependence latency ``dep``, so the scalar body degenerates to:
wake arrivals in due order, dual-issue ``A = alu_issue_width`` warps
per cycle off the FIFO queue, and put each issued warp back to sleep
for ``dep`` cycles.  Provided the queue never underflows (``qlen >=
A`` every cycle -- checked in closed form over the ``dep``-length
prefix, beyond which the requirement is flat while arrivals are
nondecreasing), service ``i`` (0-indexed, ``A`` per cycle) always goes
to FIFO position ``i mod N`` of the ``N`` cadence warps at cycle
``c0 + i // A``.  That positional schedule makes per-warp service
counts, re-arrival dues, sample-boundary queue lengths, and the final
queue/bucket order all closed-form functions of ``(N, A, dep, H)`` --
no per-cycle work at all.

Boundaries -- a warp exhausting its ALU run -- are the only events
that need the program.  A program draws no random numbers while it
runs: its jitter, store coins and mixed-address choices were drawn into
its schedule at construction (:mod:`repro.workloads.schedule`), so its
op stream is a pure function of its own cursor, whoever calls
``next_op`` and whenever.  What the burst must get right is only *how
many* ``next_op`` calls each warp receives before ``H``.  Boundaries
are processed from a heap in *global service order* (the order the
scalar loop would have called ``next_op``) so that the span end is
settled before any boundary at or past it is consumed.  A boundary
that starts another ALU run extends the cadence; a boundary that
fetches a memory op ends the span just after its cycle; a
barrier/retire boundary is *peeked* (the branch predicate of
``next_op``, evaluated without calling it) and ends the span just
before its cycle, so the scalar body replays that cycle with the
cursor untouched.

Everything outside the pure regime -- pauses, hooks, texture state,
any LSU/MSHR occupancy, non-uniform dependence latencies, non-ALU
heads, foreign program types -- declines the burst before any state is
touched and falls through to the scalar body.

numpy is optional: without it :class:`VectorGPU` keeps the scalar chip
loop, and every result is identical either way -- the vector oracle
family, the golden digests, and the numpy-absent CI job all pin this.
"""

import heapq

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in requirements-ci
    _np = None

from ..workloads.program import WarpProgram
from .cycle_kernel import build_vector_cycle_loop
from .gpu import GPU
from .instruction import OP_ALU
from .warp import W_READY_ALU, W_SLEEP

#: Spans shorter than this are not worth the planning overhead; the
#: scalar body executes them.  Declining is free (no state touched).
#: Empirically a burst costs ~120 us fixed (heap + numpy set-up +
#: resync) and the covered slots are the *cheap* pure-ALU ones
#: (~1.4 us each at full bench scale), so the breakeven executed span
#: is ~90 cycles; the net-gain curve over the measured cutcp span
#: distribution peaks at a cutoff of ~96-128.  See
#: docs/simulator-internals.md for the full cost model.
MIN_SPAN = 96

#: Upper bound on one burst's length, so planning structures stay
#: small and a pathological calendar cannot build an unbounded heap.
MAX_SPAN = 4096


def have_numpy() -> bool:
    """True when the vector backend can actually vectorize."""
    return _np is not None


def default_gpu_class():
    """The default busy-slot executor class for :func:`run_kernel`.

    The vectorized loop when numpy is importable, the scalar chip loop
    otherwise; results are bit-identical either way.
    """
    return VectorGPU if _np is not None else GPU


def _try_burst(sm, c0, bucket, interval, epoch_bound):
    """Plan and execute one fill-free span burst for ``sm`` at ``c0``.

    ``bucket`` is the already-popped wake bucket for ``c0`` (or None).
    Returns True after executing cycles ``[c0, H)`` and parking
    ``sm.cycle`` at ``H - 1``; returns False -- with *no* state
    touched -- when the slot is not a profitable pure-ALU span, in
    which case the scalar body runs the cycle from the gate's intact
    bindings.  Bursts never cross ``epoch_bound`` (the next controller
    decision point), so epoch records, power segments, and controller
    observations are untouched by construction.

    Declines are memoized: whatever bounded or disqualified the span
    keeps doing so for nearby cycles (a retry one cycle later can only
    see a shorter span to the same bound), so the gate skips further
    attempts until ``sm._vec_hold``.  Planning is read-only, so a
    skipped attempt costs at most MIN_SPAN - 1 slots of coverage and
    never correctness; without the memo, dense decline regions pay the
    O(warps) cadence scan on every busy slot and planning overhead
    swamps the burst savings.
    """
    if _plan(sm, c0, bucket, interval, epoch_bound):
        return True
    sm._vec_hold = c0 + MIN_SPAN
    return False


def _plan(sm, c0, bucket, interval, epoch_bound):
    ready_alu = sm.ready_alu
    buckets = sm._sleep_buckets
    nA = sm._alu_width
    q0 = len(ready_alu)

    # ---- cheap span bound first (sleep calendar only) ----------------
    # Most declines are short spans bounded by a near arrival; find
    # that bound from the calendar alone before paying the O(warps)
    # homogeneity scan of the ready backlog.  ``dep`` is read from the
    # first cadence warp and re-verified for every warp below.
    if q0:
        w0 = ready_alu[0]
    elif bucket:
        w0 = bucket[0]
    else:
        return False
    if w0.program.__class__ is not WarpProgram:
        return False
    dep = w0.dep_latency

    h = c0 + MAX_SPAN
    if epoch_bound + 1 < h:
        # Cycles up to and including the epoch boundary execute before
        # the epoch handler runs, so H may reach epoch_bound + 1.
        h = epoch_bound + 1
    span_keys = []
    nf = 0
    for k in sorted(buckets):
        if k >= h:
            break
        if k > c0 + dep:
            # Positional round-robin is exact only while every initial
            # arrival precedes the first re-arrival append (cycle
            # c0 + dep); a later fresh arrival would interleave into
            # the FIFO behind re-arrivals and break the i mod N
            # mapping.  Ordinary ALU sleeps are due by c0 - 1 + dep,
            # so this bound almost never bites.
            h = k
            break
        good = True
        for w in buckets[k]:
            if (w.paused or w.head_op != OP_ALU
                    or w.program.__class__ is not WarpProgram
                    or w.dep_latency != dep):
                good = False
                break
        if not good:
            # A non-cadence arrival bounds the span; it and everything
            # due later stay untouched in their buckets.
            h = k
            break
        span_keys.append(k)
        nf += len(buckets[k])
    if h - c0 < MIN_SPAN:
        return False

    # ---- cadence collection (read-only) -------------------------------
    # FIFO order: the ready backlog, then this cycle's wakes, then
    # future arrivals in due order -- exactly the order the scalar
    # wake/issue path would build the queue in.  Warps in ready_alu
    # are unpaused with an ALU head by construction of the wake path,
    # so only program type and dependence latency need verifying.
    n = q0 + (len(bucket) if bucket is not None else 0) + nf
    if n < nA:
        return False
    for w in ready_alu:
        if (w.dep_latency != dep
                or w.program.__class__ is not WarpProgram):
            return False
    warps = list(ready_alu)
    if bucket is not None:
        for w in bucket:
            if (w.paused or w.head_op != OP_ALU
                    or w.program.__class__ is not WarpProgram
                    or w.dep_latency != dep):
                return False
        warps += bucket
    dues = [c0] * len(warps)
    for k in span_keys:
        for w in buckets[k]:
            warps.append(w)
            dues.append(k)

    # ---- saturation pre-check (closed form, read-only) ---------------
    # Full dual issue needs qlen >= A before every issue.  With A
    # re-arrivals per cycle from dep cycles back, underflow can only
    # begin while the pipeline fills: check the dep-length prefix,
    # beyond which the requirement is flat while arrivals only grow.
    limit = c0 + dep
    if h < limit:
        limit = h
    idx = 0
    need = 0
    c = c0
    while c < limit:
        need += nA
        while idx < n and dues[idx] <= c:
            idx += 1
        if idx < need:
            h = c
            break
        c += 1
    if h - c0 < MIN_SPAN:
        return False

    # ---- read-only boundary peek ------------------------------------
    # First boundary of warp p (FIFO position p) is service index
    # j0*N + p at cycle c0 + index // A.  A mem boundary ends the span
    # just after its cycle, a special (barrier/retire) just before;
    # iteration starts can only extend the cadence and are left to the
    # committed event loop.
    for p in range(n):
        prog = warps[p].program
        s = c0 + (prog._j * n + p) // nA
        if s >= h:
            continue
        if prog._emit_mem:
            if s + 1 < h:
                h = s + 1
        elif prog._pending_barrier or prog._i >= prog.total_iterations:
            h = s
    if h - c0 < MIN_SPAN:
        return False

    # ---- committed: boundary event loop in global service order ------
    # From here on cursors advance; every next_op call's service cycle
    # precedes the final H, so the burst must complete (it always can
    # -- H only shrinks to cycles the closed form still covers).
    progs = [w.program for w in warps]
    base_j = [0] * n
    base_t = [0] * n
    exited = [False] * n
    heap = []
    for p in range(n):
        prog = progs[p]
        base_j[p] = prog._j
        heap.append((prog._j * n + p, p))
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        s = c0 + heap[0][0] // nA
        if s >= h:
            break
        group = [pop(heap)]
        while heap and c0 + heap[0][0] // nA == s:
            group.append(pop(heap))
        special = False
        for i, p in group:
            prog = progs[p]
            if (not prog._emit_mem
                    and (prog._pending_barrier
                         or prog._i >= prog.total_iterations)):
                special = True
                break
        if special:
            # The whole cycle replays scalar; no cursor moved at s,
            # so the scalar body's next_op calls line up.
            h = s
            break
        for i, p in group:
            prog = progs[p]
            # The i // n fast issues before this boundary are
            # committed (their service cycles all precede s); zero
            # the run counter so next_op takes the boundary branch.
            prog._j = 0
            op, payload = prog.next_op()
            if op == OP_ALU:
                base_j[p] = prog._j
                base_t[p] = i // n + 1
                push(heap, (i + (prog._j + 1) * n, p))
            else:
                w = warps[p]
                w.head_op = op
                w.head_payload = payload
                exited[p] = True
                if s + 1 < h:
                    h = s + 1

    # ---- resync: closed-form state at the start of cycle H -----------
    length = h - c0
    issued = nA * length
    ps = _np.arange(n)
    n_p = (issued - 1 - ps) // n + 1
    _np.maximum(n_p, 0, out=n_p)
    dues_a = _np.asarray(dues, dtype=_np.int64)
    served = n_p > 0
    i_last = (n_p - 1) * n + ps
    # Next-arrival due: last service + dep for served warps, the
    # original due for unserved ones.  Unserved arrivals sort ahead of
    # any same-due span re-arrival (their bucket entries were appended
    # before the span began), hence the p - n key.
    d_p = _np.where(served, c0 + i_last // nA + dep, dues_a)
    i_key = _np.where(served, i_last, ps - n)
    order = _np.lexsort((i_key, d_p))

    n_list = n_p.tolist()
    for p in range(n):
        if not exited[p]:
            progs[p]._j = base_j[p] - (n_list[p] - base_t[p])

    for k in span_keys:
        if k < h:
            del buckets[k]
    ready_alu.clear()
    d_list = d_p.tolist()
    for p in order.tolist():
        d = d_list[p]
        if d < h:
            w = warps[p]
            w.state = W_READY_ALU
            ready_alu.append(w)
        elif n_list[p]:
            w = warps[p]
            w.state = W_SLEEP
            b = buckets.get(d)
            if b is None:
                buckets[d] = [w]
            else:
                b.append(w)
        # else: an arrival past the final span end -- still sitting in
        # its original bucket, untouched.

    sm.insts_issued += issued
    sm.alu_issued += issued
    w0 = sm.waiting_warps
    ns = sm._next_sample_cycle
    if ns < h:
        # Sample-boundary cycles inside the span, in closed form:
        # queue length after wake / before issue, excess over the
        # issue width, and the waiting count.  xmem and idle are
        # identically zero across a saturated pure-ALU span.
        qs = _np.arange(ns, h, interval)
        ninit = _np.searchsorted(dues_a, qs, side="right")
        re = nA * _np.maximum(0, qs - (c0 + dep) + 1)
        done = nA * (qs - c0)
        xalu = ninit + re - done - nA
        _np.maximum(xalu, 0, out=xalu)
        waiting = w0 - (ninit - q0) - re + done
        k = len(qs)
        active = sm.active_warps
        sx = int(xalu.sum())
        sw = int(waiting.sum())
        sm.epoch_active += active * k
        sm.epoch_waiting += sw
        sm.epoch_xalu += sx
        sm.epoch_samples += k
        sm.tot_active += active * k
        sm.tot_waiting += sw
        sm.tot_xalu += sx
        sm.tot_samples += k
        sm._next_sample_cycle = int(qs[-1]) + interval
    wakes = int(_np.searchsorted(dues_a, h - 1, side="right")) - q0
    wakes += nA * max(0, h - 1 - (c0 + dep) + 1)
    sm.waiting_warps = w0 - wakes + issued
    sm.cycle = h - 1
    if sm.debug_counters:
        sm._verify_counters()
    return True


class VectorGPU(GPU):
    """GPU with the vectorized busy-slot run loop installed.

    Bit-identical to :class:`GPU` by construction (the vector oracle
    family and the golden digests pin it); without numpy it *is* the
    scalar chip loop.  Only the hook-free variant is vectorized: the
    burst regime exists because nothing can observe inside a span, so
    an instrumented run (CCWS) dispatches to the inherited
    hook-bearing chip loop -- which is what the old per-slot gate
    check degenerated to anyway (every burst declined).
    """

    if _np is not None:
        _loop_hook_free = build_vector_cycle_loop()

    def _vector_burst(self, sm, target, bucket, interval, epoch_bound):
        return _try_burst(sm, target, bucket, interval, epoch_bound)
