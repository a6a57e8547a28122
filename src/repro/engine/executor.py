"""Plan/execute core of the experiment engine.

:class:`Engine` owns one (SimConfig, scale) pair plus the two cache
layers -- an in-process memory dict and the content-addressed
:class:`~repro.engine.cache.DiskCache` -- and resolves job plans
through one supervised watchdog loop over a
``concurrent.futures.ProcessPoolExecutor``.

Every plan runs over a :class:`~repro.engine.store.JobStore` ledger:
the caller's persistent one for a durable sweep (it survives driver
death; ``sweep --resume`` reaps the stranded claims and continues),
otherwise a private in-memory one that lives for one
:meth:`Engine.execute` call.  :meth:`Engine.serve_queue` drives the
same loop from a live feed.  The watchdog never blocks indefinitely
on a worker: every job carries a wall-clock budget, a hung worker is
killed (the whole pool is torn down and rebuilt; innocent in-flight
jobs are resubmitted without being charged an attempt), a failed
attempt is retried after a deterministic exponential backoff up to
the attempt budget, and a job that exhausts it is quarantined with a
record carrying the full traceback and an exact solo-repro command.
All of this holds at every worker count, one included.

:meth:`Engine.run` is the in-process path, for single runs and
debugging; it is never supervised nor faulted.

Simulations are deterministic, so supervision changes only who runs a
job and what happens when it dies, never what it computes: a plan
executed with ``jobs=4`` -- even under injected faults
(:mod:`repro.faults`) -- populates byte-identical caches to a clean
one-worker pass.
"""

import json
import sys
import time
import traceback
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                wait as futures_wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import faults
from ..config import SimConfig
from ..errors import EngineError
from ..sim import RunResult, run_kernel
from ..sim.results import encode_controller_key
from ..workloads import build_workload, kernel_by_name
from .cache import DEFAULT_CACHE_DIR, DiskCache
from .fingerprint import job_digest
from .jobs import ControllerKey, Job, make_controller
from .store import JobStore

#: Default per-job wall-clock budget (seconds).  Generous -- a healthy
#: full-scale job finishes orders of magnitude sooner -- but finite, so
#: a wedged worker can never hold a sweep hostage.
DEFAULT_TIMEOUT = 3600.0

#: Default attempt budget (matches the historical retry-once contract).
DEFAULT_MAX_ATTEMPTS = 2

#: Deterministic exponential backoff between attempts:
#: ``min(cap, base * 2**(attempt-1))`` seconds.
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_CAP = 30.0

#: Default claim lease; running jobs re-lease via heartbeats well
#: inside this window.
DEFAULT_LEASE = 60.0

#: Watchdog poll granularity (seconds).
_POLL = 0.25


def execute_job(kernel: str, key: ControllerKey, scale: float,
                sim: SimConfig) -> Tuple[RunResult, float]:
    """Run one simulation; the process-pool worker entry point."""
    start = time.perf_counter()
    workload = build_workload(kernel_by_name(kernel), scale=scale,
                              seed=sim.seed)
    controller = make_controller(key, sim.equalizer)
    result = run_kernel(workload, sim, controller=controller)
    return result, time.perf_counter() - start


def _run_supervised(worker, actions, kernel, key, scale, sim):
    """Pool-worker wrapper: apply injected faults, then run the job.

    ``actions`` is the (deterministic, driver-computed) fault action
    list for this attempt -- empty or None outside chaos runs.  This
    wrapper is the worker-entry-point injection site for the ``crash``
    and ``hang`` fault classes.
    """
    if actions:
        faults.apply_worker_actions(actions)
    return worker(kernel, key, scale, sim)


def _kernel_major(jobs: List[Job]) -> List[Job]:
    """``jobs`` grouped by kernel, kernels in order of first appearance.

    A pool worker then runs one kernel's jobs back to back, so each
    job after its first finds the kernel's warp draw schedules in the
    worker's one-kernel memo (``repro.workloads.spec``) and builds its
    warps without seeding an RNG.
    """
    groups: Dict[str, List[Job]] = {}
    for job in jobs:
        groups.setdefault(job.kernel, []).append(job)
    return [job for group in groups.values() for job in group]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes without waiting on them.

    The only way to stop a hung worker is to terminate its process;
    ``shutdown`` alone would block behind the hang forever.
    """
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except OSError:  # pragma: no cover - already gone
            pass
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class JobOutcome:
    """What happened to one job during :meth:`Engine.execute`."""

    job: Job
    #: "memory", "disk", or "run".
    source: str
    seconds: float = 0.0
    attempts: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ExecutionReport:
    """Aggregate of one :meth:`Engine.execute` call."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1

    @property
    def planned(self) -> int:
        return len(self.outcomes)

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.ok and o.source in ("memory", "disk"))

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.ok and o.source == "run")

    @property
    def failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def summary(self) -> str:
        line = (f"engine: {self.planned} jobs, {self.hits} cached, "
                f"{self.executed} executed with {self.workers} "
                f"worker(s) in {self.wall_seconds:.1f}s")
        if self.failures:
            line += f", {len(self.failures)} FAILED"
        return line

    def raise_on_failure(self) -> None:
        if self.failures:
            parts = []
            for o in self.failures:
                lines = (o.error or "").strip().splitlines()
                detail = lines[-1] if lines else "(no error detail)"
                parts.append(f"{o.job.label()}: {detail}")
            raise EngineError(
                f"{len(self.failures)} job(s) failed after retry: "
                f"{'; '.join(parts)}")


class Engine:
    """Executes simulation jobs against a two-level run cache."""

    def __init__(self, sim: Optional[SimConfig] = None,
                 scale: float = 1.0, jobs: int = 1,
                 cache_dir: str = DEFAULT_CACHE_DIR,
                 use_cache: bool = True, worker=None,
                 timeout: Optional[float] = DEFAULT_TIMEOUT,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 lease_s: float = DEFAULT_LEASE) -> None:
        if jobs < 1:
            raise EngineError("jobs must be >= 1")
        if timeout is not None and timeout <= 0:
            raise EngineError("timeout must be positive (or None)")
        if max_attempts < 1:
            raise EngineError("max_attempts must be >= 1")
        if lease_s <= 0:
            # A zero lease makes every claim instantly reapable: a
            # second driver on the ledger would rerun live jobs.
            raise EngineError("lease must be positive")
        self.sim = sim or SimConfig()
        self.scale = scale
        self.jobs = jobs
        #: Per-job wall-clock budget.  None disables the watchdog
        #: deadline (the loop still polls rather than blocking).
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.lease_s = lease_s
        self.disk = DiskCache(cache_dir) if use_cache else None
        self._cache_degraded = False
        self._worker = worker or execute_job
        self._memory: Dict[Tuple[str, ControllerKey], RunResult] = {}

    # -- cache plumbing ------------------------------------------------

    def digest(self, job: Job) -> str:
        """Content address of a job under this engine's config.

        A job carrying its own precomputed ``digest`` (oracle cases,
        whose kernels are synthetic rather than Table II names) wins;
        otherwise the digest is derived from the kernel spec, the
        SimConfig, the scale, and the behaviour-code salt.
        """
        if job.digest is not None:
            return job.digest
        return job_digest(job, kernel_by_name(job.kernel), self.sim,
                          self.scale)

    def lookup(self, job: Job) -> Tuple[Optional[RunResult], str]:
        """(result, source) with source "memory"/"disk"/"miss"."""
        hit = self._memory.get((job.kernel, job.key))
        if hit is not None:
            return hit, "memory"
        if self.disk is not None:
            hit = self.disk.get(self.digest(job))
            if hit is not None:
                self._memory[(job.kernel, job.key)] = hit
                return hit, "disk"
        return None, "miss"

    def _store(self, job: Job, result: RunResult,
               seconds: float) -> None:
        self._memory[(job.kernel, job.key)] = result
        if self.disk is not None:
            try:
                self.disk.put(self.digest(job), job, self.scale,
                              result, seconds)
            except OSError as exc:
                self._degrade_cache(exc)

    def _degrade_cache(self, exc: BaseException) -> None:
        """A cache write failed: warn once, go cache-less, keep going.

        The result that triggered this is already in the memory layer;
        losing a cache entry only costs a recomputation on some later
        run, which determinism makes byte-identical.
        """
        if not self._cache_degraded:
            self._cache_degraded = True
            print("engine: disk cache write failed; continuing "
                  f"without the disk cache ({exc})", file=sys.stderr)
        self.disk = None

    # -- single-run façade path ----------------------------------------

    def run(self, kernel: str, key: ControllerKey) -> RunResult:
        """Run (or recall) one kernel under one controller key.

        Runs in this process through the engine's worker, unsupervised
        (no deadline, retry or injected fault): the path for single
        runs and debugging.  Plans go through :meth:`execute`.
        """
        job = Job(kernel=kernel, key=tuple(key))
        hit, _ = self.lookup(job)
        if hit is not None:
            return hit
        result, seconds = self._worker(kernel, job.key, self.scale,
                                       self.sim)
        self._store(job, result, seconds)
        return result

    def __len__(self) -> int:
        return len(self._memory)

    # -- plan execution ------------------------------------------------

    def execute(self, plan: List[Job],
                store: Optional[JobStore] = None) -> ExecutionReport:
        """Resolve every job in the plan through a job ledger.

        Cache hits are resolved first.  Every job is registered in the
        ledger -- ``store`` for a durable sweep (idempotently: ``done``
        stays done, and claims stranded by a dead driver are reaped
        first), else a private in-memory :class:`JobStore` closed on
        return -- and the misses run under the supervised watchdog,
        even with one worker, so hung workers can be killed.  Failed
        attempts are retried (with backoff) up to ``max_attempts``; a
        job that exhausts the budget lands in the report's failures.
        A killed driver leaves ``store`` consistent: re-invoking with
        it resumes exactly where the driver died.

        Misses are submitted kernel-major (see :func:`_kernel_major`);
        registration and the report's outcomes keep plan order.
        """
        start = time.perf_counter()
        ledger = store if store is not None else JobStore(":memory:")
        by_job: Dict[Job, JobOutcome] = {}
        todo: List[Job] = []
        try:
            ledger.reap()
            for job in dict.fromkeys(plan):
                digest = self.digest(job)
                ledger.register(digest, job.kernel, job.key, self.scale)
                hit, source = self.lookup(job)
                if hit is not None:
                    by_job[job] = JobOutcome(job=job, source=source)
                    ledger.mark_done(digest)
                    continue
                if ledger.state(digest) == "done":
                    # Done in a previous run but the cache entry is
                    # gone (wiped, or writes were degraded): rerun it.
                    ledger.requeue_lost(digest)
                todo.append(job)
            if todo:
                self._supervise(_kernel_major(todo), by_job, ledger)
        finally:
            if store is None:
                ledger.close()
        return ExecutionReport(
            outcomes=[by_job[job] for job in dict.fromkeys(plan)],
            wall_seconds=time.perf_counter() - start,
            workers=self.jobs)

    def serve_queue(self, store: JobStore, feed, on_outcome=None,
                    stop=None) -> Dict[Job, JobOutcome]:
        """Continuously claim and run jobs fed by a live queue.

        Serving mode of the supervised watchdog: instead of a fixed
        plan, ``feed(max_n, timeout)`` is polled every pass for up to
        ``max_n`` newly admitted jobs (blocking up to ``timeout``
        seconds when the loop is otherwise idle, so arrivals are
        picked up promptly without spinning).  Each fed job is
        registered in the persistent ``store``, executed under the
        same deadlines/backoff/quarantine policy as :meth:`execute`,
        and reported through ``on_outcome`` (called once per job, from
        this thread, when the job reaches a terminal state).  The loop
        runs until ``stop`` (a :class:`threading.Event`) is set, then
        finishes what is in flight and returns; jobs still waiting
        stay ``new`` in the ledger, which is what lets a restarted
        server resume its queue.
        """
        if stop is None:
            raise EngineError("serve_queue requires a stop event")
        by_job: Dict[Job, JobOutcome] = {}
        store.reap()
        self._supervise([], by_job, store, feed=feed,
                        on_outcome=on_outcome, stop=stop)
        return by_job

    # -- supervised pool path ------------------------------------------

    def _backoff(self, attempt: int) -> float:
        """Deterministic exponential backoff after a failed attempt."""
        return min(DEFAULT_BACKOFF_CAP,
                   self.backoff_base * (2.0 ** (attempt - 1)))

    def _quarantine_record(self, job: Job, digest: str, attempt: int,
                           error: str) -> Dict:
        """Everything needed to reproduce a quarantined job solo."""
        key_json = json.dumps(list(job.key))
        repro = ("PYTHONPATH=src python -m repro.engine solo "
                 f"--kernel {job.kernel} --key '{key_json}' "
                 f"--scale {self.scale}")
        return {"job": job.label(), "kernel": job.kernel,
                "key": encode_controller_key(job.key),
                "scale": self.scale, "digest": digest,
                "attempts": attempt, "error": error, "repro": repro}

    def _supervise(self, jobs: List[Job],
                   by_job: Dict[Job, JobOutcome], ledger: JobStore,
                   feed=None, on_outcome=None, stop=None) -> None:
        """Watchdog loop: claim, submit, wait with deadlines, recover.

        ``jobs`` are already registered in ``ledger``.  Never blocks
        indefinitely on a worker: completions are collected via timed
        waits, per-job deadlines kill hung workers (pool teardown +
        rebuild; innocent in-flight jobs are released and resubmitted
        uncharged), and failed attempts go back through the ledger
        with backoff until the attempt budget runs out and the job is
        quarantined.

        With ``feed`` set (serving mode, :meth:`serve_queue`) the loop
        additionally registers and pulls newly admitted jobs each pass
        and keeps running -- even with nothing waiting -- until
        ``stop`` fires.  ``on_outcome`` observes every *terminal*
        settle (done, failed for good, quarantined), never retryable
        attempts.
        """
        fault_plan = faults.active()
        workers = self.jobs
        digests = {job: self.digest(job) for job in jobs}
        waiting: List[Job] = list(jobs)
        inflight: Dict = {}  # future -> (job, deadline, attempt)
        pool: Optional[ProcessPoolExecutor] = None
        last_beat = 0.0

        def settle(job: Job, outcome: JobOutcome) -> None:
            by_job[job] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        def fail(job: Job, attempt: int, error: str) -> None:
            """Charge a failed attempt: back off, or quarantine."""
            digest = digests[job]
            if attempt < self.max_attempts:
                ledger.mark_failed(digest, error, self._backoff(attempt))
                waiting.append(job)
                return
            ledger.quarantine(digest, error, self._quarantine_record(
                job, digest, attempt, error))
            settle(job, JobOutcome(job=job, source="run",
                                   attempts=attempt, error=error))

        try:
            while True:
                stopping = stop is not None and stop.is_set()
                if feed is not None and not stopping:
                    # Pull only a small working set ahead of the
                    # pool; the rest stays queued in the feed.
                    budget = workers * 2 - len(waiting) - len(inflight)
                    idle = _POLL if not (waiting or inflight) else 0.0
                    for job in (feed(budget, idle) if budget > 0
                                else ()):
                        digests[job] = digest = self.digest(job)
                        ledger.register(digest, job.kernel, job.key,
                                        self.scale)
                        waiting.append(job)
                    stopping = stop.is_set()
                if not inflight and (stopping or
                                     (feed is None and not waiting)):
                    # A graceful stop leaves whatever still waits
                    # registered (state ``new``) for the next driver.
                    break
                still: List[Job] = []
                for job in waiting:
                    if stopping or len(inflight) >= workers:
                        still.append(job)
                        continue
                    digest = digests[job]
                    if not ledger.try_claim(digest, self.lease_s):
                        record = ledger.get(digest)
                        if record.state == "done":
                            # Finished by another driver sharing the
                            # ledger; materialise from the shared
                            # cache, or rerun it if the entry is gone.
                            hit, source = self.lookup(job)
                            if hit is not None:
                                settle(job, JobOutcome(
                                    job=job, source=source,
                                    attempts=record.attempts))
                                continue
                            ledger.requeue_lost(digest)
                        elif record.state == "quarantined":
                            settle(job, JobOutcome(
                                job=job, source="run",
                                attempts=record.attempts,
                                error=record.error or
                                "quarantined in a previous run"))
                            continue
                        # Gated by backoff, or claimed by another
                        # live driver.
                        still.append(job)
                        continue
                    attempt = ledger.attempts(digest) + 1
                    actions = None
                    if fault_plan is not None:
                        actions = fault_plan.worker_actions(
                            f"{digest}#a{attempt}")
                    if pool is None:
                        # Serving mode has no fixed plan to size the
                        # pool by; use the full worker count.
                        pool = ProcessPoolExecutor(
                            max_workers=(workers if feed is not None
                                         else min(workers, len(jobs))))
                    try:
                        future = pool.submit(
                            _run_supervised, self._worker, actions,
                            job.kernel, job.key, self.scale, self.sim)
                    except BrokenProcessPool:
                        # The pool died under us between passes;
                        # rebuild next pass, this job uncharged.
                        ledger.release(digest)
                        still.append(job)
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = None
                        continue
                    ledger.mark_running(digest)
                    deadline = (time.monotonic() + self.timeout
                                if self.timeout else None)
                    inflight[future] = (job, deadline, attempt)
                waiting = still

                if not inflight:
                    if waiting:
                        # Everything left is gated by backoff or
                        # claimed by another live driver: wait a
                        # beat, reap, retry.
                        time.sleep(min(_POLL, self.backoff_base))
                        ledger.reap()
                    continue

                now = time.monotonic()
                if now - last_beat >= min(1.0, self.lease_s / 4.0):
                    ledger.heartbeat_many(
                        [digests[j] for j, _, _ in inflight.values()],
                        self.lease_s)
                    last_beat = now
                poll = min([_POLL] + [d - now for _, d, _
                                      in inflight.values()
                                      if d is not None])
                done, _ = futures_wait(set(inflight),
                                       timeout=max(0.0, poll),
                                       return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    job, _, attempt = inflight.pop(future)
                    try:
                        result, seconds = future.result(timeout=0)
                    except Exception as exc:
                        # Covers worker exceptions and pool breakage
                        # (BrokenProcessPool) when a worker dies.
                        broken |= isinstance(exc, BrokenProcessPool)
                        fail(job, attempt, traceback.format_exc())
                    else:
                        self._store(job, result, seconds)
                        ledger.mark_done(digests[job])
                        settle(job, JobOutcome(
                            job=job, source="run", seconds=seconds,
                            attempts=attempt))
                now = time.monotonic()
                hung = [future for future, (_, deadline, _)
                        in inflight.items()
                        if deadline is not None and now >= deadline]
                for future in hung:
                    job, _, attempt = inflight.pop(future)
                    fail(job, attempt,
                         f"TimeoutError: job exceeded "
                         f"{self.timeout:.0f}s wall-clock budget "
                         f"(attempt {attempt}); worker killed")
                if hung:
                    # Killing the hung worker means killing the pool;
                    # release the innocent in-flight jobs uncharged.
                    for job, _, _ in inflight.values():
                        ledger.release(digests[job])
                        waiting.append(job)
                    inflight.clear()
                    if pool is not None:
                        _terminate_pool(pool)
                        pool = None
                elif broken and pool is not None:
                    # A worker died; the remaining in-flight futures
                    # surface BrokenProcessPool on the next pass, but
                    # the pool itself is unusable for new submissions.
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
