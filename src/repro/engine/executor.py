"""Plan/execute core of the experiment engine.

:class:`Engine` owns one (SimConfig, scale) pair plus the two cache
layers -- an in-process memory dict and the content-addressed
:class:`~repro.engine.cache.DiskCache` -- and executes job plans over a
``concurrent.futures.ProcessPoolExecutor``.

Pool execution is *supervised*: every job carries a wall-clock budget,
and the watchdog loop never blocks indefinitely on a worker.  A hung
worker is killed (the whole pool is torn down and rebuilt; innocent
in-flight jobs are resubmitted without being charged an attempt), a
failed attempt is retried after a deterministic exponential backoff up
to a configurable attempt budget, and a job that exhausts its budget
is retired with a quarantine record carrying the full traceback and an
exact solo-repro command.  The same watchdog drives both the in-memory
bookkeeping of :meth:`Engine.execute` and the persistent
:class:`~repro.engine.store.JobStore` ledger of
:meth:`Engine.execute_durable`, which survives driver death (``sweep
--resume`` reaps the stranded claims and continues).

Simulations are deterministic, so supervision changes only who runs a
job and what happens when it dies, never what it computes: a plan
executed with ``workers=4`` -- even under injected faults
(:mod:`repro.faults`) -- populates byte-identical caches to a clean
serial pass.
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


class _MemoryLedger:
    """In-process stand-in for :class:`~repro.engine.store.JobStore`.

    Gives :meth:`Engine.execute` the same supervised watchdog loop as
    durable sweeps without touching disk; state dies with the engine.
    """

    def __init__(self) -> None:
        self._state: Dict[str, str] = {}
        self._attempts: Dict[str, int] = {}
        self._not_before: Dict[str, float] = {}

    def register(self, digest, kernel, key, scale) -> None:
        self._state.setdefault(digest, "new")

    def state(self, digest) -> str:
        return self._state.get(digest, "new")

    def attempts(self, digest) -> int:
        return self._attempts.get(digest, 0)

    def try_claim(self, digest, lease_s) -> bool:
        if self._state.get(digest, "new") not in ("new", "errored"):
            return False
        if self._not_before.get(digest, 0.0) > time.monotonic():
            return False
        self._state[digest] = "claimed"
        return True

    def mark_running(self, digest) -> None:
        self._state[digest] = "running"

    def heartbeat_many(self, digests, lease_s) -> None:
        pass

    def mark_done(self, digest) -> None:
        self._state[digest] = "done"

    def mark_failed(self, digest, error, backoff_s) -> None:
        self._attempts[digest] = self._attempts.get(digest, 0) + 1
        self._not_before[digest] = time.monotonic() + backoff_s
        self._state[digest] = "errored"

    def quarantine(self, digest, error, record) -> None:
        self._attempts[digest] = self._attempts.get(digest, 0) + 1
        self._state[digest] = "quarantined"

    def release(self, digest) -> None:
        self._state[digest] = "new"

    def requeue_lost(self, digest) -> None:
        self._state[digest] = "new"

    def get(self, digest):
        return None

    def reap(self) -> List[str]:
        return []


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
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 lease_s: float = DEFAULT_LEASE) -> None:
        if jobs < 1:
            raise EngineError("jobs must be >= 1")
        if timeout is not None and timeout <= 0:
            raise EngineError("timeout must be positive (or None)")
        if max_attempts < 1:
            raise EngineError("max_attempts must be >= 1")
        self.sim = sim or SimConfig()
        self.scale = scale
        self.jobs = jobs
        #: Per-job wall-clock budget.  None disables the watchdog
        #: deadline (the loop still polls rather than blocking).
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.lease_s = lease_s
        self.disk = DiskCache(cache_dir) if use_cache else None
        self._cache_degraded = False
        self._worker = worker or execute_job
        self._memory: Dict[Tuple[str, ControllerKey], RunResult] = {}
        self._controllers: Dict[Tuple[str, ControllerKey], object] = {}
        self._digests: Dict[Job, str] = {}

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
        cached = self._digests.get(job)
        if cached is None:
            cached = job_digest(job, kernel_by_name(job.kernel),
                                self.sim, self.scale)
            self._digests[job] = cached
        return cached

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
        """Run (or recall) one kernel under one controller key."""
        job = Job(kernel=kernel, key=tuple(key))
        hit, _ = self.lookup(job)
        if hit is not None:
            return hit
        return self._run_inline(job)

    def _run_inline(self, job: Job) -> RunResult:
        """Run a job in this process, keeping its controller around."""
        workload = build_workload(kernel_by_name(job.kernel),
                                  scale=self.scale, seed=self.sim.seed)
        controller = make_controller(job.key, self.sim.equalizer)
        start = time.perf_counter()
        result = run_kernel(workload, self.sim, controller=controller)
        self._store(job, result, time.perf_counter() - start)
        self._controllers[(job.kernel, job.key)] = controller
        return result

    def controller(self, kernel: str, key: ControllerKey):
        """The controller instance for a run (for trace inspection).

        Results recalled from disk or computed in a worker have no
        live controller in this process; the run is repeated inline --
        simulations are deterministic, so the state matches.
        """
        if (kernel, tuple(key)) not in self._controllers:
            self._run_inline(Job(kernel=kernel, key=tuple(key)))
        return self._controllers[(kernel, tuple(key))]

    def __len__(self) -> int:
        return len(self._memory)

    # -- plan execution ------------------------------------------------

    def execute(self, plan: List[Job],
                workers: Optional[int] = None) -> ExecutionReport:
        """Resolve every job in the plan, fanning misses out.

        Cache hits are resolved first; the remaining jobs run on a
        process pool (``workers`` > 1) or inline.  Failed attempts are
        retried (with backoff) up to the engine's ``max_attempts``
        budget -- two by default, the historical retry-once contract.
        A job that exhausts the budget lands in the report's failures.
        """
        workers = workers or self.jobs
        start = time.perf_counter()
        by_job: Dict[Job, JobOutcome] = {}
        misses: List[Job] = []
        for job in plan:
            if job in by_job or job in misses:
                continue
            hit, source = self.lookup(job)
            if hit is not None:
                by_job[job] = JobOutcome(job=job, source=source)
            else:
                misses.append(job)
        if misses:
            if workers > 1:
                self._supervise(misses, workers, by_job,
                                _MemoryLedger())
            else:
                self._execute_serial(misses, by_job)
        report = ExecutionReport(
            outcomes=[by_job[job] for job in dict.fromkeys(plan)],
            wall_seconds=time.perf_counter() - start,
            workers=workers)
        return report

    def execute_durable(self, plan: List[Job], store,
                        workers: Optional[int] = None
                        ) -> ExecutionReport:
        """Resolve a plan through a persistent job ledger.

        Every plan job is registered in the
        :class:`~repro.engine.store.JobStore` (idempotently: ``done``
        stays done), stranded claims from dead drivers are reaped, and
        the supervised watchdog then claims and runs jobs until each
        reaches a terminal state.  Always pool-backed -- even with one
        worker -- so hung jobs can be killed.  A killed driver leaves
        the ledger consistent; re-invoking with the same store resumes
        exactly where it died.
        """
        workers = max(1, workers or self.jobs)
        start = time.perf_counter()
        by_job: Dict[Job, JobOutcome] = {}
        todo: List[Job] = []
        store.reap()
        for job in dict.fromkeys(plan):
            digest = self.digest(job)
            store.register(digest, job.kernel, job.key, self.scale)
            hit, source = self.lookup(job)
            if hit is not None:
                by_job[job] = JobOutcome(job=job, source=source)
                store.mark_done(digest)
                continue
            if store.state(digest) == "done":
                # Done in a previous run but the cache entry is gone
                # (wiped, or writes were degraded): run it again.
                store.requeue_lost(digest)
            todo.append(job)
        if todo:
            self._supervise(todo, workers, by_job, store)
        return ExecutionReport(
            outcomes=[by_job[job] for job in dict.fromkeys(plan)],
            wall_seconds=time.perf_counter() - start,
            workers=workers)

    # -- serial path ---------------------------------------------------

    def _execute_serial(self, jobs: List[Job],
                        by_job: Dict[Job, JobOutcome]) -> None:
        for job in jobs:
            outcome = JobOutcome(job=job, source="run")
            for attempt in range(1, self.max_attempts + 1):
                outcome.attempts = attempt
                try:
                    result, seconds = self._worker(
                        job.kernel, job.key, self.scale, self.sim)
                except Exception:
                    outcome.error = traceback.format_exc()
                    if attempt < self.max_attempts:
                        time.sleep(self._backoff(attempt))
                    continue
                self._store(job, result, seconds)
                outcome.seconds = seconds
                outcome.error = None
                break
            by_job[job] = outcome

    # -- supervised pool path ------------------------------------------

    def _backoff(self, attempt: int) -> float:
        """Deterministic exponential backoff after a failed attempt."""
        return min(self.backoff_cap,
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

    def _record_attempt_failure(self, job: Job, digest: str,
                                attempt: int, error: str, ledger,
                                by_job: Dict[Job, JobOutcome],
                                waiting: List[Job],
                                on_outcome=None) -> None:
        outcome = by_job.get(job) or JobOutcome(job=job, source="run")
        outcome.attempts = attempt
        outcome.error = error
        by_job[job] = outcome
        if attempt >= self.max_attempts:
            ledger.quarantine(digest, error, self._quarantine_record(
                job, digest, attempt, error))
            if on_outcome is not None:
                on_outcome(outcome)
        else:
            ledger.mark_failed(digest, error, self._backoff(attempt))
            waiting.append(job)

    def serve_queue(self, store, feed, workers: Optional[int] = None,
                    on_outcome=None, stop=None
                    ) -> Dict[Job, JobOutcome]:
        """Continuously claim and run jobs fed by a live queue.

        Serving mode of the supervised watchdog: instead of a fixed
        plan, ``feed(max_n, timeout)`` is polled every pass for up to
        ``max_n`` newly admitted jobs (blocking up to ``timeout``
        seconds when the loop is otherwise idle, so arrivals are
        picked up promptly without spinning).  Each fed job is
        registered in the persistent ``store``, executed under the
        same deadlines/backoff/quarantine policy as
        :meth:`execute_durable`, and reported through ``on_outcome``
        (called once per job, from this thread, when the job reaches
        a terminal state).  The loop runs until ``stop`` (a
        :class:`threading.Event`) is set, then finishes what is in
        flight and returns; jobs still waiting stay ``new`` in the
        ledger, which is what lets a restarted server resume its
        queue.
        """
        if stop is None:
            raise EngineError("serve_queue requires a stop event")
        workers = max(1, workers or self.jobs)
        by_job: Dict[Job, JobOutcome] = {}
        store.reap()
        self._supervise([], workers, by_job, store, feed=feed,
                        on_outcome=on_outcome, stop=stop)
        return by_job

    def _supervise(self, jobs: List[Job], workers: int,
                   by_job: Dict[Job, JobOutcome], ledger,
                   feed=None, on_outcome=None, stop=None) -> None:
        """Watchdog loop: claim, submit, wait with deadlines, recover.

        Never blocks indefinitely on a worker: completions are
        collected via timed waits, per-job deadlines kill hung workers
        (pool teardown + rebuild; innocent in-flight jobs are released
        and resubmitted uncharged), and failed attempts go back
        through the ledger with backoff until the attempt budget runs
        out and the job is quarantined.

        With ``feed`` set (serving mode, :meth:`serve_queue`) the loop
        additionally pulls newly admitted jobs each pass and keeps
        running -- even with nothing waiting -- until ``stop`` fires.
        ``on_outcome`` observes every *terminal* settle (done, failed
        for good, quarantined), never retryable attempts.
        """
        fault_plan = faults.active()
        digests = {job: self.digest(job) for job in jobs}
        for job in jobs:
            ledger.register(digests[job], job.kernel, job.key,
                            self.scale)
        waiting: List[Job] = list(jobs)
        inflight: Dict = {}  # future -> (job, deadline, attempt)
        pool: Optional[ProcessPoolExecutor] = None
        last_beat = 0.0

        def _settle(job: Job, outcome: JobOutcome) -> None:
            by_job[job] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        try:
            while True:
                stopping = stop is not None and stop.is_set()
                if feed is not None and not stopping:
                    # Keep a small working set ahead of the pool so
                    # the feed's priority order stays meaningful.
                    budget = max(0, workers * 2 - len(waiting)
                                 - len(inflight))
                    timeout = (_POLL if not (waiting or inflight)
                               else 0.0)
                    for job in (feed(budget, timeout) if budget
                                else ()):
                        digest = self.digest(job)
                        digests[job] = digest
                        ledger.register(digest, job.kernel, job.key,
                                        self.scale)
                        waiting.append(job)
                    stopping = stop is not None and stop.is_set()
                if not (waiting or inflight):
                    if feed is None or stopping:
                        break
                if stopping and not inflight and feed is not None:
                    # Graceful stop: whatever is still waiting stays
                    # registered (state ``new``) for the next driver.
                    break
                still: List[Job] = []
                for job in waiting:
                    digest = digests[job]
                    state = ledger.state(digest)
                    if state == "done":
                        # Finished by another driver sharing the
                        # ledger; materialise from the shared cache.
                        hit, source = self.lookup(job)
                        if hit is not None:
                            _settle(job, JobOutcome(
                                job=job, source=source,
                                attempts=ledger.attempts(digest)))
                            continue
                        ledger.requeue_lost(digest)
                        state = "new"
                    if state == "quarantined":
                        record = ledger.get(digest)
                        error = getattr(record, "error", None) or \
                            "quarantined in a previous run"
                        _settle(job, JobOutcome(
                            job=job, source="run",
                            attempts=ledger.attempts(digest),
                            error=error))
                        continue
                    if (not stopping
                            and len(inflight) < workers
                            and state in ("new", "errored")
                            and ledger.try_claim(digest,
                                                 self.lease_s)):
                        attempt = ledger.attempts(digest) + 1
                        actions = None
                        if fault_plan is not None:
                            actions = fault_plan.worker_actions(
                                f"{digest}#a{attempt}")
                        if pool is None:
                            # Serving mode has no fixed plan to size
                            # the pool by; use the full worker count.
                            size = (workers if feed is not None
                                    else min(workers, len(jobs)))
                            pool = ProcessPoolExecutor(
                                max_workers=size)
                        try:
                            future = pool.submit(
                                _run_supervised, self._worker,
                                actions, job.kernel, job.key,
                                self.scale, self.sim)
                        except BrokenProcessPool:
                            # The pool died under us between passes;
                            # rebuild next pass, this job uncharged.
                            ledger.release(digest)
                            still.append(job)
                            pool.shutdown(wait=False,
                                          cancel_futures=True)
                            pool = None
                            continue
                        ledger.mark_running(digest)
                        deadline = (time.monotonic() + self.timeout
                                    if self.timeout else None)
                        inflight[future] = (job, deadline, attempt)
                        continue
                    still.append(job)
                waiting = still

                if not inflight:
                    if not waiting:
                        if feed is None:
                            break
                        # Serving mode, momentarily idle: the feed
                        # call above already blocked for new work.
                        continue
                    if stopping:
                        continue
                    # Everything left is gated by backoff or claimed
                    # by another live driver: wait a beat, reap, retry.
                    time.sleep(min(_POLL, self.backoff_base))
                    ledger.reap()
                    continue

                now = time.monotonic()
                if now - last_beat >= min(1.0, self.lease_s / 4.0):
                    ledger.heartbeat_many(
                        [digests[j] for j, _, _ in inflight.values()],
                        self.lease_s)
                    last_beat = now
                poll = _POLL
                deadlines = [d for _, d, _ in inflight.values()
                             if d is not None]
                if deadlines:
                    poll = max(0.0, min(poll,
                                        min(deadlines) - now))
                done, _ = futures_wait(set(inflight), timeout=poll,
                                       return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    job, _, attempt = inflight.pop(future)
                    digest = digests[job]
                    try:
                        result, seconds = future.result(timeout=0)
                    except Exception as exc:
                        # Covers worker exceptions and pool breakage
                        # (BrokenProcessPool) when a worker dies.
                        if isinstance(exc, BrokenProcessPool):
                            broken = True
                        self._record_attempt_failure(
                            job, digest, attempt,
                            traceback.format_exc(), ledger, by_job,
                            waiting, on_outcome)
                    else:
                        self._store(job, result, seconds)
                        ledger.mark_done(digest)
                        _settle(job, JobOutcome(
                            job=job, source="run", seconds=seconds,
                            attempts=attempt))
                now = time.monotonic()
                hung = [future for future, (_, deadline, _)
                        in inflight.items()
                        if deadline is not None and now >= deadline]
                if hung:
                    for future in hung:
                        job, _, attempt = inflight.pop(future)
                        self._record_attempt_failure(
                            job, digests[job], attempt,
                            f"TimeoutError: job exceeded "
                            f"{self.timeout:.0f}s wall-clock budget "
                            f"(attempt {attempt}); worker killed",
                            ledger, by_job, waiting, on_outcome)
                    # Killing the hung worker means killing the pool;
                    # release the innocent in-flight jobs uncharged.
                    for future in list(inflight):
                        job, _, _ = inflight.pop(future)
                        ledger.release(digests[job])
                        waiting.append(job)
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
