"""Asyncio HTTP front end over the experiment engine.

One :class:`SimServer` pins one (SimConfig, scale) pair -- the
engine's own invariant -- and serves four routes:

``POST /simulate``
    normalize the body to a content digest, then: cache hit -> 200
    with ``provenance: cache``; digest already admitted -> *coalesce*
    (join the in-flight run, no admission charge); otherwise the
    admission controller decides run-now (hold the connection for the
    result when ``wait``), queue (202 + poll URL), or 429.
``GET /result/<digest>``
    poll a digest: 200 when finished, 202 while admitted, 500 when
    quarantined, 404 when unknown.
``GET /stats``
    live counters (admission verdicts, coalescing, queue depth,
    result-LRU sizes, ledger state counts).
``GET /healthz``
    liveness.

Threading model: the asyncio loop thread owns every mutable server
structure (coalescing registry, counters, result LRUs, the front-side
:class:`~repro.engine.store.JobStore` connection).  One *drain*
thread runs :meth:`~repro.engine.executor.Engine.serve_queue` -- the
supervised watchdog in serving mode -- pulling admitted jobs from a
FIFO feed and reporting terminal outcomes back into the loop via
``call_soon_threadsafe``.  SQLite connections are per-thread (the
drain thread opens its own on the same WAL ledger path).

Durability: a request is registered in the ledger *before* its 202 is
written, so an acknowledged job survives a server crash -- on restart
with the same ``--ledger``, :meth:`SimServer.start` reaps stranded
claims and re-feeds every non-terminal row whose digest it would
register itself, and determinism makes the recomputed results
byte-identical.

Coalescing: the registry maps digest -> one shared future.  All
waiters ``await asyncio.shield(...)`` on it (shield, so one client
disconnecting cannot cancel the run out from under the others) and
receive the *same bytes object*, built exactly once per run -- the
byte-identity guarantee is structural, not a re-serialization
accident.

Cache hits: the ``provenance: cache`` body of a digest is encoded
once and kept in an LRU of at most :data:`RESULT_LRU` bodies, which
``POST /simulate`` hits and ``/result``'s disk fallback both serve, so
a repeated hit costs its digest and a dictionary lookup.
"""

import asyncio
import json
import threading
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

from ..config import SimConfig
from ..engine.cache import DEFAULT_CACHE_DIR
from ..engine.executor import (DEFAULT_MAX_ATTEMPTS, DEFAULT_TIMEOUT,
                               Engine)
from ..engine.jobs import Job
from ..engine.store import JobStore
from ..errors import SerializationError, WorkloadError
from .admission import ADMITTED, RUN, AdmissionController
from .protocol import (PROVENANCE_CACHE, PROVENANCE_SIMULATED,
                       BadRequest, accepted_body, canonical_json,
                       error_body, normalize_request, result_body)

#: Largest accepted request body (bytes).
MAX_BODY = 64 * 1024

#: Finished-result bodies kept hot in memory, per LRU (the disk cache
#: holds everything; this only skips re-reading and re-encoding).
RESULT_LRU = 256

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

_HEX = set("0123456789abcdef")


def _remember(lru: OrderedDict, digest: str, value) -> None:
    """Put ``value`` at the young end of ``lru``; drop the oldest."""
    lru[digest] = value
    lru.move_to_end(digest)
    while len(lru) > RESULT_LRU:
        lru.popitem(last=False)


class _Feed:
    """Thread-safe FIFO queue between admission and the watchdog.

    The drain thread calls the instance (``feed(max_n, timeout)``,
    the :meth:`Engine.serve_queue` contract), blocking on a condition
    variable when idle -- no polling sleeps anywhere in this package.
    """

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self._queue: Deque[Job] = deque()

    def push(self, job: Job) -> None:
        with self._cv:
            self._queue.append(job)
            self._cv.notify()

    def wake(self) -> None:
        """Release a blocked poll (used at shutdown)."""
        with self._cv:
            self._cv.notify_all()

    def __len__(self) -> int:
        with self._cv:
            return len(self._queue)

    def __call__(self, max_n: int, timeout: float) -> List[Job]:
        with self._cv:
            if not self._queue and timeout > 0:
                self._cv.wait(timeout)
            out: List[Job] = []
            while self._queue and len(out) < max_n:
                out.append(self._queue.popleft())
            return out


class SimServer:
    """The serving front end; see the module docstring."""

    def __init__(self, sim: Optional[SimConfig] = None,
                 scale: float = 0.25, workers: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 cache_dir: str = DEFAULT_CACHE_DIR,
                 ledger: Optional[str] = None,
                 rate: float = 20.0, burst: float = 40.0,
                 queue_limit: int = 64,
                 run_budget: Optional[int] = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 worker=None) -> None:
        if sim is None:
            from ..experiments.common import default_sim
            sim = default_sim()
        self.sim = sim
        self.scale = scale
        self.workers = max(1, workers)
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.ledger_path = ledger or f"{cache_dir}/ledger.sqlite"
        self.engine = Engine(sim=sim, scale=scale, jobs=self.workers,
                             cache_dir=cache_dir, timeout=timeout,
                             max_attempts=max_attempts, worker=worker)
        self.admission = AdmissionController(
            workers=self.workers, queue_limit=queue_limit, rate=rate,
            burst=burst, run_budget=run_budget)
        self.feed = _Feed()
        self.counters: Dict[str, int] = {
            "requests": 0, "cache_hits": 0, "coalesce_joins": 0,
            "runs_completed": 0, "quarantined": 0, "resumed": 0}
        #: Admitted digest -> the shared future every waiter joins.
        self._pending: Dict[str, "asyncio.Future"] = {}
        # Bodies settled by this server's runs (simulated or
        # quarantined), and the "cache" body of every recent hit.
        self._results: "OrderedDict[str, Tuple[int, bytes]]" = \
            OrderedDict()
        self._hits: "OrderedDict[str, bytes]" = OrderedDict()
        self._stop = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._drain: Optional[threading.Thread] = None
        self._thread: Optional[threading.Thread] = None
        self._done: Optional[asyncio.Event] = None
        self.store_front: Optional[JobStore] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> int:
        """Open the ledger, resume its queue, start drain + listener.

        Returns the number of resumed (re-fed) jobs.
        """
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        self.store_front = JobStore(self.ledger_path)
        resumed = self._resume()
        self._drain = threading.Thread(target=self._drain_main,
                                       name="serve-drain", daemon=True)
        self._drain.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return resumed

    def _resume(self) -> int:
        """Re-feed every non-terminal ledger row this server owns."""
        self.store_front.reap()
        count = 0
        for record in self.store_front.pending():
            if not self._owns(record):
                # A row registered under another scale, SimConfig or
                # code version: running it here would store today's
                # result under a digest that names a different run.
                continue
            self._pending[record.digest] = self._loop.create_future()
            self.feed.push(Job(kernel=record.kernel, key=record.key,
                               digest=record.digest))
            count += 1
        self.counters["resumed"] = count
        return count

    def _owns(self, record) -> bool:
        """True when this server would register ``record``'s digest.

        The digest folds in the kernel spec, scale, SimConfig and
        code salt, so one comparison covers every way a ledger row can
        belong to another server.  An unknown kernel name (or a key the
        digest cannot encode) is a mismatch.
        """
        try:
            digest = self.engine.digest(
                Job(kernel=record.kernel, key=record.key))
        except (WorkloadError, SerializationError):
            return False
        return digest == record.digest

    def _drain_main(self) -> None:
        """Drain-thread body: its own ledger connection, same WAL."""
        store = JobStore(self.ledger_path)
        try:
            self.engine.serve_queue(store, self.feed,
                                    on_outcome=self._on_outcome,
                                    stop=self._stop)
        finally:
            store.close()

    async def serve(self) -> None:
        """Start and run until :meth:`stop` (the CLI entry point)."""
        await self.start()
        print(f"serving on http://{self.host}:{self.port}",
              flush=True)
        await self._done.wait()

    async def stop(self) -> None:
        """Graceful stop: finish in-flight runs, keep the queue new."""
        self._stop.set()
        self.feed.wake()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._drain is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._drain.join)
        for future in list(self._pending.values()):
            if not future.done():
                future.set_result((503, error_body(
                    "shutting-down",
                    "server stopping; the job stays queued in the "
                    "ledger and resumes on restart")))
        self._pending.clear()
        if self.store_front is not None:
            self.store_front.close()
        if self._done is not None:
            self._done.set()

    # -- background hosting (tests) -------------------------------------

    def start_background(self, timeout: float = 30.0) -> "SimServer":
        """Run the server on a private loop in a daemon thread."""
        ready = threading.Event()

        async def _main() -> None:
            await self.start()
            ready.set()
            await self._done.wait()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(_main()),
            name="serve-loop", daemon=True)
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("server failed to start in time")
        return self

    def stop_background(self, timeout: float = 60.0) -> None:
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.stop(),
                                                  self._loop)
        future.result(timeout)
        self._thread.join(timeout)

    # -- drain-thread -> loop-thread result plumbing -------------------

    def _on_outcome(self, outcome) -> None:
        """Terminal-outcome hook; runs on the drain thread."""
        job = outcome.job
        digest = job.digest or self.engine.digest(job)
        if outcome.ok:
            result, _ = self.engine.lookup(job)
            if result is None:  # pragma: no cover - degraded cache
                status, payload = 500, error_body(
                    "lost-result", "run finished but its result "
                    "vanished from the cache", digest=digest)
            else:
                status = 200
                payload = result_body(digest, PROVENANCE_SIMULATED,
                                      result)
        else:
            lines = (outcome.error or "").strip().splitlines()
            status = 500
            payload = error_body(
                "quarantined", lines[-1] if lines else "job failed",
                digest=digest, attempts=outcome.attempts)
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._settle, digest,
                                          status, payload, outcome.ok)
            except RuntimeError:  # pragma: no cover - loop gone
                pass

    def _settle(self, digest: str, status: int, payload: bytes,
                ok: bool) -> None:
        """Loop-thread half: cache the bytes, wake every waiter."""
        self.counters["runs_completed" if ok else "quarantined"] += 1
        _remember(self._results, digest, (status, payload))
        future = self._pending.pop(digest, None)
        if future is not None and not future.done():
            future.set_result((status, payload))

    # -- HTTP plumbing -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        fallback = peer[0] if peer else "unknown"
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError,
                        ConnectionResetError):
                    break
                except asyncio.LimitOverrunError:
                    await self._write(writer, 431, {}, error_body(
                        "headers-too-large", "request head exceeds "
                        "the stream limit"), keep=False)
                    break
                try:
                    method, path, headers = self._parse_head(head)
                except ValueError:
                    await self._write(writer, 400, {}, error_body(
                        "bad-request", "malformed HTTP request"),
                        keep=False)
                    break
                declared = headers.get("content-length") or "0"
                if not (declared.isascii() and declared.isdigit()):
                    await self._write(writer, 400, {}, error_body(
                        "bad-request", "Content-Length must be a "
                        "non-negative integer"), keep=False)
                    break
                length = int(declared)
                if length > MAX_BODY:
                    await self._write(writer, 413, {}, error_body(
                        "body-too-large",
                        f"body exceeds {MAX_BODY} bytes"), keep=False)
                    break
                body = (await reader.readexactly(length)
                        if length else b"")
                status, extra, payload = await self._dispatch(
                    method, path, body, fallback)
                keep = (headers.get("connection", "keep-alive")
                        .lower() != "close")
                await self._write(writer, status, extra, payload,
                                  keep=keep)
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
        lines = head.decode("latin-1").split("\r\n")
        method, path, _ = lines[0].split(" ", 2)
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        return method, path, headers

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, status: int,
                     extra: Dict[str, str], payload: bytes,
                     keep: bool) -> None:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(payload)}",
                 f"Connection: {'keep-alive' if keep else 'close'}"]
        for name, value in extra.items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode()
                     + payload)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes,
                        fallback: str
                        ) -> Tuple[int, Dict[str, str], bytes]:
        self.counters["requests"] += 1
        if method == "GET":
            if path == "/healthz":
                return 200, {}, canonical_json({"ok": True})
            if path == "/stats":
                return 200, {}, self._stats_body()
            if path.startswith("/result/"):
                return self._result(path[len("/result/"):])
        if method == "POST" and path == "/simulate":
            return await self._simulate(body, fallback)
        if path in ("/simulate", "/stats", "/healthz") or \
                path.startswith("/result/"):
            return 405, {}, error_body(
                "method-not-allowed", f"{method} not allowed on "
                f"{path}")
        return 404, {}, error_body("not-found",
                                   f"no route for {path}")

    async def _simulate(self, body: bytes, fallback: str
                        ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            decoded = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError):
            return 400, {}, error_body("bad-json",
                                       "body is not valid JSON")
        try:
            req = normalize_request(decoded, self.sim, self.scale,
                                    fallback)
        except BadRequest as exc:
            return 400, {}, error_body("bad-request", str(exc))
        job = req.job()

        # Fast path: the content-addressed store already has it.
        payload = self._hits.get(req.digest)
        if payload is None:
            hit, _ = self.engine.lookup(job)
            if hit is not None:
                payload = result_body(req.digest, PROVENANCE_CACHE, hit)
        if payload is not None:
            _remember(self._hits, req.digest, payload)
            self.counters["cache_hits"] += 1
            return 200, {}, payload

        # Coalesce: someone is already paying for this digest.
        future = self._pending.get(req.digest)
        if future is not None:
            self.counters["coalesce_joins"] += 1
            if req.wait:
                status, payload = await asyncio.shield(future)
                return status, {}, payload
            return 202, {}, accepted_body(req.digest, "queued")

        # First request of this digest: admission decides.
        total = len(self._pending)
        active = min(total, self.workers)
        verdict, retry_after = self.admission.decide(
            req.client, active, total - active)
        if verdict not in ADMITTED:
            return 429, {"Retry-After":
                         f"{max(retry_after, 0.001):.3f}"}, \
                error_body(verdict, "admission rejected the request",
                           digest=req.digest)
        future = self._loop.create_future()
        self._pending[req.digest] = future
        # Registered before the response is written: an acknowledged
        # job is in the ledger, whatever happens to this process.
        self.store_front.register(req.digest, job.kernel, job.key,
                                  self.scale)
        self.feed.push(job)
        if verdict == RUN and req.wait:
            status, payload = await asyncio.shield(future)
            return status, {}, payload
        return 202, {}, accepted_body(req.digest, "queued")

    def _result(self, digest: str
                ) -> Tuple[int, Dict[str, str], bytes]:
        if not digest or set(digest) - _HEX:
            return 400, {}, error_body("bad-digest",
                                       "digest must be lowercase hex")
        cached = self._results.get(digest)
        if cached is not None:
            self._results.move_to_end(digest)
            return cached[0], {}, cached[1]
        if digest in self._pending:
            return 202, {}, accepted_body(digest, "queued")
        payload = self._hits.get(digest)
        if payload is None and self.engine.disk is not None:
            hit = self.engine.disk.get(digest)
            if hit is not None:
                payload = result_body(digest, PROVENANCE_CACHE, hit)
        if payload is not None:
            _remember(self._hits, digest, payload)
            return 200, {}, payload
        record = self.store_front.get(digest)
        if record is not None:
            if record.state == "quarantined":
                lines = (record.error or "").strip().splitlines()
                return 500, {}, error_body(
                    "quarantined",
                    lines[-1] if lines else "job failed",
                    digest=digest, attempts=record.attempts)
            return 202, {}, accepted_body(digest, record.state)
        return 404, {}, error_body(
            "unknown-digest", f"no result or job for {digest}")

    def _stats_body(self) -> bytes:
        return canonical_json({
            "scale": self.scale,
            "workers": self.workers,
            "in_flight": len(self._pending),
            "queue_depth": len(self.feed),
            "counters": dict(self.counters),
            "lru": {"settled": len(self._results),
                    "hits": len(self._hits), "limit": RESULT_LRU},
            "admission": dict(self.admission.verdicts),
            "ledger": self.store_front.counts(),
        })
