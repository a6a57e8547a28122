"""Integration tests for the serving front end (repro.serve).

A real server on an ephemeral port backs every integration test:
cache-hit fast path, miss -> queue -> poll, 429s from the token
bucket and run budget, the 64-client coalescing invariant (exactly
one engine run, byte-identical bodies, proven through an injectable
run-counter worker seam), loadgen trace determinism, and
crash-recovery (SIGKILL the server subprocess mid-queue, restart on
the same ledger, byte-identical results).
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from helpers import kill_process_group
from repro.engine import execute_job
from repro.serve.admission import (QUEUE, REJECT_BUDGET, REJECT_LOAD,
                                   REJECT_RATE, RUN,
                                   AdmissionController, TokenBucket)
from repro.serve.loadgen import SHAPES, build_trace, trace_digests
from repro.serve.server import SimServer

SCALE = 0.05
KERNEL = "prtcl-2"

_COUNT_ENV = "REPRO_TEST_SERVE_RUNS"


def counting_worker(kernel, key, scale, sim):
    """Real run + one appended line per engine execution.

    The injectable run-counter seam: the pool worker inherits the
    count-file path through the environment (fork start method), so
    executions are counted across processes.
    """
    with open(os.environ[_COUNT_ENV], "a") as handle:
        handle.write(f"{kernel}:{key}\n")
    return execute_job(kernel, key, scale, sim)


def run_count() -> int:
    with open(os.environ[_COUNT_ENV]) as handle:
        return len(handle.readlines())


@pytest.fixture(autouse=True)
def count_file(tmp_path, monkeypatch):
    path = tmp_path / "runs.count"
    path.write_text("")
    monkeypatch.setenv(_COUNT_ENV, str(path))
    return path


@pytest.fixture
def serve(tmp_path):
    """Factory for background in-process servers; stops them all."""
    started = []

    def factory(**overrides):
        kwargs = dict(scale=SCALE, workers=2,
                      cache_dir=str(tmp_path / "cache"),
                      ledger=str(tmp_path / "ledger.sqlite"))
        kwargs.update(overrides)
        server = SimServer(**kwargs)
        server.start_background()
        started.append(server)
        return server

    yield factory
    for server in started:
        server.stop_background()


# -- tiny raw-HTTP client ----------------------------------------------


async def _arequest(host, port, method, path, body=b""):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                      f"Content-Length: {len(body)}\r\n\r\n"
                      ).encode() + body)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        headers = {}
        for line in head.decode("latin-1").split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if value:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = (await reader.readexactly(length) if length
                   else b"")
        return status, headers, payload
    finally:
        writer.close()


def http(server, method, path, obj=None):
    body = b"" if obj is None else json.dumps(obj).encode()
    return asyncio.run(_arequest(server.host, server.port, method,
                                 path, body))


def poll_result(server, digest, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        status, _, payload = http(server, "GET", f"/result/{digest}")
        if status != 202:
            return status, payload
        time.sleep(0.02)
    raise AssertionError(f"digest {digest[:12]} never finished")


# -- fast paths --------------------------------------------------------


class TestFastPaths:
    def test_cache_hit_fast_path(self, serve):
        server = serve(worker=counting_worker)
        body = {"kernel": KERNEL, "key": ["baseline"]}
        status, _, first = http(server, "POST", "/simulate", body)
        assert status == 200
        decoded = json.loads(first)
        assert decoded["provenance"] == "simulated"
        assert decoded["result"]["result"]["kernel"] == KERNEL
        status, _, second = http(server, "POST", "/simulate", body)
        assert status == 200
        again = json.loads(second)
        assert again["provenance"] == "cache"
        assert again["result"] == decoded["result"]
        assert again["digest"] == decoded["digest"]
        assert run_count() == 1
        # /result serves the finished digest too.
        status, _, payload = http(server, "GET",
                                  f"/result/{decoded['digest']}")
        assert status == 200
        assert json.loads(payload)["result"] == decoded["result"]

    def test_bad_requests(self, serve):
        server = serve()
        cases = [
            {"kernel": "no-such-kernel", "key": ["baseline"]},
            {"kernel": KERNEL, "key": ["no-such-controller"]},
            {"kernel": KERNEL, "key": ["baseline"], "scale": 0.5},
            {"kernel": KERNEL, "key": ["baseline"], "seed": 7},
            {"kernel": KERNEL, "key": ["baseline"], "typo": 1},
            {"kernel": KERNEL, "key": "baseline"},
            ["not", "an", "object"],
        ]
        for case in cases:
            status, _, payload = http(server, "POST", "/simulate",
                                      case)
            assert status == 400, case
            assert json.loads(payload)["error"] in ("bad-request",
                                                    "bad-json")
        status, _, _ = http(server, "GET", "/no-such-route")
        assert status == 404
        status, _, _ = http(server, "GET", "/simulate")
        assert status == 405
        status, _, _ = http(server, "GET", "/result/NOT-HEX")
        assert status == 400
        status, _, _ = http(server, "GET", "/result/" + "ab" * 32)
        assert status == 404
        assert run_count() == 0

    def test_healthz_and_stats(self, serve):
        server = serve()
        status, _, payload = http(server, "GET", "/healthz")
        assert (status, json.loads(payload)) == (200, {"ok": True})
        status, _, payload = http(server, "GET", "/stats")
        assert status == 200
        stats = json.loads(payload)
        assert stats["scale"] == SCALE
        assert stats["in_flight"] == 0
        assert set(stats["counters"]) >= {"requests", "cache_hits",
                                          "coalesce_joins"}


# -- miss -> queue -> poll ---------------------------------------------


class TestQueuePolling:
    def test_miss_queues_then_polls_to_result(self, serve):
        server = serve(worker=counting_worker, workers=1)
        body = {"kernel": KERNEL, "key": ["equalizer", "energy"],
                "wait": False}
        status, _, payload = http(server, "POST", "/simulate", body)
        assert status == 202
        accepted = json.loads(payload)
        assert accepted["poll"] == f"/result/{accepted['digest']}"
        status, payload = poll_result(server, accepted["digest"])
        assert status == 200
        decoded = json.loads(payload)
        assert decoded["provenance"] == "simulated"
        assert decoded["digest"] == accepted["digest"]
        assert run_count() == 1


# -- admission unit tests (fake clock, no sleeping) --------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestAdmissionUnit:
    def test_token_bucket_refills_continuously(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_take()[0] for _ in range(4)] == \
            [True, True, True, False]
        took, retry_after = bucket.try_take()
        assert not took
        assert retry_after == pytest.approx(0.5)
        clock.now += 0.5
        assert bucket.try_take() == (True, 0.0)

    def test_verdict_order_budget_load_rate(self):
        clock = FakeClock()
        admission = AdmissionController(
            workers=2, queue_limit=1, rate=1.0, burst=2.0,
            run_budget=3, clock=clock)
        # Free slot: run. Slots busy, queue open: queue.
        assert admission.decide("a", active=0, queued=0)[0] == RUN
        assert admission.decide("a", active=2, queued=0)[0] == QUEUE
        # Queue full: reject for load *without* burning a token.
        verdict, _ = admission.decide("a", active=2, queued=1)
        assert verdict == REJECT_LOAD
        assert admission.spent("a") == 2
        # Tokens exhausted (burst=2, none refilled): rate reject.
        verdict, retry_after = admission.decide("a", active=0,
                                                queued=0)
        assert verdict == REJECT_RATE
        assert retry_after > 0
        # Refill past the rate limit: now the lifetime budget trips.
        clock.now += 10.0
        assert admission.decide("a", 0, 0)[0] == RUN
        assert admission.decide("a", 0, 0)[0] == REJECT_BUDGET
        # Budgets and buckets are per client identity.
        assert admission.decide("b", 0, 0)[0] == RUN


# -- 429 integration ---------------------------------------------------


class TestRateLimit:
    def test_429_on_rate_limit_exhaustion(self, serve):
        server = serve(worker=counting_worker, rate=0.001, burst=2.0)
        responses = []
        for budget in (31.0, 32.0, 33.0):
            body = {"kernel": KERNEL, "key": ["boost", budget],
                    "client": "hammer", "wait": False}
            responses.append(http(server, "POST", "/simulate", body))
        assert [status for status, _, _ in responses] == \
            [202, 202, 429]
        status, headers, payload = responses[-1]
        assert json.loads(payload)["error"] == REJECT_RATE
        assert float(headers["retry-after"]) > 0
        # Another client has its own bucket.
        status, _, _ = http(server, "POST", "/simulate",
                            {"kernel": KERNEL, "key": ["boost", 34.0],
                             "client": "other", "wait": False})
        assert status == 202

    def test_429_on_run_budget(self, serve):
        server = serve(worker=counting_worker, run_budget=1)
        first = {"kernel": KERNEL, "key": ["boost", 41.0],
                 "client": "frugal", "wait": False}
        status, _, _ = http(server, "POST", "/simulate", first)
        assert status == 202
        status, _, payload = http(
            server, "POST", "/simulate",
            {"kernel": KERNEL, "key": ["boost", 42.0],
             "client": "frugal", "wait": False})
        assert status == 429
        assert json.loads(payload)["error"] == REJECT_BUDGET
        # Coalesced joins and cache hits stay free of charge.
        status, _, _ = http(server, "POST", "/simulate", first)
        assert status in (200, 202)


# -- the coalescing invariant ------------------------------------------


class TestCoalescing:
    def test_64_concurrent_clients_share_one_run(self, serve):
        server = serve(worker=counting_worker, workers=2,
                       rate=1000.0, burst=2000.0)
        body = json.dumps({"kernel": KERNEL,
                           "key": ["boost", 77.5]}).encode()

        async def burst():
            return await asyncio.gather(*(
                _arequest(server.host, server.port, "POST",
                          "/simulate", body) for _ in range(64)))

        responses = asyncio.run(burst())
        assert [status for status, _, _ in responses] == [200] * 64
        payloads = {payload for _, _, payload in responses}
        # Byte-identical: one distinct body across all 64 clients.
        assert len(payloads) == 1
        decoded = json.loads(payloads.pop())
        assert decoded["provenance"] == "simulated"
        # Exactly one engine execution for the whole burst.
        assert run_count() == 1
        _, _, stats = http(server, "GET", "/stats")
        counters = json.loads(stats)["counters"]
        assert counters["coalesce_joins"] == 63
        assert counters["runs_completed"] == 1


# -- loadgen determinism -----------------------------------------------


class TestLoadgenDeterminism:
    def test_same_seed_same_trace(self):
        for shape in SHAPES:
            first = build_trace(shape, seed=2014, n=50)
            second = build_trace(shape, seed=2014, n=50)
            assert first == second
            # Digest sequence, client ids, and timing schedule all
            # replay identically.
            assert trace_digests(first, scale=SCALE) == \
                trace_digests(second, scale=SCALE)
            assert [i["client"] for i in first] == \
                [i["client"] for i in second]
            assert [i["gap_ms"] for i in first] == \
                [i["gap_ms"] for i in second]

    def test_different_seed_different_trace(self):
        assert build_trace("mixed", seed=1, n=50) != \
            build_trace("mixed", seed=2, n=50)

    def test_shapes_have_expected_duplication(self):
        def distinct(shape):
            trace = build_trace(shape, seed=2014, n=100)
            return len({(i["kernel"], tuple(i["key"]))
                        for i in trace})

        assert distinct("duplicate-heavy") < distinct("mixed") < \
            distinct("unique-heavy")

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            build_trace("bursty", seed=1, n=10)


# -- crash recovery ----------------------------------------------------


def _spawn_server(tmp_path, env_extra=None):
    """Start a server subprocess in its own session.

    Neither SIGKILL nor SIGTERM of the server reaches its pool
    workers, so callers kill the whole group with
    :func:`helpers.kill_process_group` when they are done.
    """
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_FAULTS", None)
    env.update(env_extra or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--scale", str(SCALE), "--workers", "1",
         "--cache-dir", str(tmp_path / "cache"),
         "--ledger", str(tmp_path / "ledger.sqlite"),
         "--max-attempts", "4"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    line = proc.stdout.readline().strip()
    assert line.startswith("serving on http://"), line
    port = int(line.rsplit(":", 1)[1])
    return proc, port


class _PortServer:
    """Adapter so the http()/poll_result() helpers accept a port."""

    def __init__(self, port):
        self.host, self.port = "127.0.0.1", port


class TestCrashRecovery:
    def test_sigkill_midqueue_restart_resumes_byte_identical(
            self, tmp_path):
        jobs = [{"kernel": KERNEL, "key": ["boost", 50.0 + i],
                 "wait": False} for i in range(4)]

        # Doomed first life: workers hang (injected fault), so every
        # acked job is still queued/claimed when SIGKILL lands --
        # durability comes from the ledger write before the 202, not
        # from luck about what finished.
        doomed, port = _spawn_server(
            tmp_path,
            env_extra={"REPRO_FAULTS": "hang@1.0:hang_s=300"})
        servers = [doomed]
        try:
            digests = []
            try:
                front = _PortServer(port)
                for body in jobs:
                    status, _, payload = http(front, "POST",
                                              "/simulate", body)
                    assert status == 202
                    digests.append(json.loads(payload)["digest"])
            finally:
                os.kill(doomed.pid, signal.SIGKILL)
                doomed.wait()

            # Second life on the same ledger -- with injected worker
            # crashes for good measure; retries must still converge.
            proc, port = _spawn_server(
                tmp_path,
                env_extra={"REPRO_FAULTS": "crash@0.3:seed=11"})
            servers.append(proc)
            try:
                front = _PortServer(port)
                recovered = {}
                for digest in digests:
                    status, payload = poll_result(front, digest,
                                                  deadline_s=120.0)
                    assert status == 200
                    recovered[digest] = payload
            finally:
                proc.terminate()
                proc.wait()

            # Uninterrupted reference run: same jobs, fresh everything.
            reference = SimServer(
                scale=SCALE, workers=1,
                cache_dir=str(tmp_path / "ref-cache"),
                ledger=str(tmp_path / "ref-ledger.sqlite"))
            reference.start_background()
            try:
                for body, digest in zip(jobs, digests):
                    clean = dict(body, wait=True)
                    status, _, payload = http(reference, "POST",
                                              "/simulate", clean)
                    assert status == 200
                    assert payload == recovered[digest]
            finally:
                reference.stop_background()
        finally:
            orphans = [pid for server in servers
                       for pid in kill_process_group(server.pid)]
        assert orphans == [], "a dead server's workers outlived it"
