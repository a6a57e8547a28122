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
import socket
import subprocess
import sys
import time

import pytest

from helpers import kill_process_group, live_group_members
from repro.engine import DiskCache, JobStore, execute_job
from repro.serve import __main__ as serve_main
from repro.serve import server as server_module
from repro.serve.admission import (QUEUE, REJECT_BUDGET, REJECT_LOAD,
                                   REJECT_RATE, RUN,
                                   AdmissionController, TokenBucket)
from repro.serve.loadgen import SHAPES, build_trace, trace_digests
from repro.experiments.common import default_sim
from repro.serve.protocol import (PROVENANCE_CACHE, normalize_request,
                                  result_body)
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
        ] + [{"kernel": KERNEL, "key": key} for key in (
            # Malformed keys that once dropped the connection.
            ["static"], ["static", 0, 0], ["equalizer"], [],
            ["boost", "x"], ["static", 0, 0, "2"],
            ["static", 1.0, 0, None],
            # Keys that aliased a well-formed key's simulation.
            ["static", True, 0, None], ["dyncta", 1, 2],
            ["static", 0, 0, 1.5])]
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

    def test_bad_content_length(self, serve):
        server = serve()
        for value in ("abc", "-1"):
            with socket.create_connection((server.host, server.port),
                                          timeout=30) as sock:
                sock.sendall((f"POST /simulate HTTP/1.1\r\nHost: t\r\n"
                              f"Content-Length: {value}\r\n\r\n{{}}"
                              ).encode())
                reply = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
            head, _, payload = reply.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].startswith("HTTP/1.1 400 "), (value, reply)
            assert "Connection: close" in lines[1:], value
            assert json.loads(payload)["error"] == "bad-request"
        status, _, _ = http(server, "GET", "/healthz")
        assert status == 200
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


# -- cache-hit bodies --------------------------------------------------


def _post(server, key):
    status, _, payload = http(server, "POST", "/simulate",
                              {"kernel": KERNEL, "key": key})
    assert status == 200, payload
    return json.loads(payload)


def _cache_body(server, digest):
    """A freshly built ``provenance: cache`` body, read from disk."""
    result = DiskCache(server.cache_dir).get(digest)
    return result_body(digest, PROVENANCE_CACHE, result)


class TestHitBodies:
    def test_hit_bytes_equal_a_fresh_result_body(self, serve):
        server = serve(worker=counting_worker)
        body = {"kernel": KERNEL, "key": ["baseline"]}
        digest = _post(server, ["baseline"])["digest"]
        hits = [http(server, "POST", "/simulate", body)[2]
                for _ in range(3)]
        assert hits == [_cache_body(server, digest)] * 3
        assert run_count() == 1

    def test_hit_lru_is_bounded_by_result_lru(self, serve,
                                               monkeypatch):
        monkeypatch.setattr(server_module, "RESULT_LRU", 2)
        server = serve(worker=counting_worker)
        keys = [["boost", budget] for budget in (51.0, 52.0, 53.0)]
        for key in keys:
            assert _post(server, key)["provenance"] == "simulated"
        for _ in range(2):
            for key in keys:
                assert _post(server, key)["provenance"] == "cache"
                _, _, stats = http(server, "GET", "/stats")
                assert json.loads(stats)["lru"]["hits"] <= 2
        _, _, stats = http(server, "GET", "/stats")
        assert json.loads(stats)["lru"] == {"settled": 2, "hits": 2,
                                            "limit": 2}
        assert run_count() == 3

    def test_result_is_simulated_until_evicted(self, serve,
                                               monkeypatch):
        monkeypatch.setattr(server_module, "RESULT_LRU", 1)
        server = serve(worker=counting_worker)
        first = _post(server, ["boost", 61.0])
        path = f"/result/{first['digest']}"
        status, _, payload = http(server, "GET", path)
        assert status == 200
        assert json.loads(payload)["provenance"] == "simulated"
        second = _post(server, ["boost", 62.0])
        # The second run's settled body pushed the first one out.
        status, _, payload = http(server, "GET", path)
        assert (status, payload) == \
            (200, _cache_body(server, first["digest"]))
        status, _, payload = http(server, "GET",
                                  f"/result/{second['digest']}")
        assert json.loads(payload)["provenance"] == "simulated"


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


def _spawn_server(tmp_path, env_extra=None, stderr=subprocess.DEVNULL):
    """Start a server subprocess in its own session.

    SIGTERM (like SIGINT) stops the server together with its pool
    workers, but SIGKILL does not reach them, so callers kill the
    whole group with :func:`helpers.kill_process_group` when they are
    done.
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
        env=env, stdout=subprocess.PIPE, stderr=stderr,
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


class TestResume:
    def test_only_rows_with_this_servers_digest_resume(
            self, serve, tmp_path):
        """A ledger row registered under another code version or
        SimConfig carries a digest this server would never compute;
        resuming it would store today's result under that digest.
        Such rows (and rows naming an unknown kernel) are neither
        counted as resumed nor run."""
        own = normalize_request({"kernel": KERNEL, "key": ["baseline"]},
                                default_sim(), SCALE, "t").digest
        foreign, unknown = "f" * 64, "e" * 64
        store = JobStore(str(tmp_path / "ledger.sqlite"))
        store.register(own, KERNEL, ("baseline",), SCALE)
        store.register(foreign, KERNEL, ("baseline",), SCALE)
        store.register(unknown, "no-such-kernel", ("baseline",), SCALE)
        server = serve(worker=counting_worker)
        try:
            assert server.counters["resumed"] == 1
            status, _ = poll_result(server, own)
            assert status == 200
            assert store.state(foreign) == "new"
            assert store.state(unknown) == "new"
        finally:
            store.close()
        assert run_count() == 1


class TestShutdown:
    def test_sigterm_stops_server_and_workers(self, tmp_path):
        proc, port = _spawn_server(tmp_path)
        try:
            # A simulated run starts the engine's pool worker.
            status, _, _ = http(_PortServer(port), "POST", "/simulate",
                                {"kernel": KERNEL, "key": ["baseline"]})
            assert status == 200
            proc.terminate()
            code = proc.wait(timeout=60)
            # Read before the cleanup kill below can hide a survivor.
            alive = live_group_members(proc.pid)
        finally:
            orphans = kill_process_group(proc.pid)
        assert code == 0
        assert alive == [], "a pool worker outlived its SIGTERMed server"
        assert orphans == []

    def test_sigterm_on_an_empty_queue_reports_nothing_queued(
            self, tmp_path):
        """The shutdown line counts what a restart would resume; with
        nothing queued it must not claim that jobs remain."""
        proc, port = _spawn_server(tmp_path, stderr=subprocess.PIPE)
        try:
            status, _, _ = http(_PortServer(port), "GET", "/healthz")
            assert status == 200
            proc.terminate()
            _, err = proc.communicate(timeout=60)
        finally:
            kill_process_group(proc.pid)
        assert proc.returncode == 0
        assert "interrupted" in err
        assert "remain" not in err

    def test_shutdown_count_is_what_a_restart_resumes(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        assert serve_main._resumable(path, SCALE) == 0  # no ledger yet
        store = JobStore(path)
        for i, scale in enumerate((SCALE, SCALE, SCALE, 0.5)):
            store.register(f"d{i}", KERNEL, ("boost", 60.0 + i), scale)
        store.mark_done("d0")
        store.close()
        # d1 and d2; d0 is done and d3 belongs to a server at 0.5.
        assert serve_main._resumable(path, SCALE) == 2
