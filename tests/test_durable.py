"""Failure-matrix tests: the supervised engine under injected faults.

Each test knocks out one leg (worker crash, hang past the wall-clock
budget, cache-write OSError, driver SIGKILL, lease expiry) and asserts
both the ledger lands in the right state and the cached results
converge byte-identically with a fault-free run.  Crash, hang,
quarantine and cache-write failures run through all three entry
points: ``execute`` with and without a store, and ``serve_queue``.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from helpers import kill_process_group, serve_plan
from repro import faults
from repro.engine import Engine, Job, JobStore, execute_job
from repro.engine.__main__ import main as engine_main
from repro.experiments.common import BASELINE, EQ_PERF, default_sim

FAST = ["prtcl-2", "mri-g-1"]
SCALE = 0.05

_MARKER_ENV = "REPRO_TEST_DURABLE_MARKERS"


def _marker(kernel: str) -> str:
    return os.path.join(os.environ[_MARKER_ENV], kernel + ".marker")


def crash_once_worker(kernel, key, scale, sim):
    """Die hard (as if OOM-killed) on each kernel's first attempt."""
    if not os.path.exists(_marker(kernel)):
        open(_marker(kernel), "w").close()
        os._exit(3)
    return execute_job(kernel, key, scale, sim)


def hang_once_worker(kernel, key, scale, sim):
    """Sleep far past any test budget on each kernel's first attempt."""
    if not os.path.exists(_marker(kernel)):
        open(_marker(kernel), "w").close()
        time.sleep(60.0)
    return execute_job(kernel, key, scale, sim)


def always_raise_worker(kernel, key, scale, sim):
    raise ValueError("permanent failure")


@pytest.fixture(autouse=True)
def marker_dir(tmp_path, monkeypatch):
    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv(_MARKER_ENV, str(markers))
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    return markers


def make_engine(tmp_path, **overrides) -> Engine:
    kwargs = dict(sim=default_sim(), scale=SCALE, jobs=2,
                  cache_dir=str(tmp_path / "cache"),
                  backoff_base=0.01, lease_s=30.0)
    kwargs.update(overrides)
    return Engine(**kwargs)


def make_store(tmp_path, **kwargs) -> JobStore:
    return JobStore(str(tmp_path / "ledger.sqlite"), **kwargs)


def cache_payloads(root: str):
    """digest -> parsed entry, with the one legitimately nondeterministic
    field (wall-clock ``meta.run_seconds``) normalised out."""
    payloads = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if not name.endswith(".json"):
                continue
            with open(os.path.join(dirpath, name)) as f:
                payload = json.load(f)
            payload["meta"].pop("run_seconds")
            payloads[name[:-len(".json")]] = payload
    return payloads


def clean_reference_cache(tmp_path, plan):
    """The fault-free cache contents every faulted run must match."""
    ref_dir = str(tmp_path / "reference-cache")
    engine = Engine(sim=default_sim(), scale=SCALE, cache_dir=ref_dir)
    report = engine.execute(plan)
    assert not report.failures
    return cache_payloads(ref_dir)


PLAN = [Job(k, key) for k in FAST for key in (BASELINE, EQ_PERF)]


class EntryPoint:
    """Runs a plan through one of the engine's three entry points.

    The failure-matrix classes below run their tests through
    ``execute`` over a persistent ledger; their ``...Execute`` and
    ``...Serve`` subclasses rerun every test through ``execute`` on
    its private in-memory ledger and through ``serve_queue``.
    Ledger state is asserted only where a store is passed.
    """

    #: "durable" (execute over a JobStore), "execute" (private
    #: in-memory ledger) or "serve" (serve_queue over a JobStore).
    entry = "durable"

    def ledger(self, tmp_path):
        """The store to pass, or None for the private ledger."""
        return None if self.entry == "execute" else make_store(tmp_path)

    def run_plan(self, engine, plan, store):
        """Outcomes of the plan, in plan order."""
        if self.entry == "execute":
            return engine.execute(plan).outcomes
        if self.entry == "serve":
            return serve_plan(engine, store, plan)
        return engine.execute(plan, store=store).outcomes


class TestWorkerCrash(EntryPoint):
    def test_durable_sweep_recovers_and_matches_clean_cache(
            self, tmp_path):
        engine = make_engine(tmp_path, worker=crash_once_worker)
        store = self.ledger(tmp_path)
        outcomes = self.run_plan(engine, PLAN, store)
        assert all(o.ok for o in outcomes)
        # One crash per kernel: some outcome needed a second attempt.
        assert max(o.attempts for o in outcomes) == 2
        if store is not None:
            assert store.counts()["done"] == len(PLAN)
            store.close()
        assert (cache_payloads(str(tmp_path / "cache"))
                == clean_reference_cache(tmp_path, PLAN))

    def test_one_worker_crash_is_retried_and_driver_survives(
            self, tmp_path, monkeypatch):
        # A fixed digest pins the fault tokens: with this spec the
        # worker crashes on attempt 1 and runs clean on attempt 2.
        job = Job("prtcl-2", BASELINE, digest="c0ffee" * 10 + "c0ff")
        spec = "crash@0.5:seed=1"
        plan = faults.FaultPlan.parse(spec)
        assert plan.worker_actions(f"{job.digest}#a1") == [("crash",)]
        assert plan.worker_actions(f"{job.digest}#a2") == []
        monkeypatch.setenv(faults.ENV_VAR, spec)
        engine = make_engine(tmp_path, jobs=1)
        store = self.ledger(tmp_path)
        [outcome] = self.run_plan(engine, [job], store)
        # The worker's os._exit took down the pool, not this process.
        assert outcome.ok and outcome.attempts == 2
        if store is not None:
            assert store.state(job.digest) == "done"
            store.close()


class TestWorkerCrashExecute(TestWorkerCrash):
    entry = "execute"


class TestWorkerCrashServe(TestWorkerCrash):
    entry = "serve"


class TestHang(EntryPoint):
    def check_hung_worker_is_killed(self, tmp_path, workers):
        engine = make_engine(tmp_path, worker=hang_once_worker,
                             timeout=2.0, jobs=workers)
        store = self.ledger(tmp_path)
        job = Job("prtcl-2", BASELINE)
        start = time.monotonic()
        [outcome] = self.run_plan(engine, [job], store)
        wall = time.monotonic() - start
        assert outcome.ok and outcome.attempts == 2
        if store is not None:
            assert store.state(engine.digest(job)) == "done"
            store.close()
        # The 60s sleep must have been killed, not waited out.
        assert wall < 30.0

    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        self.check_hung_worker_is_killed(tmp_path, workers=2)

    def test_one_worker_hang_is_killed_and_retried(self, tmp_path):
        self.check_hung_worker_is_killed(tmp_path, workers=1)

    def test_hang_exhausting_budget_is_quarantined(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "hang@1.0:hang_s=60")
        engine = make_engine(tmp_path, timeout=1.0, max_attempts=2)
        store = self.ledger(tmp_path)
        job = Job("prtcl-2", BASELINE)
        [outcome] = self.run_plan(engine, [job], store)
        assert not outcome.ok and outcome.attempts == 2
        assert "TimeoutError" in outcome.error
        if store is not None:
            record = store.get(engine.digest(job))
            store.close()
            assert record.state == "quarantined"
            assert record.attempts == 2


class TestHangExecute(TestHang):
    entry = "execute"


class TestHangServe(TestHang):
    entry = "serve"


class TestQuarantine(EntryPoint):
    def test_record_carries_solo_repro_command(self, tmp_path):
        engine = make_engine(tmp_path, worker=always_raise_worker,
                             max_attempts=2)
        store = self.ledger(tmp_path)
        job = Job("prtcl-2", EQ_PERF)
        [outcome] = self.run_plan(engine, [job], store)
        assert not outcome.ok and outcome.attempts == 2
        assert "permanent failure" in outcome.error
        if store is None:
            return
        record = store.get(engine.digest(job))
        store.close()
        assert record.state == "quarantined"
        assert "permanent failure" in record.error
        quarantine = record.quarantine
        assert quarantine["attempts"] == 2
        assert quarantine["job"] == job.label()
        assert quarantine["repro"] == (
            "PYTHONPATH=src python -m repro.engine solo "
            "--kernel prtcl-2 --key '[\"equalizer\", "
            "\"performance\"]' "
            f"--scale {SCALE}")

    def test_requeued_quarantine_runs_clean(self, tmp_path):
        engine = make_engine(tmp_path, worker=always_raise_worker,
                             max_attempts=2)
        store = self.ledger(tmp_path)
        job = Job("prtcl-2", BASELINE)
        self.run_plan(engine, [job], store)
        if store is not None:
            assert store.requeue(states=("quarantined",)) == 1
        # Without a store the quarantine died with its call's ledger.
        healthy = make_engine(tmp_path)
        [outcome] = self.run_plan(healthy, [job], store)
        assert outcome.ok
        if store is not None:
            assert store.state(healthy.digest(job)) == "done"
            store.close()


class TestQuarantineExecute(TestQuarantine):
    entry = "execute"


class TestQuarantineServe(TestQuarantine):
    entry = "serve"


class TestCacheDegradation(EntryPoint):
    def test_sweep_survives_cache_io_and_refills_byte_identical(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(faults.ENV_VAR, "cache_io@1.0")
        engine = make_engine(tmp_path)
        store = self.ledger(tmp_path)
        outcomes = self.run_plan(engine, PLAN, store)
        assert all(o.ok for o in outcomes)
        if store is not None:
            assert store.counts()["done"] == len(PLAN)
        assert engine.disk is None  # demoted to cache-less
        err = capsys.readouterr().err
        assert err.count("disk cache write failed") == 1
        # Nothing was persisted; a fault-free resume recomputes the
        # lost entries and converges on the clean-run cache bytes.
        monkeypatch.delenv(faults.ENV_VAR)
        assert cache_payloads(str(tmp_path / "cache")) == {}
        refill = make_engine(tmp_path)
        outcomes = self.run_plan(refill, PLAN, store)
        if store is not None:
            store.close()
        assert all(o.ok for o in outcomes)
        assert (cache_payloads(str(tmp_path / "cache"))
                == clean_reference_cache(tmp_path, PLAN))


class TestCacheDegradationExecute(TestCacheDegradation):
    entry = "execute"


class TestCacheDegradationServe(TestCacheDegradation):
    entry = "serve"


class TestDriverDeath:
    def test_sigkilled_sweep_resumes_to_done(self, tmp_path):
        ledger = str(tmp_path / "ledger.sqlite")
        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ,
                   PYTHONPATH="src",
                   REPRO_FAULTS="hang@1.0:hang_s=300")
        argv = [sys.executable, "-m", "repro.engine", "sweep",
                "--experiments", "fig4", "--kernels", "prtcl-2",
                "--scale", str(SCALE), "--ledger", ledger,
                "--cache-dir", cache_dir, "--jobs", "1",
                "--timeout", "600", "--lease", "600"]
        # Its own session, so the hung pool workers it leaves behind
        # can be killed as a group once the test is done with them.
        driver = subprocess.Popen(argv, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  start_new_session=True)
        try:
            try:
                # Wait for the doomed driver to claim its job, then
                # kill it mid-flight, stranding the claim.
                deadline = time.monotonic() + 60.0
                claimed = False
                while time.monotonic() < deadline:
                    if os.path.exists(ledger):
                        store = JobStore(ledger)
                        counts = store.counts()
                        store.close()
                        if (counts.get("claimed", 0)
                                + counts.get("running", 0)):
                            claimed = True
                            break
                    time.sleep(0.1)
                assert claimed, "sweep subprocess never claimed a job"
            finally:
                driver.kill()
                driver.wait()

            # Resume without faults: the dead driver's pid is gone, so
            # the reaper reclaims the stranded job well before the
            # 600s lease.
            assert engine_main(["sweep", "--resume", "--experiments",
                                "fig4", "--kernels", "prtcl-2",
                                "--scale", str(SCALE), "--ledger",
                                ledger, "--cache-dir", cache_dir]) == 0
            store = JobStore(ledger)
            counts = store.counts()
            store.close()
            assert counts["done"] == 1
            assert sum(counts.values()) == counts["done"]
            assert (cache_payloads(cache_dir)
                    == clean_reference_cache(
                        tmp_path, [Job("prtcl-2", BASELINE)]))
        finally:
            orphans = kill_process_group(driver.pid)
        assert orphans == [], "the dead driver's workers outlived it"


class TestLeaseExpiry:
    def test_expired_foreign_claim_is_reaped_and_run(self, tmp_path):
        engine = make_engine(tmp_path)
        store = make_store(tmp_path)
        job = Job("prtcl-2", BASELINE)
        digest = engine.digest(job)
        store.register(digest, job.kernel, job.key, SCALE)
        # A driver on another machine claimed the job and vanished;
        # its pid is meaningless here, only the lease can expire it.
        foreign = make_store(tmp_path, owner="feedface0000:1")
        assert foreign.try_claim(digest, lease_s=0.0)
        foreign.close()
        report = engine.execute([job], store=store)
        assert not report.failures
        assert store.state(digest) == "done"
        store.close()

    def test_live_foreign_claim_blocks_then_completes(self, tmp_path):
        # While a (live-lease) foreign claim holds the job, the local
        # watchdog idles; once the lease lapses it reaps and finishes.
        engine = make_engine(tmp_path)
        store = make_store(tmp_path)
        job = Job("prtcl-2", BASELINE)
        digest = engine.digest(job)
        store.register(digest, job.kernel, job.key, SCALE)
        foreign = make_store(tmp_path, owner="feedface0000:1")
        assert foreign.try_claim(digest, lease_s=1.0)
        foreign.close()
        start = time.monotonic()
        report = engine.execute([job], store=store)
        assert not report.failures
        assert time.monotonic() - start >= 1.0
        store.close()


class TestNoBareResultCalls:
    def test_engine_sources_never_block_unboundedly_on_a_future(self):
        """Mirror of the CI lint: a bare no-timeout result() call on a
        future would let one hung worker freeze the whole sweep."""
        root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src", "repro", "engine")
        offenders = []
        for dirpath, _, filenames in os.walk(root):
            for name in filenames:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path) as f:
                    for lineno, line in enumerate(f, 1):
                        if re.search(r"\.result\(\s*\)", line):
                            offenders.append(f"{path}:{lineno}")
        assert offenders == []
