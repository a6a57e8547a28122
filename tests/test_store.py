"""Tests for the persistent job ledger (repro.engine.store)."""

import os

import pytest

from repro.engine.store import (JobStore, default_owner,
                                fingerprint_id, machine_fingerprint)
from repro.errors import EngineError

DIG = "a" * 64
DIG2 = "b" * 64


@pytest.fixture
def store(tmp_path):
    store = JobStore(str(tmp_path / "ledger.sqlite"))
    yield store
    store.close()


def register(store, digest=DIG):
    store.register(digest, "prtcl-2", ("baseline",), 0.05)


class TestLifecycle:
    def test_register_starts_new(self, store):
        register(store)
        record = store.get(DIG)
        assert record.state == "new"
        assert record.attempts == 0
        assert record.kernel == "prtcl-2"
        assert record.key == ("baseline",)
        assert record.label() == "prtcl-2/baseline"

    def test_register_is_idempotent_and_done_stays_done(self, store):
        register(store)
        assert store.try_claim(DIG, lease_s=60)
        store.mark_running(DIG)
        store.mark_done(DIG)
        register(store)  # re-planning the same sweep
        assert store.state(DIG) == "done"

    def test_happy_path_states(self, store):
        register(store)
        assert store.try_claim(DIG, lease_s=60)
        assert store.state(DIG) == "claimed"
        assert store.get(DIG).claimed_by == store.owner
        store.mark_running(DIG)
        assert store.state(DIG) == "running"
        store.mark_done(DIG)
        record = store.get(DIG)
        assert record.state == "done"
        assert record.claimed_by is None

    def test_claim_is_exclusive(self, store, tmp_path):
        register(store)
        other = JobStore(str(tmp_path / "ledger.sqlite"),
                         owner="feedface0000:1")
        assert store.try_claim(DIG, lease_s=60)
        assert not other.try_claim(DIG, lease_s=60)
        other.close()

    def test_claim_respects_backoff_gate(self, store):
        register(store)
        store.mark_failed(DIG, "boom", backoff_s=3600)
        assert store.state(DIG) == "errored"
        assert not store.try_claim(DIG, lease_s=60)

    def test_errored_is_claimable_after_backoff(self, store):
        register(store)
        store.mark_failed(DIG, "boom", backoff_s=0.0)
        assert store.try_claim(DIG, lease_s=60)
        assert store.attempts(DIG) == 1

    def test_unknown_digest_state_raises(self, store):
        with pytest.raises(EngineError):
            store.state(DIG)
        assert store.get(DIG) is None

    def test_counts(self, store):
        register(store, DIG)
        register(store, DIG2)
        store.try_claim(DIG, lease_s=60)
        counts = store.counts()
        assert counts["new"] == 1 and counts["claimed"] == 1
        assert sum(counts.values()) == 2


class TestQuarantine:
    def test_record_round_trips(self, store):
        register(store)
        record_in = {"repro": "python -m repro.engine solo ...",
                     "error": "Traceback ...", "attempts": 3}
        store.quarantine(DIG, "Traceback ...", record_in)
        record = store.get(DIG)
        assert record.state == "quarantined"
        assert record.quarantine == record_in
        assert record.attempts == 1

    def test_requeue_resets_budget(self, store):
        register(store)
        store.quarantine(DIG, "boom", {"attempts": 3})
        assert store.requeue() == 1
        record = store.get(DIG)
        assert record.state == "new"
        assert record.attempts == 0
        assert record.error is None and record.quarantine is None

    def test_requeue_filters_by_state_and_digest(self, store):
        register(store, DIG)
        register(store, DIG2)
        store.mark_failed(DIG, "boom", backoff_s=3600)
        store.quarantine(DIG2, "boom", {})
        assert store.requeue(states=("errored",)) == 1
        assert store.state(DIG) == "new"
        assert store.state(DIG2) == "quarantined"
        assert store.requeue(states=("quarantined",),
                             digest=DIG2) == 1
        with pytest.raises(EngineError):
            store.requeue(states=("bogus",))


class TestReaper:
    def test_expired_lease_is_reaped(self, store, tmp_path):
        register(store)
        foreign = JobStore(str(tmp_path / "ledger.sqlite"),
                           owner="feedface0000:1")
        assert foreign.try_claim(DIG, lease_s=0.0)  # instantly stale
        foreign.close()
        assert store.reap() == [DIG]
        assert store.state(DIG) == "new"

    def test_live_lease_is_not_reaped(self, store):
        register(store)
        assert store.try_claim(DIG, lease_s=3600)
        assert store.reap() == []
        assert store.state(DIG) == "claimed"

    def test_dead_local_pid_reaped_before_lease_expiry(self, store,
                                                      tmp_path):
        # A claim from a SIGKILLed driver on this machine: its pid is
        # gone, so the reaper need not wait out the (long) lease.
        dead = JobStore(str(tmp_path / "ledger.sqlite"),
                        owner=f"{fingerprint_id()}:999999999")
        register(store)
        assert dead.try_claim(DIG, lease_s=3600)
        dead.close()
        assert store.reap() == [DIG]
        assert store.state(DIG) == "new"

    def test_heartbeat_extends_lease(self, store):
        register(store)
        assert store.try_claim(DIG, lease_s=0.05)
        store.mark_running(DIG)
        store.heartbeat_many([DIG], lease_s=3600)
        assert store.reap() == []
        assert store.state(DIG) == "running"

    def test_release_returns_claim_uncharged(self, store):
        register(store)
        assert store.try_claim(DIG, lease_s=60)
        store.mark_running(DIG)
        store.release(DIG)
        record = store.get(DIG)
        assert record.state == "new" and record.attempts == 0

    def test_requeue_lost_only_touches_done(self, store):
        register(store)
        store.requeue_lost(DIG)
        assert store.state(DIG) == "new"
        store.try_claim(DIG, lease_s=60)
        store.mark_done(DIG)
        store.requeue_lost(DIG)
        assert store.state(DIG) == "new"


class TestOwnerIdentity:
    def test_owner_carries_fingerprint_and_pid(self):
        owner = default_owner()
        fp, _, pid = owner.partition(":")
        assert fp == fingerprint_id()
        assert int(pid) == os.getpid()

    def test_machine_fingerprint_is_stable_and_stringly(self):
        fp = machine_fingerprint()
        assert fp == machine_fingerprint()
        assert set(fp) == {"machine", "system", "processor", "python"}
        assert all(isinstance(v, str) for v in fp.values())


class TestOpenExisting:
    """``create=False`` (the CLI's read path) refuses non-ledgers."""

    def test_missing_path_raises_naming_it(self, tmp_path):
        path = str(tmp_path / "nope.sqlite")
        with pytest.raises(EngineError, match="no job ledger at"):
            JobStore(path, create=False)

    def test_empty_file_raises_and_stays_untouched(self, tmp_path):
        path = tmp_path / "empty.sqlite"
        path.write_bytes(b"")
        with pytest.raises(EngineError, match="not a job ledger"):
            JobStore(str(path), create=False)
        # Refusal must not write a schema into the probed file.
        assert path.read_bytes() == b""

    def test_non_ledger_database_raises(self, tmp_path):
        import sqlite3
        path = str(tmp_path / "other.sqlite")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE other (x)")
        conn.commit()
        conn.close()
        with pytest.raises(EngineError, match="no jobs table"):
            JobStore(path, create=False)

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"not a database at all" * 100)
        with pytest.raises(EngineError,
                           match="cannot open job ledger"):
            JobStore(str(path), create=False)

    def test_pending_lists_nonterminal_oldest_first(self, store):
        register(store, DIG)
        register(store, DIG2)
        assert store.try_claim(DIG, lease_s=30.0)
        store.mark_running(DIG)
        store.mark_done(DIG)
        assert [r.digest for r in store.pending()] == [DIG2]


class TestInMemory:
    def test_memory_ledger_touches_no_files(self, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = JobStore(":memory:")
        register(store)
        assert store.try_claim(DIG, lease_s=30.0)
        store.mark_running(DIG)
        store.mark_done(DIG)
        assert store.counts()["done"] == 1
        store.close()
        assert os.listdir(tmp_path) == []


class TestJobsCliErrors:
    """`python -m repro.engine jobs` must fail loudly on bad ledgers
    (regression: it used to print an empty table and exit 0)."""

    def _run(self, path, capsys):
        from repro.engine.__main__ import main as engine_main
        code = engine_main(["jobs", "--ledger", path])
        return code, capsys.readouterr().err

    def test_nonexistent_ledger_exits_nonzero(self, tmp_path,
                                              capsys):
        path = str(tmp_path / "missing.sqlite")
        code, err = self._run(path, capsys)
        assert code == 2
        assert path in err

    def test_empty_file_ledger_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "empty.sqlite"
        path.write_bytes(b"")
        code, err = self._run(str(path), capsys)
        assert code == 2
        assert "not a job ledger" in err
        assert path.read_bytes() == b""

    def test_directory_ledger_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "a-directory"
        path.mkdir()
        code, err = self._run(str(path), capsys)
        assert code == 2
        assert str(path) in err
