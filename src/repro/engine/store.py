"""Job ledger of the experiment engine (SQLite, WAL mode on disk).

Every :meth:`~repro.engine.executor.Engine.execute` plan runs over
one: a durable sweep passes a file-backed ledger that outlives the
driver, any other plan gets a private ``":memory:"`` one.

One row per job, keyed by the job's content digest (the same digest
that addresses the run cache), moving through the states::

    new -> claimed -> running -> done
                 \\-> errored  (failed attempt, retried after backoff)
                  \\-> quarantined  (attempt budget exhausted; terminal)

Claims are *lease-based* and *machine-fingerprint aware*: a claim
records ``<fingerprint>:<pid>`` plus a lease deadline, and running
jobs extend the lease via heartbeats.  :meth:`JobStore.reap` returns
expired ``claimed``/``running`` rows to ``new`` -- and, when the claim
owner is a dead process on *this* machine, reaps immediately without
waiting out the lease, so a SIGKILLed driver's work is reclaimable
the moment ``sweep --resume`` starts.

The ledger never stores results; those live in the content-addressed
:class:`~repro.engine.cache.DiskCache` under the same digest.  A
``done`` row whose cache entry has vanished (cache wiped, or writes
were degraded mid-run) is simply requeued -- simulations are
deterministic, so re-running reproduces the identical entry.
"""

import hashlib
import json
import os
import platform
import sqlite3
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import EngineError

#: States a ledger row can be in.
STATES = ("new", "claimed", "running", "done", "errored", "quarantined")

#: States a claim can take a job from (``errored`` rows retry once
#: their backoff gate ``not_before`` passes).
CLAIMABLE = ("new", "errored")

#: Terminal states: the sweep loop never resubmits these.
TERMINAL = ("done", "quarantined")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    digest TEXT PRIMARY KEY,
    kernel TEXT NOT NULL,
    key_json TEXT NOT NULL,
    scale REAL NOT NULL,
    state TEXT NOT NULL DEFAULT 'new',
    attempts INTEGER NOT NULL DEFAULT 0,
    not_before REAL NOT NULL DEFAULT 0,
    claimed_by TEXT,
    lease_deadline REAL,
    heartbeat REAL,
    error TEXT,
    quarantine TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state);
"""


def machine_fingerprint() -> Dict[str, str]:
    """A stable identity of the hardware/interpreter on this host.

    Wall-clock numbers are only comparable between identical
    fingerprints.  Only coarse, deterministic fields go in -- nothing
    that varies between runs on the same machine.
    """
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "processor": platform.processor(),
        "python": platform.python_implementation() + "-"
        + platform.python_version(),
    }


def fingerprint_id() -> str:
    """Short stable id of this machine (from its fingerprint)."""
    blob = json.dumps(machine_fingerprint(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def default_owner() -> str:
    """Claim identity of this driver process."""
    return f"{fingerprint_id()}:{os.getpid()}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - conservative: assume alive
        return True
    return True


@dataclass
class JobRecord:
    """One ledger row, decoded."""

    digest: str
    kernel: str
    key: Tuple
    scale: float
    state: str
    attempts: int
    not_before: float
    claimed_by: Optional[str]
    lease_deadline: Optional[float]
    heartbeat: Optional[float]
    error: Optional[str]
    quarantine: Optional[Dict]

    def label(self) -> str:
        return f"{self.kernel}/{'-'.join(str(p) for p in self.key)}"


class JobStore:
    """SQLite-backed job ledger shared by sweep drivers on one host."""

    def __init__(self, path: str, owner: Optional[str] = None,
                 create: bool = True) -> None:
        self.path = path
        self.owner = owner or default_owner()
        # ``":memory:"`` is a private ledger for one plan: no file, so
        # no directory to create and no WAL to switch on.
        in_memory = path == ":memory:"
        if create and not in_memory:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        elif not create and not os.path.isfile(path):
            raise EngineError(f"no job ledger at {path}")
        try:
            self._conn = sqlite3.connect(path, timeout=30.0)
            self._conn.row_factory = sqlite3.Row
            if not create and self._conn.execute(
                    "SELECT 1 FROM sqlite_master WHERE type = 'table' "
                    "AND name = 'jobs'").fetchone() is None:
                # ``create=False`` means "open an existing ledger": a
                # file without the jobs table (empty, or not ours)
                # must error loudly, never read as an empty ledger.
                # Validated before any pragma so the file is left
                # byte-for-byte untouched.
                self._conn.close()
                raise EngineError(
                    f"{path} is not a job ledger (no jobs table)")
            if not in_memory:
                try:
                    self._conn.execute("PRAGMA journal_mode=WAL")
                except sqlite3.OperationalError:  # pragma: no cover
                    pass
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            if create:
                with self._conn:
                    self._conn.executescript(_SCHEMA)
        except sqlite3.Error as exc:
            conn = getattr(self, "_conn", None)
            if conn is not None:
                conn.close()
            raise EngineError(
                f"cannot open job ledger {path}: {exc}") from exc

    def close(self) -> None:
        self._conn.close()

    # -- registration --------------------------------------------------

    def register(self, digest: str, kernel: str, key: Tuple,
                 scale: float) -> None:
        """Add a job idempotently; an existing row (any state) wins."""
        now = time.time()
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO jobs (digest, kernel, key_json, "
                "scale, state, created_at, updated_at) "
                "VALUES (?, ?, ?, ?, 'new', ?, ?)",
                (digest, kernel, json.dumps(list(key)), scale, now, now))

    # -- reads ---------------------------------------------------------

    def _decode(self, row: sqlite3.Row) -> JobRecord:
        return JobRecord(
            digest=row["digest"], kernel=row["kernel"],
            key=tuple(json.loads(row["key_json"])), scale=row["scale"],
            state=row["state"], attempts=row["attempts"],
            not_before=row["not_before"], claimed_by=row["claimed_by"],
            lease_deadline=row["lease_deadline"],
            heartbeat=row["heartbeat"], error=row["error"],
            quarantine=(json.loads(row["quarantine"])
                        if row["quarantine"] else None))

    def get(self, digest: str) -> Optional[JobRecord]:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE digest = ?", (digest,)).fetchone()
        return self._decode(row) if row else None

    def state(self, digest: str) -> str:
        row = self._conn.execute(
            "SELECT state FROM jobs WHERE digest = ?",
            (digest,)).fetchone()
        if row is None:
            raise EngineError(f"no ledger row for digest {digest[:12]}")
        return row["state"]

    def attempts(self, digest: str) -> int:
        row = self._conn.execute(
            "SELECT attempts FROM jobs WHERE digest = ?",
            (digest,)).fetchone()
        return row["attempts"] if row else 0

    def records(self, states: Optional[Iterable[str]] = None
                ) -> List[JobRecord]:
        if states is None:
            rows = self._conn.execute(
                "SELECT * FROM jobs ORDER BY created_at").fetchall()
        else:
            states = tuple(states)
            marks = ",".join("?" for _ in states)
            rows = self._conn.execute(
                f"SELECT * FROM jobs WHERE state IN ({marks}) "
                "ORDER BY created_at", states).fetchall()
        return [self._decode(row) for row in rows]

    def pending(self) -> List[JobRecord]:
        """Non-terminal rows, oldest first.

        The queue a restarted driver (the serving front end's boot
        resume in particular) must pick back up: ``reap()`` first so
        claims stranded by a dead process are already back to ``new``.
        """
        return self.records(states=("new", "claimed", "running",
                                    "errored"))

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in STATES}
        for row in self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"):
            counts[row["state"]] = row["n"]
        return counts

    # -- transitions ---------------------------------------------------

    def try_claim(self, digest: str, lease_s: float) -> bool:
        """Atomically claim one job if it is runnable right now."""
        now = time.time()
        with self._conn:
            cur = self._conn.execute(
                "UPDATE jobs SET state = 'claimed', claimed_by = ?, "
                "lease_deadline = ?, heartbeat = ?, updated_at = ? "
                "WHERE digest = ? AND state IN ('new', 'errored') "
                "AND not_before <= ?",
                (self.owner, now + lease_s, now, now, digest, now))
        return cur.rowcount == 1

    def mark_running(self, digest: str) -> None:
        now = time.time()
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET state = 'running', updated_at = ? "
                "WHERE digest = ? AND claimed_by = ?",
                (now, digest, self.owner))

    def heartbeat_many(self, digests: Iterable[str],
                       lease_s: float) -> None:
        """Extend the lease on jobs this driver is actively running."""
        now = time.time()
        with self._conn:
            for digest in digests:
                self._conn.execute(
                    "UPDATE jobs SET heartbeat = ?, lease_deadline = ?, "
                    "updated_at = ? WHERE digest = ? AND claimed_by = ? "
                    "AND state IN ('claimed', 'running')",
                    (now, now + lease_s, now, digest, self.owner))

    def mark_done(self, digest: str) -> None:
        now = time.time()
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET state = 'done', error = NULL, "
                "claimed_by = NULL, lease_deadline = NULL, "
                "updated_at = ? WHERE digest = ?", (now, digest))

    def mark_failed(self, digest: str, error: str,
                    backoff_s: float) -> None:
        """Record a failed attempt; retryable after the backoff gate."""
        now = time.time()
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET state = 'errored', "
                "attempts = attempts + 1, error = ?, not_before = ?, "
                "claimed_by = NULL, lease_deadline = NULL, "
                "updated_at = ? WHERE digest = ?",
                (error, now + backoff_s, now, digest))

    def quarantine(self, digest: str, error: str,
                   record: Dict) -> None:
        """Retire a job whose attempt budget is exhausted (terminal)."""
        now = time.time()
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET state = 'quarantined', "
                "attempts = attempts + 1, error = ?, quarantine = ?, "
                "claimed_by = NULL, lease_deadline = NULL, "
                "updated_at = ? WHERE digest = ?",
                (error, json.dumps(record), now, digest))

    def release(self, digest: str) -> None:
        """Return a claim to ``new`` without charging an attempt.

        Used for innocent-bystander jobs whose pool was torn down to
        kill a hung neighbour.
        """
        now = time.time()
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET state = 'new', claimed_by = NULL, "
                "lease_deadline = NULL, updated_at = ? "
                "WHERE digest = ? AND state IN ('claimed', 'running')",
                (now, digest))

    def requeue_lost(self, digest: str) -> None:
        """A ``done`` row whose cache entry vanished: run it again."""
        now = time.time()
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET state = 'new', updated_at = ? "
                "WHERE digest = ? AND state = 'done'", (now, digest))

    def requeue(self, states: Iterable[str] = ("errored",
                                               "quarantined"),
                digest: Optional[str] = None) -> int:
        """Return matching jobs to ``new`` with a fresh attempt budget."""
        states = tuple(states)
        for state in states:
            if state not in STATES:
                raise EngineError(f"unknown ledger state {state!r}")
        now = time.time()
        marks = ",".join("?" for _ in states)
        sql = (f"UPDATE jobs SET state = 'new', attempts = 0, "
               f"not_before = 0, error = NULL, quarantine = NULL, "
               f"claimed_by = NULL, lease_deadline = NULL, "
               f"updated_at = ? WHERE state IN ({marks})")
        args: List = [now, *states]
        if digest is not None:
            sql += " AND digest = ?"
            args.append(digest)
        with self._conn:
            cur = self._conn.execute(sql, args)
        return cur.rowcount

    # -- reaper --------------------------------------------------------

    def reap(self) -> List[str]:
        """Return stranded claims to ``new``; list the reaped digests.

        A claim is stranded when its lease expired without a
        heartbeat, or when its owner is a process on *this* machine
        that no longer exists (a SIGKILLed driver or dead worker) --
        the latter is reaped immediately, lease or not.
        """
        now = time.time()
        mine = fingerprint_id()
        reaped: List[str] = []
        rows = self._conn.execute(
            "SELECT digest, claimed_by, lease_deadline FROM jobs "
            "WHERE state IN ('claimed', 'running')").fetchall()
        for row in rows:
            expired = (row["lease_deadline"] is not None
                       and row["lease_deadline"] < now)
            dead_local = False
            owner = row["claimed_by"] or ""
            fp, _, pid = owner.partition(":")
            if fp == mine and pid.isdigit():
                dead_local = not _pid_alive(int(pid))
            if expired or dead_local:
                reaped.append(row["digest"])
        if reaped:
            with self._conn:
                for digest in reaped:
                    self._conn.execute(
                        "UPDATE jobs SET state = 'new', "
                        "claimed_by = NULL, lease_deadline = NULL, "
                        "updated_at = ? WHERE digest = ? "
                        "AND state IN ('claimed', 'running')",
                        (now, digest))
        return reaped
