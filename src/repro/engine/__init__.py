"""Parallel experiment engine: plan, execute, cache.

The experiment suite reduces to independent (kernel, controller key,
scale) simulation jobs.  This package turns those jobs into an explicit
pipeline:

* **plan** -- experiment modules declare the jobs they need
  (:func:`collect_jobs` unions the declarations);
* **execute** -- :class:`Engine` fans the plan out over a process pool
  with per-job timing, failure capture, and retry-once-on-crash;
* **cache** -- results land in a content-addressed on-disk store
  (:class:`DiskCache`), keyed by a digest of the kernel spec,
  controller key, :class:`~repro.config.SimConfig`, scale, and a
  code-version salt, so repeat invocations are near-instant across
  processes.

``python -m repro.engine check`` is the benchmark regression guard
built on top (see :mod:`repro.engine.check`).
"""

from .cache import DEFAULT_CACHE_DIR, DiskCache
from .executor import (DEFAULT_BACKOFF_BASE, DEFAULT_BACKOFF_CAP,
                       DEFAULT_LEASE, DEFAULT_MAX_ATTEMPTS,
                       DEFAULT_TIMEOUT, Engine, ExecutionReport,
                       JobOutcome, execute_job)
from .fingerprint import CACHE_FORMAT, code_salt, job_digest
from .jobs import Job, as_jobs, collect_jobs, make_controller
from .serialize import ReproJSONEncoder, dump_json, dumps_json
from .store import JobRecord, JobStore

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_LEASE",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_TIMEOUT",
    "DiskCache",
    "Engine",
    "ExecutionReport",
    "JobOutcome",
    "JobRecord",
    "JobStore",
    "execute_job",
    "CACHE_FORMAT",
    "code_salt",
    "job_digest",
    "Job",
    "as_jobs",
    "collect_jobs",
    "make_controller",
    "ReproJSONEncoder",
    "dump_json",
    "dumps_json",
]
