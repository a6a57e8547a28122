"""Simulation-as-a-service front end.

``python -m repro.serve`` hosts the experiment engine behind a small
asyncio HTTP API: requests are normalized to the engine's content
digests, cache hits return instantly, concurrent requests for the
same digest coalesce onto one run, and misses pass through load-aware
admission control into the durable job ledger.  See
:mod:`repro.serve.server` for the architecture and
:mod:`repro.serve.loadgen` for the deterministic request traces that
perfbench and the tests replay.
"""

from .admission import AdmissionController, TokenBucket
from .protocol import (PROVENANCE_CACHE, PROVENANCE_SIMULATED,
                       BadRequest, SimRequest, canonical_json,
                       normalize_request)
from .server import SimServer

__all__ = [
    "AdmissionController", "TokenBucket", "SimServer", "SimRequest",
    "BadRequest", "normalize_request", "canonical_json",
    "PROVENANCE_CACHE", "PROVENANCE_SIMULATED",
]
