"""Load-aware admission control for the serving front end.

Every cache *miss* passes through :class:`AdmissionController`, which
decides -- synchronously, from counters only -- one of five verdicts:

``run``
    a worker slot is free right now; the request runs immediately
    (a ``wait=true`` client holds its connection for the result);
``queue``
    all slots busy but the queue has room; the job is enqueued and
    the client polls ``/result/<digest>``;
``reject-load``
    the queue is full too -- HTTP 429 with a load ``Retry-After``;
``reject-rate``
    the client's token bucket is empty -- HTTP 429 with the bucket's
    exact refill time as ``Retry-After``;
``reject-budget``
    the client spent its lifetime run budget -- HTTP 429, terminal
    for that client identity.

Decision order is budget, then load, then rate: a token is the *last*
thing taken, so a request bounced for load never burns one of the
client's tokens.  Coalesced joins of an already-admitted digest bypass
admission entirely -- they cost no engine work, so they are never
charged (only the first requester of a digest pays).

The token bucket is the classic continuous-refill kind: ``burst``
capacity, ``rate`` tokens/second, and a rejected take reports exactly
how long until one token exists, which becomes the 429's
``Retry-After`` header.  Both the bucket and the controller take an
injectable ``clock`` so tests drive time by hand instead of sleeping.
"""

import time
from typing import Callable, Dict, Optional, Tuple

#: Admission verdicts (see module docstring).
RUN = "run"
QUEUE = "queue"
REJECT_LOAD = "reject-load"
REJECT_RATE = "reject-rate"
REJECT_BUDGET = "reject-budget"

#: Verdicts that admit the request (the rest are 429s).
ADMITTED = (RUN, QUEUE)


class TokenBucket:
    """Continuous-refill token bucket: ``burst`` cap, ``rate``/s."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp)
                           * self.rate)
        self._stamp = now

    def try_take(self) -> Tuple[bool, float]:
        """(took, retry_after_s): retry_after is 0 when it took."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self._tokens) / self.rate


class AdmissionController:
    """Run-now / queue / 429 decisions from live load counters.

    ``workers``
        engine worker slots; ``active`` at or above this queues.
    ``queue_limit``
        queued (admitted, not yet terminal) jobs allowed beyond the
        running set; full queue means ``reject-load``.
    ``rate`` / ``burst``
        per-client token bucket (tokens/second and capacity).
    ``run_budget``
        optional lifetime cap of admitted *runs* per client identity
        (None: unlimited).  Coalesced joins and cache hits are free.
    """

    def __init__(self, workers: int, queue_limit: int,
                 rate: float = 20.0, burst: float = 40.0,
                 run_budget: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if workers < 1 or queue_limit < 0:
            raise ValueError("workers >= 1, queue_limit >= 0")
        self.workers = workers
        self.queue_limit = queue_limit
        self.rate = rate
        self.burst = burst
        self.run_budget = run_budget
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._spent: Dict[str, int] = {}
        #: Verdict counters for ``/stats``.
        self.verdicts: Dict[str, int] = {
            RUN: 0, QUEUE: 0, REJECT_LOAD: 0, REJECT_RATE: 0,
            REJECT_BUDGET: 0}

    def _bucket(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst,
                                 clock=self._clock)
            self._buckets[client] = bucket
        return bucket

    def spent(self, client: str) -> int:
        """Admitted runs charged to a client so far."""
        return self._spent.get(client, 0)

    def decide(self, client: str, active: int,
               queued: int) -> Tuple[str, float]:
        """(verdict, retry_after_s) for one cache-missing request.

        ``active`` counts jobs occupying worker slots right now;
        ``queued`` counts admitted jobs waiting behind them.  The
        caller charges nothing for coalesced joins -- only the first
        request of a digest reaches this method.
        """
        if (self.run_budget is not None
                and self.spent(client) >= self.run_budget):
            self.verdicts[REJECT_BUDGET] += 1
            return REJECT_BUDGET, 0.0
        if active >= self.workers and queued >= self.queue_limit:
            self.verdicts[REJECT_LOAD] += 1
            # Heuristic: half an average drain interval per queued job
            # is unknowable here, so advertise a flat beat; clients
            # with real deadlines poll /stats instead.
            return REJECT_LOAD, 1.0
        took, retry_after = self._bucket(client).try_take()
        if not took:
            self.verdicts[REJECT_RATE] += 1
            return REJECT_RATE, retry_after
        self._spent[client] = self.spent(client) + 1
        verdict = RUN if active < self.workers else QUEUE
        self.verdicts[verdict] += 1
        return verdict, 0.0
