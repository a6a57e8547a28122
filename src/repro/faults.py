"""Deterministic fault injection for the supervised engine runtime.

The ``REPRO_FAULTS`` environment variable arms a :class:`FaultPlan`::

    REPRO_FAULTS="crash@0.1,hang@0.05,cache_io@0.2:seed=7,hang_s=300"

Grammar: a comma-separated list of ``site@rate`` pairs, optionally
followed by ``:key=value`` options (``seed``, an integer master seed,
default 0; ``hang_s``, how long an injected hang sleeps, default
3600).  Sites:

``crash``
    the worker process exits hard (``os._exit``), as if OOM-killed;
``hang``
    the worker sleeps past any sane wall-clock budget, exercising the
    watchdog's kill-and-rebuild path;
``cache_io``
    :meth:`repro.engine.cache.DiskCache.put` raises :class:`OSError`,
    as if the disk filled or the mount went read-only.

Every firing decision is a pure function of ``(seed, site, token)``
hashed through SHA-256 -- no RNG state, no wall clock -- so a faulted
run replays *exactly* under the same spec, regardless of worker count,
scheduling order, or process boundaries.  The supervised executor
includes the attempt number in the token, so a job that crashes on
attempt 1 deterministically crashes (or not) on attempt 2 independent
of attempt 1.

Decisions are made driver-side (the supervisor computes the action
list for each submission) and *executed* worker-side at the injection
site (:func:`apply_worker_actions` runs first thing in the pool-worker
wrapper); ``cache_io`` decisions are made and executed at the
``DiskCache.put`` site itself.  Every ``Engine.execute`` plan runs
on supervised pool workers, so worker faults fire at every ``--jobs``
value; only the in-driver paths (``Engine.run`` and ``python -m
repro.engine solo``) never see a ``crash`` or ``hang``: killing the
driver process is the job of the SIGKILL-and-resume tests, not of the
harness.
"""

import hashlib
import os
import time
from typing import Dict, List, Optional, Tuple

from .errors import FaultError

#: Environment variable holding the fault spec.
ENV_VAR = "REPRO_FAULTS"

#: Injection sites the harness knows about.
SITES = ("crash", "hang", "cache_io")

#: Exit status of an injected worker crash (distinctive in waitpid).
CRASH_EXIT_CODE = 23


class FaultPlan:
    """Parsed, seeded fault spec; all decisions are deterministic."""

    def __init__(self, rates: Dict[str, float], seed: int = 0,
                 hang_s: float = 3600.0) -> None:
        for site, rate in rates.items():
            if site not in SITES:
                raise FaultError(f"unknown fault site {site!r} "
                                 f"(known: {', '.join(SITES)})")
            if not 0.0 <= rate <= 1.0:
                raise FaultError(f"fault rate for {site} must be in "
                                 f"[0, 1], got {rate}")
        self.rates = dict(rates)
        self.seed = seed
        self.hang_s = hang_s

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``site@rate,...[:key=value,...]`` into a plan."""
        spec = spec.strip()
        if not spec:
            raise FaultError("empty fault spec")
        sites_part, _, opts_part = spec.partition(":")
        rates: Dict[str, float] = {}
        for chunk in sites_part.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            site, sep, rate = chunk.partition("@")
            if not sep:
                raise FaultError(
                    f"malformed fault {chunk!r} (want site@rate)")
            try:
                rates[site.strip()] = float(rate)
            except ValueError:
                raise FaultError(f"malformed fault rate in {chunk!r}")
        if not rates:
            raise FaultError(f"no site@rate pairs in {spec!r}")
        seed, hang_s = 0, 3600.0
        for chunk in filter(None, (c.strip()
                                   for c in opts_part.split(","))):
            key, sep, value = chunk.partition("=")
            if not sep:
                raise FaultError(f"malformed fault option {chunk!r}")
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "hang_s":
                    hang_s = float(value)
                else:
                    raise FaultError(f"unknown fault option {key!r}")
            except ValueError:
                raise FaultError(f"malformed fault option {chunk!r}")
        return cls(rates, seed=seed, hang_s=hang_s)

    def fires(self, site: str, token: str) -> bool:
        """Whether the fault at ``site`` fires for this token.

        Pure function of (seed, site, token): the first 8 bytes of
        SHA-256 over them, mapped to [0, 1), compared to the rate.
        """
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        blob = f"{self.seed}:{site}:{token}".encode()
        draw = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
        return draw / 2.0 ** 64 < rate

    def worker_actions(self, token: str) -> List[Tuple]:
        """Actions the pool-worker wrapper must take for this token.

        Crash shadows hang: a worker that would do both just dies.
        """
        if self.fires("crash", token):
            return [("crash",)]
        if self.fires("hang", token):
            return [("hang", self.hang_s)]
        return []

    def check_cache_io(self, token: str) -> None:
        """Raise the injected OSError if cache_io fires for token."""
        if self.fires("cache_io", token):
            raise OSError(f"injected cache_io fault (token "
                          f"{token[:12]}..., seed {self.seed})")


def apply_worker_actions(actions: List[Tuple]) -> None:
    """Execute injected actions inside a worker process."""
    for action in actions:
        if action[0] == "crash":
            os._exit(CRASH_EXIT_CODE)
        elif action[0] == "hang":
            time.sleep(action[1])
        else:  # pragma: no cover - driver only builds known actions
            raise FaultError(f"unknown fault action {action!r}")


_cached_spec: Optional[str] = None
_cached_plan: Optional[FaultPlan] = None


def active() -> Optional[FaultPlan]:
    """The plan armed via ``REPRO_FAULTS``, or None when unset.

    Memoised on the spec string, so tests flipping the environment
    variable get a fresh parse without an explicit reset hook.
    """
    global _cached_spec, _cached_plan
    spec = os.environ.get(ENV_VAR)
    if spec != _cached_spec:
        _cached_plan = FaultPlan.parse(spec) if spec else None
        _cached_spec = spec
    return _cached_plan
