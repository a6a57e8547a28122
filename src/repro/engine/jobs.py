"""Job vocabulary of the experiment engine.

A :class:`Job` names one simulation the suite needs: a kernel from the
Table II suite plus a *controller key* -- the flat tuple vocabulary the
experiment harnesses use to describe a controller configuration
(``("baseline",)``, ``("equalizer", "performance")``, ...).  The scale
factor and :class:`~repro.config.SimConfig` are properties of the
engine executing the plan, not of the job, so the same plan can be
replayed at any scale.

Experiment modules declare the jobs they need through a module-level
``jobs(kernels=None, sim=None)`` function; :func:`collect_jobs` unions
those declarations into a deduplicated plan.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..baselines import (CCWSController, DynCTAController,
                         PowerBudgetController, StaticController)
from ..config import EqualizerConfig
from ..core import EqualizerController
from ..errors import EngineError
from ..sim.results import encode_controller_key

#: A controller key: flat tuple of primitives (see experiments.common).
ControllerKey = Tuple


@dataclass(frozen=True)
class Job:
    """One distinct simulation: a kernel under one controller key."""

    kernel: str
    key: ControllerKey
    #: Optional precomputed content address.  Suite jobs leave this
    #: None and the engine derives the digest from the kernel spec +
    #: SimConfig + code salt; callers whose ``kernel`` is not a Table
    #: II name (the differential oracle's synthetic cases) must supply
    #: their own.  Excluded from equality/hash: the digest is a
    #: function of the other fields plus engine config, not identity.
    digest: Optional[str] = field(default=None, compare=False)

    def label(self) -> str:
        """Human-readable id used in timing and failure reports."""
        return f"{self.kernel}/{'-'.join(str(p) for p in self.key)}"


def make_controller(key: ControllerKey,
                    eq_config: Optional[EqualizerConfig] = None):
    """Instantiate the controller a key describes (None for baseline).

    ``eq_config`` applies to Equalizer keys; the engine passes the
    equalizer section of its :class:`~repro.config.SimConfig`.
    """
    eq_config = eq_config or EqualizerConfig()
    _check_key(key)
    kind = key[0]
    if kind == "baseline":
        return None
    if kind == "static":
        _, sm_vf, mem_vf, blocks = key
        return StaticController(sm_vf=sm_vf, mem_vf=mem_vf, blocks=blocks)
    if kind == "equalizer":
        return EqualizerController(key[1], config=eq_config,
                                   manage_frequency=len(key) == 2)
    if kind == "dyncta":
        return DynCTAController()
    if kind == "ccws":
        return CCWSController()
    # kind == "boost"
    return (PowerBudgetController(budget_w=key[1]) if len(key) > 1
            else PowerBudgetController())


def _is_int(part) -> bool:
    return isinstance(part, int) and not isinstance(part, bool)


def _check_key(key: ControllerKey) -> None:
    """Reject a key whose arity or part types the vocabulary lacks.

    ``True`` is refused where an int belongs: it equals ``1`` and
    would run the same simulation under another digest.  The
    controllers check the values (VF states, block counts, budgets).
    """
    kind = key[0] if key else None
    if kind in ("baseline", "dyncta", "ccws"):
        ok = len(key) == 1
    elif kind == "static":
        ok = (len(key) == 4 and _is_int(key[1]) and _is_int(key[2])
              and (key[3] is None or _is_int(key[3])))
    elif kind == "equalizer":
        ok = len(key) == 2 or (len(key) == 3 and key[2] == "blocks-only")
    elif kind == "boost":
        ok = len(key) == 1 or (
            len(key) == 2 and isinstance(key[1], (int, float))
            and not isinstance(key[1], bool) and math.isfinite(key[1]))
    else:
        raise EngineError(f"unknown controller key {key!r}")
    if not ok:
        raise EngineError(f"malformed {kind} controller key {key!r}")


def as_jobs(pairs: Iterable[Tuple[str, ControllerKey]]) -> List[Job]:
    """Normalise (kernel, key) pairs to validated jobs."""
    jobs = []
    for kernel, key in pairs:
        encode_controller_key(key)  # reject non-primitive keys early
        jobs.append(Job(kernel=kernel, key=tuple(key)))
    return jobs


def collect_jobs(modules, kernels: Optional[List[str]] = None,
                 sim=None) -> List[Job]:
    """Union of the job sets the given experiment modules declare.

    Modules without a ``jobs`` declaration (harnesses that drive the
    simulator directly, e.g. the ablations) contribute nothing; they
    run outside the engine.  Order is first-declared-first, so the
    cheap shared runs (baselines) surface early in progress output.
    """
    seen = set()
    plan: List[Job] = []
    for module in modules:
        declare = getattr(module, "jobs", None)
        if declare is None:
            continue
        for job in as_jobs(declare(kernels=kernels, sim=sim)):
            if job not in seen:
                seen.add(job)
                plan.append(job)
    return plan
