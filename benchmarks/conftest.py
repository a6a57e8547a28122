"""Paper shape checks.

Each test regenerates one of the paper's tables or figures and checks
its shape targets: the assertions behind EXPERIMENTS.md.  Simulations
are deterministic, so one regeneration per test settles each check.
Throughput is measured by ``perfbench/``, not here.

Run at full scale (the scale EXPERIMENTS.md documents)::

    PYTHONPATH=src python -m pytest benchmarks/ -q

Scale down for a quick pass (CI runs 0.25)::

    REPRO_BENCH_SCALE=0.25 PYTHONPATH=src python -m pytest benchmarks/ -q

The session cache sits on the parallel experiment engine: runs fan
out over one worker process per CPU and persist in the engine's
default on-disk run cache, as ``python -m repro`` does, so a warm
second pass re-checks the shapes without re-simulating.
"""

import os

import pytest

from repro.engine import Engine
from repro.experiments.common import RunCache, default_sim


@pytest.fixture(scope="session")
def scale() -> float:
    """The regeneration scale, ``REPRO_BENCH_SCALE`` (default 1.0)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def cache(scale):
    """One engine-backed run cache shared by every check."""
    engine = Engine(sim=default_sim(), scale=scale,
                    jobs=os.cpu_count() or 1)
    return RunCache(engine=engine)
