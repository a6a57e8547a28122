"""Shared plumbing for the experiment harnesses.

Scaling note.  The paper samples counters every 128 cycles over
4096-cycle epochs, on kernels that run for millions of cycles.  Our
synthetic kernels are 50-100x shorter so full sweeps stay tractable, so
the *experiment default* shrinks the epoch to 2048 cycles with a
64-cycle sample interval -- the same 32 samples per epoch -- which
preserves the ratio of decision latency to kernel duration.  The
library default (:class:`repro.config.EqualizerConfig`) keeps the
paper's constants.
"""

import math
from typing import Iterable, List, Optional, Tuple

from ..config import (EqualizerConfig, SimConfig, VF_HIGH, VF_LOW,
                      VF_NORMAL)
from ..engine import Engine, ExecutionReport, Job
from ..engine import jobs as engine_jobs
from ..errors import EngineError, ExperimentError
from ..sim import RunResult
from ..workloads import ALL_KERNELS, kernel_by_name

#: Experiment-scale Equalizer timing (see module docstring).
EXPERIMENT_EQUALIZER_CONFIG = EqualizerConfig(sample_interval=64,
                                              epoch_cycles=2048)


def default_sim() -> SimConfig:
    """The simulation configuration used by every experiment."""
    return SimConfig(equalizer=EXPERIMENT_EQUALIZER_CONFIG)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports GMEAN per category."""
    values = list(values)
    if not values:
        raise ExperimentError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ExperimentError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: Controller keys understood by :class:`RunCache`.
#:
#: ``("baseline",)``                      -- stock GPU
#: ``("static", sm_vf, mem_vf, blocks)``  -- pinned operating point
#: ``("equalizer", mode)``                -- the paper's system
#: ``("equalizer", mode, "blocks-only")`` -- frequencies frozen (Fig 11a)
#: ``("dyncta",)`` / ``("ccws",)``        -- comparators
ControllerKey = Tuple


def make_controller(key: ControllerKey,
                    eq_config: Optional[EqualizerConfig] = None):
    """Instantiate the controller a key describes (None for baseline).

    Thin wrapper over :func:`repro.engine.jobs.make_controller` that
    defaults to the experiment-scale Equalizer timing.
    """
    try:
        return engine_jobs.make_controller(
            key, eq_config or EXPERIMENT_EQUALIZER_CONFIG)
    except EngineError as exc:
        raise ExperimentError(str(exc)) from exc


# Convenience keys used across figures.
BASELINE = ("baseline",)
SM_HIGH = ("static", VF_HIGH, VF_NORMAL, None)
SM_LOW = ("static", VF_LOW, VF_NORMAL, None)
MEM_HIGH = ("static", VF_NORMAL, VF_HIGH, None)
MEM_LOW = ("static", VF_NORMAL, VF_LOW, None)
EQ_PERF = ("equalizer", "performance")
EQ_ENERGY = ("equalizer", "energy")
DYNCTA = ("dyncta",)
CCWS = ("ccws",)
BOOST = ("boost",)


def static_blocks(n: int) -> ControllerKey:
    """Key for a run pinned to ``n`` concurrent blocks per SM."""
    return ("static", VF_NORMAL, VF_NORMAL, n)


def kernel_names(kernels: Optional[List[str]] = None) -> List[str]:
    """The kernel subset an experiment was asked for (default: all)."""
    if kernels:
        return list(kernels)
    return [k.name for k in ALL_KERNELS]


def max_concurrent_blocks(kernel: str,
                          sim: Optional[SimConfig] = None) -> int:
    """Feasible concurrent-block ceiling for a kernel on a machine."""
    sim = sim or default_sim()
    spec = kernel_by_name(kernel)
    return min(spec.max_blocks, sim.gpu.max_blocks_per_sm,
               sim.gpu.max_warps_per_sm // spec.wcta)


class RunCache:
    """Memoising façade over the experiment :class:`~repro.engine.Engine`.

    Several figures share configurations (every figure needs the
    baseline run of every kernel, for instance); the cache makes a full
    regeneration of all figures cost one simulation per distinct
    (kernel, controller, scale) triple.

    Constructed bare (``RunCache(scale=0.3)``) it memoises in memory
    only, exactly like the pre-engine implementation -- tests and ad
    hoc scripts see no disk traffic.  Handed an engine
    (``RunCache(engine=Engine(...))``) it inherits that engine's scale,
    SimConfig, on-disk cache, and process-pool fan-out
    (:meth:`execute`).
    """

    def __init__(self, sim: Optional[SimConfig] = None,
                 scale: float = 1.0,
                 engine: Optional[Engine] = None) -> None:
        if engine is None:
            engine = Engine(sim=sim or default_sim(), scale=scale,
                            use_cache=False)
        elif sim is not None:
            raise ExperimentError(
                "pass sim/scale either to RunCache or to its engine, "
                "not both")
        self.engine = engine
        self.sim = engine.sim
        self.scale = engine.scale

    def run(self, kernel: str, key: ControllerKey = BASELINE) -> RunResult:
        """Run (or recall) one kernel under one controller."""
        return self.engine.run(kernel, key)

    def execute(self, jobs: List[Job]) -> ExecutionReport:
        """Fan a job plan out ahead of rendering (see Engine.execute)."""
        return self.engine.execute(jobs)

    def baseline(self, kernel: str) -> RunResult:
        return self.run(kernel, BASELINE)

    def performance(self, kernel: str, key: ControllerKey) -> float:
        """Speedup of ``key`` over the baseline for one kernel."""
        return self.run(kernel, key).performance_vs(self.baseline(kernel))

    def energy_increase(self, kernel: str, key: ControllerKey) -> float:
        return self.run(kernel, key).energy_increase_vs(
            self.baseline(kernel))

    def energy_savings(self, kernel: str, key: ControllerKey) -> float:
        return self.run(kernel, key).energy_savings_vs(
            self.baseline(kernel))

    def __len__(self) -> int:
        return len(self.engine)
