"""Kernel specifications and the workload objects the simulator runs.

A :class:`KernelSpec` is a declarative description of one synthetic
kernel (Table II row): geometry (warps per block, concurrent-block
limit, total blocks, invocations) plus the phase list that shapes its
resource signature.  :class:`SyntheticWorkload` realises a spec into
the protocol the simulator consumes: per-invocation block factories
producing warp programs.

Per-invocation variation (the bfs-2 behaviour of Figure 2a) is
expressed with a ``variant`` callable that maps the invocation index to
overrides of the iteration count and phase list.
"""

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

from ..errors import WorkloadError
from .program import Phase, WarpProgram
from .schedule import draw_schedules

#: Categories used throughout the paper.
CATEGORIES = ("compute", "memory", "cache", "unsaturated")


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of one synthetic kernel."""

    name: str
    category: str
    #: Warps per thread block (Table II's Wcta).
    wcta: int
    #: Hardware-limited concurrent blocks per SM (Table II's numBlocks).
    max_blocks: int
    #: Total thread blocks per invocation (across the whole GPU).
    total_blocks: int
    #: Inner-loop iterations per warp per invocation.
    iterations: int
    phases: Tuple[Phase, ...] = (Phase(),)
    invocations: int = 1
    #: Barrier every this many iterations (0 = no barriers).
    barrier_interval: int = 0
    #: Dependent-issue interval of the kernel's ALU chains, in cycles.
    dep_latency: int = 6
    #: Work multiplier for block 0 (prtcl-2 style load imbalance).
    imbalance_factor: float = 1.0
    #: Fraction of its application's runtime (Table II, documentation).
    app_fraction: float = 1.0
    #: Optional per-invocation override:
    #: ``variant(inv, spec) -> (iterations, phases)``.
    variant: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise WorkloadError(f"unknown category {self.category!r}")
        if self.wcta < 1 or self.max_blocks < 1:
            raise WorkloadError("wcta and max_blocks must be >= 1")
        if self.total_blocks < 1:
            raise WorkloadError("total_blocks must be >= 1")
        if self.iterations < 1:
            raise WorkloadError("iterations must be >= 1")
        if self.invocations < 1:
            raise WorkloadError("invocations must be >= 1")
        if self.imbalance_factor < 1.0:
            raise WorkloadError("imbalance_factor must be >= 1.0")

    def resolved(self, invocation: int):
        """(iterations, phases, total_blocks) for one invocation.

        A variant may return either ``(iterations, phases)`` or
        ``(iterations, phases, total_blocks)``; the block count lets a
        variant model frontiers of different sizes (bfs-2).
        """
        if self.variant is None:
            return self.iterations, self.phases, self.total_blocks
        out = self.variant(invocation, self)
        if len(out) == 2:
            iters, phases = out
            blocks = self.total_blocks
        else:
            iters, phases, blocks = out
        if iters < 1:
            raise WorkloadError(
                f"{self.name}: variant produced iterations={iters}")
        if blocks < 1:
            raise WorkloadError(
                f"{self.name}: variant produced total_blocks={blocks}")
        return iters, phases, blocks

    def scaled(self, factor: float) -> "KernelSpec":
        """Return a copy with the per-warp iteration count scaled."""
        if factor <= 0:
            raise WorkloadError("scale factor must be positive")
        return replace(self, iterations=max(1, int(self.iterations
                                                   * factor)))


#: The draw schedules of the last kernel a workload was built for in
#: this process, as ``(key, {block_uid: per-warp schedules})``.  One
#: slot: a workload of a different kernel replaces it, so memory stays
#: one kernel's schedules, while a run that follows a run of the same
#: kernel (another controller, the next job of a kernel-major sweep)
#: seeds no RNG at all.  The key carries ``variant`` because spec
#: equality ignores it.  The slot is read and replaced whole, so a
#: workload built concurrently in another thread can never be handed
#: a dict filled for a different kernel.
_last_kernel = (None, None)


class SyntheticWorkload:
    """Adapter realising a spec into the simulator's workload protocol."""

    def __init__(self, spec: KernelSpec, seed: int = 2014) -> None:
        self.spec = spec
        self.seed = seed
        global _last_kernel
        key = (spec, spec.variant, seed)
        last_key, schedules = _last_kernel
        if last_key != key:
            schedules = {}
            _last_kernel = (key, schedules)
        self._schedules = schedules

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def invocations(self) -> int:
        return self.spec.invocations

    def wcta(self, invocation: int) -> int:
        return self.spec.wcta

    def max_blocks(self, invocation: int) -> int:
        return self.spec.max_blocks

    def block_factories(self, invocation: int):
        """Return one program-list factory per thread block."""
        spec = self.spec
        iterations, phases, total_blocks = spec.resolved(invocation)
        seed = self.seed
        factories = []
        for block_idx in range(total_blocks):
            block_uid = invocation * 1_000_000 + block_idx + 1
            iters = iterations
            if block_idx == 0 and spec.imbalance_factor > 1.0:
                iters = max(1, int(iterations * spec.imbalance_factor))
            factories.append(self._make_factory(
                phases, iters, block_uid, seed, spec.wcta,
                spec.barrier_interval, spec.dep_latency,
                self._schedules))
        return factories

    @staticmethod
    def _make_factory(phases, iterations, block_uid, seed, wcta,
                      barrier_interval, dep_latency, schedules):
        def factory():
            block = schedules.get(block_uid)
            if block is None:
                block = schedules[block_uid] = draw_schedules(
                    phases, iterations, block_uid,
                    [(w, seed + block_uid * 64 + w) for w in range(wcta)])
            return [WarpProgram(phases, iterations, block_uid, w,
                                seed + block_uid * 64 + w,
                                barrier_interval, dep_latency, block[w])
                    for w in range(wcta)]
        return factory


def build_workload(spec: KernelSpec, seed: int = 2014,
                   scale: float = 1.0) -> SyntheticWorkload:
    """Construct a runnable workload from a spec, optionally rescaled."""
    if scale != 1.0:
        spec = spec.scaled(scale)
    return SyntheticWorkload(spec, seed=seed)
