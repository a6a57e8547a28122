"""Concurrent kernels partitioned across SMs.

Section I of the paper: "As new GPU architectures support different
kernels on each SM, Equalizer runs on individual SMs to make decisions
tailored for each kernel."  This module provides the workload side of
that scenario: a :class:`MultiKernelWorkload` assigns a different
kernel spec to each SM partition, and a :class:`PartitionedGWDE` keeps
each partition's thread blocks on its own SMs.

With a chip-wide voltage regulator the partitions' VF votes conflict
and the majority rule freezes both domains; with the per-SM variant
(:mod:`repro.sim.per_sm_vrm`) each partition gets its own operating
point -- the quantitative version of the paper's remark.
"""

import hashlib
import json
from collections import deque
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from ..errors import WorkloadError
from ..workloads.spec import KernelSpec, SyntheticWorkload


class PartitionedGWDE:
    """A work distribution engine with per-SM block pools.

    Maintains the same ``live == pending + outstanding`` invariant as
    :class:`repro.sim.gwde.GWDE`: the compiled GWDE launch/retire
    fragments of :mod:`repro.sim.cycle_kernel` operate on
    :meth:`pool_for` and the counters directly.
    """

    __slots__ = ("pools", "outstanding", "dispatched", "live")

    def __init__(self, pools: Dict[int, Sequence]) -> None:
        self.pools = {sm_id: deque(factories)
                      for sm_id, factories in pools.items()}
        self.outstanding = 0
        self.dispatched = 0
        self.live = sum(len(pool) for pool in self.pools.values())

    def pool_for(self, sm_id: int):
        """This SM's pending pool, or None outside every partition."""
        return self.pools.get(sm_id)

    def request(self, sm_id: int):
        pool = self.pools.get(sm_id)
        if not pool:
            return None
        self.outstanding += 1
        self.dispatched += 1
        return pool.popleft()

    def notify_done(self) -> None:
        self.outstanding -= 1
        self.live -= 1

    @property
    def drained(self) -> bool:
        return (self.outstanding == 0
                and all(not pool for pool in self.pools.values()))

    def __len__(self) -> int:
        return sum(len(pool) for pool in self.pools.values())


class MultiKernelWorkload:
    """Several kernels running concurrently on disjoint SM partitions.

    ``assignments`` maps each kernel spec to the SM ids it owns.  Each
    spec's ``total_blocks`` is interpreted per partition (scaled by the
    partition's share is the caller's choice).  All specs must be
    single-invocation; the concurrent phase is inherently one launch.
    """

    def __init__(self, assignments: List[Tuple[KernelSpec, Sequence[int]]],
                 seed: int = 2014) -> None:
        if not assignments:
            raise WorkloadError("need at least one kernel assignment")
        seen = set()
        for spec, sm_ids in assignments:
            if spec.invocations != 1:
                raise WorkloadError(
                    f"{spec.name}: concurrent kernels must be "
                    "single-invocation")
            if not sm_ids:
                raise WorkloadError(f"{spec.name}: empty SM partition")
            overlap = seen.intersection(sm_ids)
            if overlap:
                raise WorkloadError(f"SM partitions overlap: {overlap}")
            seen.update(sm_ids)
        self.assignments = assignments
        self.seed = seed
        self.name = "+".join(spec.name for spec, _ in assignments)
        self.invocations = 1

    # -- simulator workload protocol -----------------------------------
    def wcta(self, invocation: int) -> int:
        # Used only as a fallback; per-SM geometry wins (wcta_for_sm).
        return self.assignments[0][0].wcta

    def max_blocks(self, invocation: int) -> int:
        return max(spec.max_blocks for spec, _ in self.assignments)

    def wcta_for_sm(self, invocation: int, sm_id: int) -> int:
        return self._spec_for(sm_id).wcta

    def max_blocks_for_sm(self, invocation: int, sm_id: int) -> int:
        return self._spec_for(sm_id).max_blocks

    def block_factories(self, invocation: int):
        # Flattened view; only used when no partitioning is honoured.
        flat = []
        for spec, _ in self.assignments:
            flat.extend(SyntheticWorkload(
                spec, seed=self.seed).block_factories(invocation))
        return flat

    def make_gwde(self, invocation: int) -> PartitionedGWDE:
        pools: Dict[int, List] = {}
        for spec, sm_ids in self.assignments:
            factories = SyntheticWorkload(
                spec, seed=self.seed).block_factories(invocation)
            # Deal the partition's blocks round-robin over its SMs.
            for i, sm_id in enumerate(sm_ids):
                pools[sm_id] = []
            for i, factory in enumerate(factories):
                pools[sm_ids[i % len(sm_ids)]].append(factory)
        return PartitionedGWDE(pools)

    def _spec_for(self, sm_id: int) -> KernelSpec:
        for spec, sm_ids in self.assignments:
            if sm_id in sm_ids:
                return spec
        # SMs outside every partition idle on the first spec's geometry.
        return self.assignments[0][0]


# ----------------------------------------------------------------------
# Deterministic result digesting.
# ----------------------------------------------------------------------
def digest_payload(payload) -> str:
    """sha256 of the canonical JSON encoding of ``payload``.

    Canonical means sorted keys and no whitespace, so two payloads
    digest equal iff they are value-equal -- the property the golden
    pinning in ``tests/test_cycle_kernel.py`` and the differential
    oracle both rely on.  Floats are serialised by ``repr`` (json's
    default), which round-trips exactly on every supported platform.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Co-schedule builders.
# ----------------------------------------------------------------------
def coschedule(names: Sequence[str], sm_count: int, scale: float = 1.0,
               seed: int = 2014) -> MultiKernelWorkload:
    """Even SM split of the named suite kernels as one concurrent launch.

    The chip's SMs are divided into ``len(names)`` contiguous
    partitions (earlier partitions absorb the remainder).  Each spec's
    ``total_blocks`` is scaled by its partition's share of the chip so
    the per-SM load matches the kernel's single-kernel run, and its
    iteration count by ``scale`` as ``KernelSpec.scaled`` does.
    Multi-invocation specs are collapsed to their first invocation:
    the concurrent phase is inherently one launch.
    """
    from ..workloads.suite import kernel_by_name

    if not names:
        raise WorkloadError("coschedule needs at least one kernel name")
    if sm_count < len(names):
        raise WorkloadError(
            f"cannot partition {sm_count} SMs among {len(names)} kernels")
    base = sm_count // len(names)
    extra = sm_count % len(names)
    assignments = []
    next_sm = 0
    for i, name in enumerate(names):
        width = base + (1 if i < extra else 0)
        sm_ids = list(range(next_sm, next_sm + width))
        next_sm += width
        spec = kernel_by_name(name)
        if scale != 1.0:
            spec = spec.scaled(scale)
        blocks = max(1, spec.total_blocks * width // sm_count)
        spec = replace(spec, invocations=1, total_blocks=blocks,
                       variant=None)
        assignments.append((spec, sm_ids))
    return MultiKernelWorkload(assignments, seed=seed)
