"""Seeded case generation for the differential oracle.

Everything in this module is a pure function of its seed: the only
randomness source is ``random.Random(seed)``.  CI enforces this with a
source lint (no wall-clock or OS-entropy imports may appear in this
file), because a case that cannot be regenerated from its seed is a
flake, not a finding.

A :class:`OracleCase` is a self-contained description of one fuzzed
simulation: a tiny randomized :class:`~repro.config.SimConfig` (SM
count, queue depths, MSHRs, cache geometry, DVFS-relevant epoch
timing), a controller key from the experiment vocabulary, and one or
two synthetic kernels (two means a multikernel co-schedule over
disjoint SM partitions).  Cases round-trip through plain JSON so a
divergence reproducer can be committed and replayed.

The parameter ranges are deliberately small: the oracle's power comes
from running *many* cheap cases through *every* execution path, not
from any single case being large.  Boundary-heavy values (1-SM chips,
depth-1 queues, interval-8 sampling) are exactly where path divergence
hides.
"""

from dataclasses import asdict, dataclass, field
from random import Random
from typing import Dict, List

from ..errors import OracleError

#: Schema version of serialized cases and reproducer files.
CASE_FORMAT = 1


@dataclass
class OraclePhase:
    """One phase of a fuzzed kernel (mirrors workloads.program.Phase)."""

    fraction: float = 1.0
    alu_per_mem: int = 4
    txns: int = 1
    ws_lines: int = 0
    shared_ws: bool = False
    store_fraction: float = 0.0
    texture: bool = False
    alu_jitter: int = 0
    stream_fraction: float = 0.0


@dataclass
class OracleKernel:
    """Geometry + phases of one fuzzed kernel."""

    name: str
    wcta: int
    max_blocks: int
    total_blocks: int
    iterations: int
    dep_latency: int
    barrier_interval: int
    phases: List[OraclePhase]


@dataclass
class OracleCase:
    """One fuzzed simulation: config + controller + workload."""

    seed: int
    sm_count: int
    sample_interval: int
    epoch_cycles: int
    lsu_queue_depth: int
    mshr_entries: int
    memory_ingress_depth: int
    dram_queue_depth: int
    l1_sets: int
    l2_sets: int
    dram_bytes_per_cycle: float
    #: Controller key in the experiment vocabulary, e.g.
    #: ["baseline"], ["equalizer", "performance"],
    #: ["static", 1, -1, 2].
    controller: List
    kernels: List[OracleKernel] = field(default_factory=list)

    @property
    def multikernel(self) -> bool:
        return len(self.kernels) > 1

    def to_dict(self) -> Dict:
        data = asdict(self)
        data["format"] = CASE_FORMAT
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "OracleCase":
        data = dict(data)
        fmt = data.pop("format", CASE_FORMAT)
        if fmt != CASE_FORMAT:
            raise OracleError(f"unsupported oracle case format {fmt!r}")
        kernels = [
            OracleKernel(
                phases=[OraclePhase(**p) for p in k.pop("phases")], **k)
            for k in [dict(k) for k in data.pop("kernels")]
        ]
        return cls(kernels=kernels, **data)


def _gen_phase(rng: Random, first: bool, two_phase: bool) -> OraclePhase:
    alu = rng.choice((0, 1, 2, 4, 6, 10))
    ws = rng.choice((0, 0, 4, 8, 16))
    return OraclePhase(
        fraction=rng.choice((0.3, 0.5, 0.7)) if (first and two_phase)
        else 1.0,
        alu_per_mem=alu,
        txns=rng.choice((1, 1, 2, 3)),
        ws_lines=ws,
        shared_ws=bool(ws) and rng.random() < 0.4,
        store_fraction=rng.choice((0.0, 0.0, 0.25)),
        texture=rng.random() < 0.15,
        alu_jitter=rng.choice((0, 1)) if alu >= 1 else 0,
        stream_fraction=rng.choice((0.0, 0.5)) if ws else 0.0,
    )


def _gen_kernel(rng: Random, idx: int) -> OracleKernel:
    two_phase = rng.random() < 0.3
    nphases = 2 if two_phase else 1
    return OracleKernel(
        name=f"oc{idx}",
        wcta=rng.choice((1, 2, 4, 8)),
        max_blocks=rng.choice((1, 2, 4)),
        total_blocks=rng.randint(2, 10),
        iterations=rng.randint(3, 25),
        dep_latency=rng.choice((2, 4, 6)),
        barrier_interval=rng.choice((0, 0, 0, 4)),
        phases=[_gen_phase(rng, i == 0, two_phase)
                for i in range(nphases)],
    )


def _gen_controller(rng: Random) -> List:
    roll = rng.random()
    if roll < 0.25:
        return ["baseline"]
    if roll < 0.45:
        return ["equalizer", rng.choice(("performance", "energy"))]
    # CCWS installs sm.hooks, so its cases exercise the guarded miss
    # hook site (and vector bursts under instrumentation); DynCTA
    # drives occupancy through the GWDE launch/retire fragments.
    if roll < 0.55:
        return ["ccws"]
    if roll < 0.65:
        return ["dyncta"]
    # Static operating points exercise non-nominal DVFS rates in both
    # clock domains -- including the memory-rate != 1.0 method fallback
    # inside the fused loops.
    blocks = rng.choice((None, None, 1, 2))
    return ["static", rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1)),
            blocks]


def generate_case(seed: int) -> OracleCase:
    """The fuzzed case for one seed (pure: same seed, same case)."""
    rng = Random(seed)
    sm_count = rng.choice((1, 2, 3, 4))
    interval = rng.choice((8, 16, 32))
    nkernels = 2 if sm_count >= 2 and rng.random() < 0.35 else 1
    return OracleCase(
        seed=seed,
        sm_count=sm_count,
        sample_interval=interval,
        epoch_cycles=interval * rng.choice((4, 8, 16)),
        lsu_queue_depth=rng.choice((1, 2, 4, 8)),
        mshr_entries=rng.choice((1, 2, 4, 8)),
        memory_ingress_depth=rng.choice((1, 2, 4, 8)),
        dram_queue_depth=rng.choice((1, 2, 4, 8)),
        l1_sets=rng.choice((2, 4, 8)),
        l2_sets=rng.choice((4, 8, 16)),
        dram_bytes_per_cycle=float(rng.choice((32, 64, 128, 256))),
        controller=_gen_controller(rng),
        kernels=[_gen_kernel(rng, i) for i in range(nkernels)],
    )


def case_seeds(seed: int, n: int) -> List[int]:
    """The first ``n`` case seeds of a master seed.

    Drawn sequentially from one master stream, so ``--n 25`` runs a
    strict prefix of ``--n 50`` at the same ``--seed`` -- the CI smoke
    job covers a subset of what the nightly job covers.
    """
    master = Random(seed)
    return [master.randrange(2 ** 63) for _ in range(n)]
