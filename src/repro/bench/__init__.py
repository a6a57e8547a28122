"""Simulator throughput microbenchmarks (``python -m repro.bench``).

The experiment sweeps replay thousands of epochs through the pure-Python
cycle loop, so simulator throughput -- base ticks simulated per second of
wall clock -- bounds every study this repository can afford.  This
package times four representative kernels, one per behavioural corner of
the substrate:

========== ============ ====================================================
role       kernel       what it stresses
========== ============ ====================================================
compute    ``cutcp``    ALU issue, dependence sleep/wake, the warp scheduler
memory     ``lbm``      LSU drain, MSHRs, L2/DRAM back-pressure
cache      ``spmv``     L1 thrash, miss-path occupancy, CTA-pausing regimes
texture    ``leuko-1``  the deep texture path and its response flood
========== ============ ====================================================

The same four kernels are additionally timed on the per-SM-VRM GPU
variant (rows keyed ``<kernel>@per-sm-vrm``), which exercises the
per-SM clock domains, per-SM power segmentation, and the per-SM
Equalizer controller -- the configuration DVFS sweeps spend their
cycles in, and since the single-source cycle-kernel refactor a first-
class fast path rather than a slow method-call loop.  A third scenario
(rows keyed ``<kernel>@multikernel``) co-schedules each kernel with a
partner from the opposite behavioural corner on disjoint SM partitions
(:func:`repro.sim.multikernel.bench_coschedule`), timing the
partitioned work-distribution path and cross-partition memory
contention.  A fourth scenario (rows keyed ``<kernel>@vector``) runs
the chip-wide GPU through the vectorized busy-slot backend
(:mod:`repro.sim.vector`), which opportunistically executes fill-free
ALU span bursts through numpy; the plain ``chip`` rows are pinned to
the scalar loop so the pair measures exactly the backend swap.  Two
controller scenarios (rows keyed ``<kernel>@ccws`` and
``<kernel>@dyncta``) time the third-party baselines on the scalar chip
GPU: CCWS installs ``sm.hooks`` and therefore runs the hook-bearing
compiled loop variant, DynCTA churns occupancy through the inlined
GWDE launch/retire fragments -- together they price the two
specialization axes next to the hook-free ``chip`` rows.

Results are written as JSON (``BENCH_sim.json`` by default) and two
result files can be compared with a regression threshold; CI keeps a
committed quick-mode baseline honest with ``--compare``.  Simulations
are deterministic, so the simulated tick count of each kernel is stable
across runs and machines -- only the wall clock varies.  Each result
document records a hardware fingerprint of the machine that produced
it; ``--compare`` enforces the regression floor only between documents
from the same fingerprint and downgrades to a warning across machines
(absolute ticks/sec on different silicon is apples to oranges).
"""

import json
import math
import platform
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError

#: Schema version of the benchmark result files.
BENCH_FORMAT = 1

#: Iteration scale used by ``--quick`` (CI smoke) runs.
QUICK_SCALE = 0.3

#: role -> kernel name; one representative per substrate corner.
REPRESENTATIVE_KERNELS: Tuple[Tuple[str, str], ...] = (
    ("compute", "cutcp"),
    ("memory", "lbm"),
    ("cache", "spmv"),
    ("texture", "leuko-1"),
)

#: Row-key suffix of the per-SM-VRM scenario rows.
PER_SM_VRM_SUFFIX = "@per-sm-vrm"

#: Kernels timed on the per-SM-VRM variant (with the per-SM Equalizer
#: controller in performance mode, so the run exercises real per-SM VF
#: divergence, not just the extra clock-domain bookkeeping).
PER_SM_VRM_KERNELS: Tuple[str, ...] = tuple(
    k for _, k in REPRESENTATIVE_KERNELS)

#: Row-key suffix of the concurrent-kernel scenario rows.
MULTIKERNEL_SUFFIX = "@multikernel"

#: Kernels timed as a co-schedule with their bench partner.
MULTIKERNEL_KERNELS: Tuple[str, ...] = tuple(
    k for _, k in REPRESENTATIVE_KERNELS)

#: Row-key suffix of the CCWS (hook-bearing loop variant) rows.
CCWS_SUFFIX = "@ccws"

#: Kernels timed under the CCWS controller, whose attach installs
#: ``sm.hooks`` on every SM and so selects the hook-bearing compiled
#: loop variant.
CCWS_KERNELS: Tuple[str, ...] = tuple(
    k for _, k in REPRESENTATIVE_KERNELS)

#: Row-key suffix of the DynCTA (GWDE-churning) rows.
DYNCTA_SUFFIX = "@dyncta"

#: Kernels timed under the DynCTA controller, which re-tunes
#: ``target_blocks`` every epoch and so drives block launch/retire
#: through the inlined GWDE fragments while staying hook-free.
DYNCTA_KERNELS: Tuple[str, ...] = tuple(
    k for _, k in REPRESENTATIVE_KERNELS)

#: Row-key suffix of the vectorized busy-slot backend rows.
VECTOR_SUFFIX = "@vector"

#: Kernels timed on the vectorized backend (skipped without numpy:
#: the fallback is bit-for-bit the chip loop, so the row would just
#: duplicate the ``chip`` row).
VECTOR_KERNELS: Tuple[str, ...] = tuple(
    k for _, k in REPRESENTATIVE_KERNELS)


class BenchError(ReproError):
    """A benchmark run or comparison failed."""


def machine_fingerprint() -> Dict[str, str]:
    """A stable identity of the hardware/interpreter timing the runs.

    Wall-clock numbers are only comparable between identical
    fingerprints; :func:`compare` warns instead of gating when they
    differ.  Only coarse, deterministic fields go in -- nothing that
    varies between runs on the same machine.
    """
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "processor": platform.processor(),
        "python": platform.python_implementation() + "-"
        + platform.python_version(),
    }


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise BenchError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise BenchError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bench_kernel(name: str, scale: float = 1.0, repeats: int = 1,
                 sim=None, variant: str = "chip") -> Dict:
    """Time one kernel end to end; return its result row.

    ``variant`` selects the GPU under test: ``"chip"`` runs the
    standard chip-wide-VRM GPU pinned to the scalar loop,
    ``"vector"`` the same GPU through the vectorized busy-slot
    backend, ``"per-sm-vrm"`` the per-SM-VRM variant with the per-SM
    Equalizer controller in performance mode, ``"multikernel"``
    co-schedules the kernel with its bench partner on disjoint SM
    partitions of the chip-wide GPU, and ``"ccws"`` / ``"dyncta"``
    run the scalar chip GPU under the matching third-party baseline
    controller (hook-bearing loop variant and GWDE launch/retire
    churn respectively).  Each
    repeat rebuilds the workload (programs are stateful iterators)
    and re-runs the full simulation; the reported wall time is the best
    of the repeats, which is the standard way to shave scheduler noise
    off a deterministic benchmark.
    """
    from ..sim.gpu import GPU, run_kernel
    from ..workloads import build_workload, kernel_by_name

    if repeats < 1:
        raise BenchError("repeats must be >= 1")
    if variant not in ("chip", "vector", "per-sm-vrm", "multikernel",
                       "ccws", "dyncta"):
        raise BenchError(f"unknown bench variant {variant!r}")
    if sim is None:
        from ..experiments.common import default_sim
        sim = default_sim()
    spec = kernel_by_name(name)
    if scale != 1.0:
        spec = spec.scaled(scale)
    best = None
    ticks = None
    for _ in range(repeats):
        if variant == "multikernel":
            from ..sim.multikernel import bench_coschedule
            # bench_coschedule scales its specs itself.  Pinned
            # scalar like "chip": the row predates the vector
            # backend and keeps measuring the scalar loop.
            workload = bench_coschedule(name, sim.gpu.sm_count,
                                        scale=scale, seed=sim.seed)
            start = time.perf_counter()
            run = run_kernel(workload, sim, gpu_class=GPU)
        elif variant == "chip":
            workload = build_workload(spec, seed=sim.seed)
            start = time.perf_counter()
            run = run_kernel(workload, sim, gpu_class=GPU)
        elif variant == "vector":
            from ..sim.vector import VectorGPU
            workload = build_workload(spec, seed=sim.seed)
            start = time.perf_counter()
            run = run_kernel(workload, sim, gpu_class=VectorGPU)
        elif variant in ("ccws", "dyncta"):
            # A fresh controller per repeat (both accumulate per-run
            # state at attach time), pinned to the scalar chip GPU so
            # the row measures the compiled-loop variant the
            # controller selects, not the vector backend.
            if variant == "ccws":
                from ..baselines.ccws import CCWSController
                controller = CCWSController()
            else:
                from ..baselines.dyncta import DynCTAController
                controller = DynCTAController()
            workload = build_workload(spec, seed=sim.seed)
            start = time.perf_counter()
            run = run_kernel(workload, sim, controller=controller,
                             gpu_class=GPU)
        else:
            from ..sim.per_sm_vrm import (PerSMEqualizerController,
                                          run_kernel_per_sm_vrm)
            workload = build_workload(spec, seed=sim.seed)
            # A fresh controller per repeat: it accumulates a decision
            # log and binds to the GPU it attaches to.
            controller = PerSMEqualizerController(
                "performance", config=sim.equalizer)
            start = time.perf_counter()
            run = run_kernel_per_sm_vrm(workload, sim, controller)
        wall = time.perf_counter() - start
        if ticks is None:
            ticks = run.result.ticks
        elif ticks != run.result.ticks:
            raise BenchError(
                f"{name}: nondeterministic tick count "
                f"({ticks} vs {run.result.ticks})")
        if best is None or wall < best:
            best = wall
    return {
        "ticks": ticks,
        "wall_s": round(best, 6),
        "ticks_per_sec": round(ticks / best, 1),
    }


def run_suite(kernels: Optional[List[str]] = None, scale: float = 1.0,
              repeats: int = 1, quick: bool = False) -> Dict:
    """Run the benchmark suite and return the result document."""
    if quick:
        scale = QUICK_SCALE
    roles = dict((k, role) for role, k in REPRESENTATIVE_KERNELS)
    names = kernels or [k for _, k in REPRESENTATIVE_KERNELS]
    rows = {}
    for name in names:
        row = bench_kernel(name, scale=scale, repeats=repeats)
        row["role"] = roles.get(name, "extra")
        rows[name] = row
    if kernels is None:
        # The per-SM-VRM and multikernel scenarios accompany the
        # default suite only; an explicit --kernels subset times
        # exactly what it names.
        for name in PER_SM_VRM_KERNELS:
            row = bench_kernel(name, scale=scale, repeats=repeats,
                               variant="per-sm-vrm")
            row["role"] = "per-sm-vrm"
            rows[name + PER_SM_VRM_SUFFIX] = row
        for name in MULTIKERNEL_KERNELS:
            row = bench_kernel(name, scale=scale, repeats=repeats,
                               variant="multikernel")
            row["role"] = "multikernel"
            rows[name + MULTIKERNEL_SUFFIX] = row
        for name in CCWS_KERNELS:
            row = bench_kernel(name, scale=scale, repeats=repeats,
                               variant="ccws")
            row["role"] = "ccws"
            rows[name + CCWS_SUFFIX] = row
        for name in DYNCTA_KERNELS:
            row = bench_kernel(name, scale=scale, repeats=repeats,
                               variant="dyncta")
            row["role"] = "dyncta"
            rows[name + DYNCTA_SUFFIX] = row
        from ..sim.vector import have_numpy
        if have_numpy():
            for name in VECTOR_KERNELS:
                row = bench_kernel(name, scale=scale, repeats=repeats,
                                   variant="vector")
                row["role"] = "vector"
                rows[name + VECTOR_SUFFIX] = row
    return {
        "format": BENCH_FORMAT,
        "mode": "quick" if quick else "full",
        "scale": scale,
        "repeats": repeats,
        "machine": machine_fingerprint(),
        "kernels": rows,
        "geomean_ticks_per_sec": round(
            geomean([r["ticks_per_sec"] for r in rows.values()]), 1),
    }


def save_results(path: str, results: Dict) -> None:
    with open(path, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")


def load_results(path: str) -> Dict:
    try:
        with open(path, "r") as f:
            results = json.load(f)
    except OSError as exc:
        raise BenchError(f"cannot read benchmark file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise BenchError(f"benchmark file {path} is not JSON: {exc}")
    if results.get("format") != BENCH_FORMAT:
        raise BenchError(f"unsupported benchmark format in {path}: "
                         f"{results.get('format')!r}")
    if "kernels" not in results:
        raise BenchError(f"benchmark file {path} has no kernels")
    return results


def compare(base: Dict, new: Dict, threshold: float = 0.10
            ) -> Tuple[List[str], bool]:
    """Compare two benchmark documents.

    Returns ``(report_lines, ok)``.  The comparison fails when the
    geomean ticks/sec over the kernels common to both documents drops
    by more than ``threshold`` (0.10 = a 10% regression), and the
    failure report names every row below the floor.  Comparing
    documents taken at different scales or modes is reported but not
    fatal: ticks/sec is scale-invariant to first order, the tick counts
    are not.

    The regression floor is enforced only between documents whose
    hardware fingerprints match: across machines the ratio measures
    silicon, not code, so a mismatch downgrades the gate to a warning
    (``ok`` stays True).  Documents without a fingerprint -- older
    baselines -- are compared at full strictness.
    """
    if not 0.0 < threshold < 1.0:
        raise BenchError("threshold must lie in (0, 1)")
    lines = []
    enforce = True
    base_fp, new_fp = base.get("machine"), new.get("machine")
    if base_fp and new_fp and base_fp != new_fp:
        enforce = False
        changed = sorted(k for k in set(base_fp) | set(new_fp)
                         if base_fp.get(k) != new_fp.get(k))
        lines.append(f"warning: hardware fingerprints differ "
                     f"({', '.join(changed)}); the regression floor "
                     f"is advisory, not a gate")
    if base.get("scale") != new.get("scale"):
        lines.append(f"note: scales differ (base {base.get('scale')}, "
                     f"new {new.get('scale')}); comparing ticks/sec only")
    common = [k for k in base["kernels"] if k in new["kernels"]]
    if not common:
        raise BenchError("benchmark files share no kernels")
    missing = sorted(set(base["kernels"]) - set(new["kernels"]))
    if missing:
        lines.append(f"note: kernels missing from new run: "
                     f"{', '.join(missing)}")
    ratios = []
    offending = []
    lines.append(f"{'kernel':<20} {'base t/s':>12} {'new t/s':>12} "
                 f"{'speedup':>8}")
    for name in common:
        b = base["kernels"][name]["ticks_per_sec"]
        n = new["kernels"][name]["ticks_per_sec"]
        ratio = n / b
        ratios.append(ratio)
        lines.append(f"{name:<20} {b:>12.0f} {n:>12.0f} {ratio:>7.2f}x")
        if ratio < (1.0 - threshold):
            offending.append((name, ratio))
    gm = geomean(ratios)
    below = gm < (1.0 - threshold)
    ok = not below or not enforce
    verdict = "REGRESSION" if below and enforce else (
        "below floor, not gated (foreign hardware)" if below else "ok")
    lines.append(f"geomean speedup: {gm:.2f}x "
                 f"(floor {1.0 - threshold:.2f}x -> {verdict})")
    if below and offending:
        lines.append(f"rows below the {1.0 - threshold:.2f}x floor:")
        for name, ratio in offending:
            lines.append(f"  {name}: {ratio:.2f}x")
    return lines, ok
