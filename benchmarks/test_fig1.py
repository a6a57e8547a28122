"""Paper shape check: regenerate Figure 1 (knob sweeps).

Shape targets (paper Section II-A): raising SM frequency helps compute
kernels and not memory kernels; raising memory frequency the converse;
lowering the idle domain's frequency improves energy efficiency at
negligible performance cost; cache kernels have an interior block-count
optimum.
"""

from repro.experiments import fig1_sweeps
from repro.workloads import kernels_in_category


def gmean_perf(points, category):
    vals = [p["performance"] for p in points.values()
            if p["category"] == category]
    prod = 1.0
    for v in vals:
        prod *= v
    return prod ** (1.0 / len(vals))


def test_fig1(cache):
    data = fig1_sweeps.run(cache)
    up_sm = data["frequency"]["1a"]
    assert gmean_perf(up_sm, "compute") > 1.10
    assert gmean_perf(up_sm, "memory") < 1.06

    up_mem = data["frequency"]["1c"]
    assert gmean_perf(up_mem, "memory") > 1.07
    assert gmean_perf(up_mem, "compute") < 1.03

    down_sm = data["frequency"]["1b"]
    assert gmean_perf(down_sm, "compute") < 0.92
    assert gmean_perf(down_sm, "memory") > 0.95
    for name, p in down_sm.items():
        if p["category"] == "memory":
            assert p["efficiency"] > 1.0

    down_mem = data["frequency"]["1d"]
    assert gmean_perf(down_mem, "compute") > 0.97

    # Figure 1e/1f: every cache kernel has an interior optimum (bp-2,
    # the paper's mildest cache kernel, gains only ~1%).
    for spec in kernels_in_category("cache"):
        best = data["static_optimal"][spec.name]
        limit = min(spec.max_blocks, 48 // spec.wcta)
        assert best["blocks"] < limit
        assert best["performance"] > 1.0
    assert data["static_optimal"]["kmn"]["performance"] > 3.0
    print()
    print(fig1_sweeps.report(data))
