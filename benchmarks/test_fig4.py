"""Paper shape check: regenerate Figure 4 (state of the warps).

Shape targets: compute kernels are Excess-ALU-dominated, memory and
cache kernels show substantial Excess-memory plus Waiting, unsaturated
kernels lean one way without saturating, and leuko-1's texture path
hides its memory pressure (no visible Xmem).
"""

from repro.experiments import fig4_warp_states
from repro.workloads import kernels_in_category


def test_fig4(cache):
    data = fig4_warp_states.run(cache)

    for spec in kernels_in_category("compute"):
        f = data[spec.name]
        assert f["excess_alu"] > f["excess_mem"], spec.name

    for spec in kernels_in_category("memory"):
        f = data[spec.name]
        assert f["waiting"] > 0.4, spec.name

    for spec in kernels_in_category("cache"):
        f = data[spec.name]
        # Memory-side pressure dominates at maximum threads; bp-2, the
        # paper's mildest cache kernel, keeps a visible ALU component.
        assert f["waiting"] + f["excess_mem"] > 0.6, spec.name
        if spec.name != "bp-2":
            assert f["excess_mem"] > f["excess_alu"], spec.name
            assert f["excess_mem"] > 0.05, spec.name

    # The texture-path kernel shows no LD/ST back-pressure.
    assert data["leuko-1"]["excess_mem"] < 0.05

    # Unsaturated kernels still have an inclination.
    for spec in kernels_in_category("unsaturated"):
        f = data[spec.name]
        assert f["excess_alu"] + f["excess_mem"] + f["waiting"] > 0.3
    print()
    print(fig4_warp_states.report(data))
