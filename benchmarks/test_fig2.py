"""Paper shape check: regenerate Figure 2 (variation in kernel needs).

Shape targets: bfs-2's optimum shifts from 3 blocks (early invocations)
to 1 block (invocations 7-9) and back; picking per-invocation beats the
best static choice.  mri-g-1 shows bursts of excess-memory pressure on
a waiting-dominated background.
"""

from repro.experiments import fig2_variation


def test_fig2(cache):
    data = fig2_variation.run(cache)

    a = data["fig2a"]
    picks = a["optimal_choice"]
    assert all(p == 3 for p in picks[:7])
    assert all(p == 1 for p in picks[7:10])
    assert a["improvement_over_best_static"] > 0.03

    b = data["fig2b"]
    xmems = [p["xmem"] for p in b["series"]]
    waitings = [p["waiting"] for p in b["series"]]
    assert b["peak_xmem"] > 3 * (sum(xmems) / len(xmems) + 1e-9) or \
        b["peak_xmem"] > 0.5
    # Waiting dominates throughout (the background of Figure 2b).
    assert min(waitings[:-1]) > max(xmems)
    print()
    print(fig2_variation.report(data))
