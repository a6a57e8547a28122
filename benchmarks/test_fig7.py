"""Paper shape check: regenerate Figure 7 (performance mode).

Shape targets (paper Section V-B): Equalizer tracks the better static
boost per category, wins big on cache-sensitive kernels with an energy
*decrease*, misses leuko-1, and overall beats both always-boost
policies at lower energy cost (paper: 22% speedup / +6% energy versus
7%/+12% and 6%/+7%).
"""

from repro.experiments import fig7_performance_mode


def test_fig7(cache):
    data = fig7_performance_mode.run(cache)
    s = data["summary"]
    eq = s["equalizer"]
    assert eq["speedup_gmean"] > 1.15
    assert eq["speedup_gmean"] > s["sm_boost"]["speedup_gmean"] + 0.05
    assert eq["speedup_gmean"] > s["mem_boost"]["speedup_gmean"] + 0.05
    assert eq["energy_increase_mean"] < s["sm_boost"][
        "energy_increase_mean"]

    cats = data["by_category"]
    assert 1.08 < cats["compute"]["speedup_gmean"] < 1.16
    assert cats["memory"]["speedup_gmean"] > 1.04
    assert cats["cache"]["speedup_gmean"] > 1.3
    assert cats["cache"]["energy_increase_mean"] < 0.0

    per = data["per_kernel"]
    # kmn is the extreme winner (paper: 2.84x).
    assert per["kmn"]["equalizer"]["speedup"] > 2.0
    # leuko-1: the texture path defeats the counters.
    assert per["leuko-1"]["equalizer"]["speedup"] < \
        per["leuko-1"]["mem_boost"]["speedup"]
    print()
    print(fig7_performance_mode.report(data))
