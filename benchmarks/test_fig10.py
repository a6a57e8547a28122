"""Paper shape check: regenerate Figure 10 (Equalizer vs DynCTA vs CCWS).

Shape targets: all three comparators help cache-sensitive kernels;
Equalizer has the best geometric mean; at least one kernel goes to a
comparator (the paper has CCWS winning mmer); DynCTA is close on the
stable kernels.
"""

from repro.experiments import fig10_cache_comparison


def test_fig10(cache):
    data = fig10_cache_comparison.run(cache)
    s = data["summary"]
    assert s["equalizer"] > s["dyncta"]
    assert s["equalizer"] > s["ccws"]
    assert s["equalizer"] > 1.3
    assert s["ccws"] > 1.1
    per = data["per_kernel"]
    # DynCTA is competitive on the stable, heavily thrashing kernels.
    assert per["kmn"]["dyncta"] > 2.0
    print()
    print(fig10_cache_comparison.report(data))
