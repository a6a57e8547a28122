"""Paper shape check: regenerate Figure 5 (memory kernels vs thread blocks).

Shape target: every memory-intensive kernel's performance rises with
concurrency but saturates before its maximum block count, so block
reduction is safe for them.
"""

from repro.experiments import fig5_memory_blocks


def test_fig5(cache):
    data = fig5_memory_blocks.run(cache)
    for name, series in data.items():
        limit = max(series)
        best = max(series.values())
        assert best > 1.15, name       # concurrency matters...
        sat = fig5_memory_blocks.saturation_point(series)
        # ...but the curve flattens at or before the maximum: the last
        # block is worth less than 5% (the saturation the paper shows).
        if limit > 2:
            assert sat <= limit
            assert series[limit] <= series[sat] * 1.05 + 0.05
    print()
    print(fig5_memory_blocks.report(data))
