"""Paper shape check: regenerate Figure 8 (energy mode).

Shape targets: Equalizer saves energy overall while *improving*
performance (paper: 15% savings at +5% perf); compute kernels lose
~nothing; static SM-low / mem-low lose ~9%/~7% performance; Equalizer
beats the static best on savings.
"""

from repro.experiments import fig8_energy_mode


def test_fig8(cache):
    data = fig8_energy_mode.run(cache)
    s = data["summary"]
    assert s["equalizer_perf_gmean"] > 1.0
    assert s["equalizer_savings_mean"] > 0.08
    assert s["equalizer_savings_mean"] > s["static_best_savings_mean"]
    assert s["sm_low_perf_gmean"] < 0.97
    assert s["mem_low_perf_gmean"] < 0.97

    cats = data["by_category"]
    assert cats["compute"]["perf_gmean"] > 0.98
    assert cats["compute"]["savings_mean"] > 0.03
    assert cats["memory"]["perf_gmean"] > 0.90
    assert cats["cache"]["perf_gmean"] > 1.2
    assert cats["cache"]["savings_mean"] > 0.25
    print()
    print(fig8_energy_mode.report(data))
