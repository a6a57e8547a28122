"""Paper shape check: regenerate the paper's headline numbers (abstract).

Paper: Equalizer achieves 15% energy savings in energy mode and 22%
speedup in performance mode across the 27 kernels; always-boost
policies manage only 6-7% speedup at comparable or higher energy.
"""

from repro.experiments import headline


def test_headline(cache):
    data = headline.run(cache)

    perf = data["equalizer_performance"]
    assert perf["speedup"] > 1.15
    assert perf["energy_delta"] < 0.10

    energy = data["equalizer_energy"]
    assert energy["speedup"] > 1.0
    assert energy["energy_delta"] < -0.08

    assert data["sm_boost"]["speedup"] < perf["speedup"]
    assert data["mem_boost"]["speedup"] < perf["speedup"]
    assert data["sm_boost"]["energy_delta"] > 0.08
    assert data["sm_low"]["speedup"] < 0.97
    assert data["mem_low"]["speedup"] < 0.97
    print()
    print(headline.report(data))
