"""Paper shape check: regenerate Figure 9 (VF-state time distribution).

Shape targets: in performance mode compute kernels spend their time at
core-high and memory/cache kernels at mem-high; in energy mode compute
kernels sit at mem-low and memory/cache kernels at core-low; the
phase-alternating kernels split their time across both domains.
"""

from repro.experiments import fig9_frequency_distribution


def test_fig9(cache):
    data = fig9_frequency_distribution.run(cache)

    assert data["cutcp"]["performance"]["core_high"] > 0.5
    assert data["cutcp"]["energy"]["mem_low"] > 0.5
    assert data["cfd-1"]["performance"]["mem_high"] > 0.5
    assert data["cfd-1"]["energy"]["core_low"] > 0.5
    assert data["kmn"]["energy"]["core_low"] > 0.3

    # Phase-alternating kernels use both domains (paper calls out
    # histo-3, mri-g-1, mri-g-2 and sc).
    for name in ("mri-g-2", "sc"):
        p = data[name]["performance"]
        assert p["core_high"] + p["mem_high"] > 0.2, name
    print()
    print(fig9_frequency_distribution.report(data))
