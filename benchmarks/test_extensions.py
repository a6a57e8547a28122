"""Paper shape checks for the extension experiments.

* Ablations of the constants the paper fixed after sensitivity studies
  (epoch length, block hysteresis, Xmem threshold).
* The Section I motivation experiments (input and architecture
  dependence of the static optimum).
* Equalizer versus a GPU-Boost-style power-budget policy.
"""

from repro.experiments import ablations, boost_comparison, motivation


def test_ablations():
    # Always full scale, whatever REPRO_BENCH_SCALE says: the
    # hysteresis ranking needs full-length runs.  Measured hysteresis
    # speedup gmeans per depth {1, 2, 3, 5}: 1.742, 1.829, 1.677,
    # 1.362 at scale 1.0, but 1.403, 1.281, 1.196, 1.103 at 0.25,
    # where depth 3 misses the 0.9 x best target below.
    data = ablations.run(["kmn", "cfd-1"], scale=1.0)
    # The paper's design point must not be dominated: the 3-epoch
    # hysteresis performs within noise of the best depth tried.
    hyst = data["hysteresis"]
    best = max(v["speedup_gmean"] for v in hyst.values())
    assert hyst[3]["speedup_gmean"] > best * 0.9
    # A huge Xmem threshold kills the memory/cache detection entirely.
    thr = data["xmem_threshold"]
    assert thr[2.0]["speedup_gmean"] >= thr[8.0]["speedup_gmean"] - 0.05
    print()
    print(ablations.report(data))


def test_motivation(scale):
    data = motivation.run(None, scale)
    large = data["input_dependence"]["kmn-large"]
    assert large["mistuned_loss"] > 0.3
    fermi = data["cross_architecture"]["fermi"]
    assert fermi["mistuned_loss"] > 0.5
    print()
    print(motivation.report(data))


def test_boost_comparison(cache):
    data = boost_comparison.run(cache)
    s = data["summary"]
    assert s["equalizer_gmean"] > s["boost_gmean"]
    # The budget policy pays energy on memory kernels for ~no speedup.
    per = data["per_kernel"]
    mem = [e for e in per.values() if e["category"] == "memory"]
    assert sum(e["boost"] for e in mem) / len(mem) < 1.05
    print()
    print(boost_comparison.report(data))


def test_per_sm_vrm(scale):
    """Per-SM regulators match the chip-wide speedup at lower energy on
    the load-imbalanced kernel, and change nothing on a uniform one."""
    from repro.experiments import per_sm_vrm

    data = per_sm_vrm.run(None, scale)
    p2 = data["prtcl-2"]["performance"]
    assert p2["per_sm"]["speedup"] > 1.05
    assert p2["per_sm"]["energy_delta"] < p2["global"]["energy_delta"]
    uniform = data["cutcp"]["energy"]
    assert abs(uniform["per_sm"]["speedup"]
               - uniform["global"]["speedup"]) < 0.03
    print()
    print(per_sm_vrm.report(data))


def test_concurrent_kernels(scale):
    """Section I's concurrent-kernel scenario: per-SM regulators beat
    the chip-wide majority vote when co-resident kernels disagree."""
    from repro.experiments import concurrent_kernels

    data = concurrent_kernels.run(scale)
    perf = data["performance"]
    assert perf["per_sm"]["speedup"] >= perf["global"]["speedup"] - 0.01
    energy = data["energy"]
    assert energy["per_sm"]["energy_delta"] <= \
        energy["global"]["energy_delta"] + 0.01
    print()
    print(concurrent_kernels.report(data))
