"""Single-source cycle-kernel equivalence and identity tests.

The cycle-kernel layer (``repro.sim.cycle_kernel``) builds the fused
``GPU`` run loop, the ``PerSMVRMGPU`` run loop, and ``SM.cycle_once``
from one cycle-body template.  These tests pin the refactor to the
pre-refactor behaviour:

* ``tests/data/cycle_kernel_golden.json`` holds digests of full
  ``RunResult`` payloads (plus decision logs and per-SM segments)
  captured on the method-path implementation, seeded across the four
  bench kernels.  Any behavioural drift in the generated loops -- chip
  or per-SM -- changes a digest.
* Fast-forward neutrality is asserted for the per-SM-VRM loop the same
  way ``tests/test_fastforward_equiv.py`` asserts it for the chip loop.
* The single-source property itself is asserted structurally: the
  compiled loops all originate from the cycle-kernel templates, and no
  "keep in sync" mirroring warnings remain in ``repro.sim``.

Regenerate the golden file (only when a behaviour change is intended)
with ``PYTHONPATH=src:tests python tests/test_cycle_kernel.py``.
"""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from helpers import cache_spec, compute_spec, memory_spec, tiny_sim
from repro.sim.gpu import GPU, run_kernel
from repro.sim.per_sm_vrm import (PerSMEqualizerController, PerSMVRMGPU,
                                  compute_energy_per_sm)
from repro.workloads import build_workload, kernel_by_name

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "cycle_kernel_golden.json")
GOLDEN_SCALE = 0.1
BENCH_KERNELS = ("cutcp", "lbm", "spmv", "leuko-1")
#: Concurrent-kernel entries ("a+b" = coschedule of a and b) pinned the
#: same way: the partitioned GWDE and per-SM geometry go through the
#: same compiled loops, so they need the same drift tripwire.
MULTIKERNEL_GOLDENS = ("cutcp+lbm", "spmv+lbm")
CONFIGS = ("chip-baseline", "vector-baseline", "per-sm-baseline",
           "per-sm-performance", "per-sm-energy")


def _default_sim():
    from repro.experiments.common import default_sim
    return default_sim()


def _golden_workload(kernel: str, sim):
    if "+" in kernel:
        from repro.sim.multikernel import coschedule
        return coschedule(kernel.split("+"), sim.gpu.sm_count,
                          scale=GOLDEN_SCALE, seed=sim.seed)
    return build_workload(kernel_by_name(kernel), seed=sim.seed,
                          scale=GOLDEN_SCALE)


def _run_payload(kernel: str, config: str) -> dict:
    """One deterministic run -> JSON-safe payload of everything observable."""
    sim = _default_sim()
    workload = _golden_workload(kernel, sim)
    decisions = []
    sm_segments = []
    if config == "chip-baseline":
        # Pinned to the scalar chip loop explicitly: run_kernel now
        # defaults to the vectorized backend when numpy is present,
        # and this capture is the scalar reference it is diffed with.
        run = run_kernel(workload, sim, gpu_class=GPU)
    elif config == "vector-baseline":
        from repro.sim.vector import VectorGPU
        run = run_kernel(workload, sim, gpu_class=VectorGPU)
    else:
        mode = config.rsplit("-", 1)[1]
        controller = None
        if mode != "baseline":
            controller = PerSMEqualizerController(mode,
                                                  config=sim.equalizer)
        gpu = PerSMVRMGPU(sim, controller=controller)
        run = compute_energy_per_sm(gpu, gpu.run(workload))
        if controller is not None:
            decisions = [[d.epoch, d.sm_id, d.tendency, d.block_delta,
                          d.target_blocks, d.applied]
                         for d in controller.decisions]
        sm_segments = [[s.to_dict() for s in segments]
                       for segments in gpu.sm_segments]
    return {"run": run.to_dict(), "decisions": decisions,
            "sm_segments": sm_segments}


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)["kernels"]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("kernel", BENCH_KERNELS + MULTIKERNEL_GOLDENS)
def test_golden_bit_identity(kernel, config):
    """Runs reproduce the digests captured on the method-path code."""
    golden = _load_golden()[kernel][config]
    payload = _run_payload(kernel, config)
    assert payload["run"]["result"]["ticks"] == golden["ticks"], (
        f"{kernel}/{config}: tick count diverged from the pre-refactor "
        f"capture ({payload['run']['result']['ticks']} vs "
        f"{golden['ticks']})")
    assert _digest(payload) == golden["digest"], (
        f"{kernel}/{config}: RunResult payload diverged from the "
        f"pre-refactor capture despite matching ticks -- compare "
        f"epochs/segments/decisions field by field")


def _per_sm_run(spec, mode, fast_forward, seed=7):
    controller = None
    if mode is not None:
        sim = tiny_sim()
        controller = PerSMEqualizerController(mode, config=sim.equalizer)
    gpu = PerSMVRMGPU(tiny_sim(), controller=controller)
    gpu.enable_fast_forward = fast_forward
    for sm in gpu.sms:
        sm.debug_counters = True
    result = gpu.run(build_workload(spec, seed=seed))
    return gpu, result


@pytest.mark.parametrize("mode", [None, "performance", "energy"])
@pytest.mark.parametrize("spec_fn", [compute_spec, memory_spec,
                                     cache_spec])
def test_per_sm_fast_forward_is_results_neutral(spec_fn, mode):
    """Per-SM-VRM FF on vs off: identical results and segments."""
    gpu_ff, with_ff = _per_sm_run(spec_fn(), mode, fast_forward=True)
    gpu_sl, without = _per_sm_run(spec_fn(), mode, fast_forward=False)
    assert with_ff.to_dict() == without.to_dict()
    assert gpu_ff.tick == gpu_sl.tick
    assert [[s.to_dict() for s in segs] for segs in gpu_ff.sm_segments] \
        == [[s.to_dict() for s in segs] for segs in gpu_sl.sm_segments]


@given(seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=8, deadline=None)
def test_per_sm_fast_forward_neutral_across_seeds(seed):
    spec = cache_spec(total_blocks=8, iterations=12)
    _, with_ff = _per_sm_run(spec, "performance", True, seed=seed)
    _, without = _per_sm_run(spec, "performance", False, seed=seed)
    assert with_ff.to_dict() == without.to_dict()


def test_boosted_domain_no_longer_chops_other_skips(monkeypatch):
    """Per-domain skip horizons: one boosted SM's early wakes bound the
    tick budget of every fast-forward jump, but no longer force the
    other SMs to replay their idle spans jump by jump.  A parked SM
    accumulates lag across all jumps and replays the whole span in a
    single bulk ``skip_cycles`` call when its own consumer needs it.
    """
    from repro.config import VF_HIGH
    from repro.sim.sm import SM

    sim = tiny_sim()
    gpu = PerSMVRMGPU(sim)
    interval = sim.equalizer.sample_interval
    gpu._next_epoch_cycle = 10 ** 9   # remove the epoch bound
    gpu.set_sm_vf(0, VF_HIGH)
    sm0, sm1 = gpu.sms[0], gpu.sms[1]
    dom0, dom1 = gpu.sm_domains[0], gpu.sm_domains[1]
    # SM1 is parked on a far-future wake: it never bounds a jump.
    sm1._sleep_buckets = {10 ** 8: []}

    calls = []
    real_skip = SM.skip_cycles

    def recording_skip(self, n, si):
        if self is sm1:
            calls.append(n)
        real_skip(self, n, si)

    monkeypatch.setattr(SM, "skip_cycles", recording_skip)

    jump_ticks = []
    for _ in range(5):
        # The boosted SM wakes every ~60 of its own (faster) cycles.
        sm0._sleep_buckets = {dom0.cycles + 60: []}
        before = gpu.tick
        assert gpu._fast_forward(interval)
        jump_ticks.append(gpu.tick - before)
        # SM0's own consumer replays its span promptly (as the service
        # gate's lag catch-up would); SM1 has no consumer yet.
        lag0 = dom0.cycles - sm0.cycle
        if lag0 > 0:
            sm0.skip_cycles(lag0, interval)
    # SM0's early wakes bounded every jump...
    assert all(t < 60 for t in jump_ticks)
    # ...yet SM1 was never touched: the jumps are lazy per-domain skips.
    assert calls == []
    lag1 = dom1.cycles - sm1.cycle
    assert lag1 == sum(jump_ticks) > max(jump_ticks)
    # The whole accumulated span replays in one bulk call, where the
    # pre-refactor eager replay would have produced one sliver per jump.
    sm1.skip_cycles(lag1, interval)
    assert calls == [lag1]


def test_loops_are_generated_from_the_cycle_kernel():
    """Every installed loop compiles out of cycle_kernel templates."""
    from repro.sim import cycle_kernel
    from repro.sim.sm import SM
    for fn in (GPU._cycle_loop, PerSMVRMGPU._cycle_loop,
               SM.cycle_once, SM.ensure_blocks, SM._block_finished):
        assert fn.__code__.co_filename.startswith(
            cycle_kernel.SOURCE_PREFIX), fn
    # The per-SM loop is a real specialization, not an inherited copy.
    assert PerSMVRMGPU._cycle_loop is not GPU._cycle_loop


def test_no_mirroring_warnings_remain_in_sim_sources():
    """The "keep in sync" era is over; its warnings must not return."""
    import repro.sim as sim_pkg
    root = os.path.dirname(sim_pkg.__file__)
    offenders = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as f:
            text = f.read().lower()
        for needle in ("keep in sync", "inlined verbatim"):
            if needle in text:
                offenders.append(f"{name}: {needle!r}")
    assert not offenders, offenders


def test_unknown_fragment_is_reported_with_known_names():
    """A template naming a missing fragment fails loudly, not KeyError."""
    from repro.errors import SimulationError
    from repro.sim import cycle_kernel
    with pytest.raises(SimulationError) as excinfo:
        cycle_kernel.render_source("def f(self):\n    ${no_such_body}\n")
    assert "no_such_body" in str(excinfo.value)
    assert "mem_cycle_core" in str(excinfo.value)  # lists known names


def test_unknown_specialization_tag_is_rejected():
    from repro.errors import SimulationError
    from repro.sim import cycle_kernel
    with pytest.raises(SimulationError) as excinfo:
        cycle_kernel.build("warp-scheduler-loop")
    assert "warp-scheduler-loop" in str(excinfo.value)
    assert "chip-loop" in str(excinfo.value)  # lists the registry


def test_compile_template_requires_the_entry_point():
    from repro.errors import SimulationError
    from repro.sim import cycle_kernel
    with pytest.raises(SimulationError) as excinfo:
        cycle_kernel.compile_template("scratch-entry", "x = 1\n", "f")
    assert "'f'" in str(excinfo.value)


def test_compiled_sources_resolve_through_linecache():
    """Tracebacks and inspect see real text for every specialization."""
    import inspect
    import linecache
    from repro.sim import cycle_kernel
    for tag, spec in cycle_kernel.SPECIALIZATIONS.items():
        fn = cycle_kernel.build(tag)
        filename = fn.__code__.co_filename
        assert filename == f"{cycle_kernel.SOURCE_PREFIX}{tag}>"
        lines = linecache.getlines(filename)
        assert lines, f"{tag}: linecache has no source"
        assert f"def {spec['entry']}" in "".join(lines)
        # inspect.getsource goes through linecache too.
        assert spec["entry"] in inspect.getsource(fn)


def test_fragment_overrides_compile_a_mutated_body():
    """The oracle's injected-bug hook: overriding one stock fragment."""
    from repro.sim import cycle_kernel
    mutated = cycle_kernel.MEM_CYCLE_CORE.replace(
        "due = now + dram_latency", "due = now + dram_latency + 1")
    assert mutated != cycle_kernel.MEM_CYCLE_CORE
    fn = cycle_kernel.compile_template(
        "scratch-memory-cycle", cycle_kernel.MEMORY_CYCLE, "cycle",
        fragments={"mem_cycle_core": mutated})
    import inspect
    assert "dram_latency + 1" in inspect.getsource(fn)


def _build_golden() -> dict:
    golden = {}
    for kernel in BENCH_KERNELS + MULTIKERNEL_GOLDENS:
        golden[kernel] = {}
        for config in CONFIGS:
            payload = _run_payload(kernel, config)
            golden[kernel][config] = {
                "ticks": payload["run"]["result"]["ticks"],
                "energy_j": payload["run"]["energy_j"],
                "digest": _digest(payload),
            }
            print(f"{kernel:<8} {config:<18} "
                  f"ticks={golden[kernel][config]['ticks']:>7} "
                  f"{golden[kernel][config]['digest'][:16]}")
    return golden


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as f:
        json.dump({"format": 1, "scale": GOLDEN_SCALE,
                   "kernels": _build_golden()}, f, indent=2,
                  sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
