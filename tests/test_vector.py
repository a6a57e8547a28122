"""Vectorized busy-slot backend equivalence tests (``repro.sim.vector``).

The vector backend's contract is bit identity: a :class:`VectorGPU`
run produces the exact :class:`~repro.sim.results.RunResult` -- every
leaf, including epoch records and the energy breakdown -- that the
scalar chip loop would have produced, and leaves each warp at exactly
the same point of its op stream.  The tests here pin that
contract from the angles the span-burst planner can get wrong:

* leaf-exact equality across the behavioural corners (compute, memory,
  cache) and across random seeds, sample intervals, epoch lengths and
  dependence latencies, with ``MIN_SPAN`` forced low so bursts fire
  aggressively instead of declining on profitability;
* per-warp stream positions (program cursor and address-model
  positions) at every epoch boundary -- not just final results -- via
  a recording controller, so a burst that adds or elides ``next_op``
  calls is caught at the first epoch it desyncs;
* the incremental-counter invariant after every burst resync
  (``debug_counters`` re-derives active/waiting from a full scan);
* the pure-python fallback: without numpy, ``VectorGPU`` *is* the
  scalar chip loop and :func:`default_gpu_class` degrades to ``GPU``;
* the cycle-kernel lints the CI greps mirror: no scalar per-warp wake
  loops and no ``memory.cycle()`` method fallback in any compiled
  run loop.

A guard test asserts bursts actually fire on the compute spec, so the
equivalence tests cannot rot into vacuous scalar-vs-scalar checks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (cache_spec, compute_spec, memory_spec,
                     tiny_equalizer, tiny_sim)
import repro.sim.vector as vector
from repro.core.controller import Controller
from repro.oracle.diff import diff_payloads
from repro.power.energy_model import compute_energy
from repro.sim.gpu import GPU, run_kernel
from repro.sim.vector import VectorGPU, default_gpu_class, have_numpy
from repro.workloads import Phase, build_workload
from repro.workloads.addresses import MixedAddresses

needs_numpy = pytest.mark.skipif(
    not have_numpy(), reason="vector bursts need numpy")

#: MIN_SPAN used by the equivalence tests: low enough that the tiny
#: workloads burst constantly, so the tests exercise the planner's
#: resync rather than its decline path.
TEST_SPAN = 2


def _run(cls, spec, sim=None, seed=7, controller=None,
         debug_counters=False):
    if sim is None:
        sim = tiny_sim()
    gpu = cls(sim, controller=controller)
    if debug_counters:
        for sm in gpu.sms:
            sm.debug_counters = True
    result = gpu.run(build_workload(spec, seed=seed))
    return compute_energy(result, sim.power, sim.gpu)


def _assert_leaf_exact(vec_run, scalar_run, label):
    diffs = diff_payloads(vec_run.to_dict(), scalar_run.to_dict(),
                          "vector", "scalar")
    assert not diffs, f"{label}: vector run diverged from scalar:\n" \
        + "\n".join(diffs)


class _BurstCounter(VectorGPU):
    """VectorGPU that counts successful span bursts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bursts = 0

    def _vector_burst(self, sm, target, bucket, interval, epoch_bound):
        ok = super()._vector_burst(sm, target, bucket, interval,
                                   epoch_bound)
        if ok:
            self.bursts += 1
        return ok


# ----------------------------------------------------------------------
# Bursts actually fire (the equivalence tests are not vacuous)
# ----------------------------------------------------------------------
@needs_numpy
def test_compute_spec_actually_bursts(monkeypatch):
    monkeypatch.setattr(vector, "MIN_SPAN", TEST_SPAN)
    sim = tiny_sim()
    gpu = _BurstCounter(sim, controller=None)
    gpu.run(build_workload(compute_spec(), seed=7))
    assert gpu.bursts > 0


# ----------------------------------------------------------------------
# Leaf-exact equality
# ----------------------------------------------------------------------
@needs_numpy
@pytest.mark.parametrize("spec_factory", [compute_spec, memory_spec,
                                          cache_spec])
def test_vector_matches_scalar_leaf_exact(spec_factory, monkeypatch):
    monkeypatch.setattr(vector, "MIN_SPAN", TEST_SPAN)
    _assert_leaf_exact(_run(VectorGPU, spec_factory()),
                       _run(GPU, spec_factory()),
                       spec_factory.__name__)


@needs_numpy
def test_vector_matches_scalar_with_debug_counters(monkeypatch):
    """Every burst resync re-derives the incremental counters from a
    full warp scan and raises on mismatch."""
    monkeypatch.setattr(vector, "MIN_SPAN", TEST_SPAN)
    _assert_leaf_exact(
        _run(VectorGPU, compute_spec(), debug_counters=True),
        _run(GPU, compute_spec(), debug_counters=True),
        "debug-counters")


@needs_numpy
def test_vector_matches_scalar_without_fast_forward(monkeypatch):
    """With chip fast-forward off, burst-parked SMs meet the scalar
    catch-up path (negative-lag guards) instead of the calendar."""
    monkeypatch.setattr(vector, "MIN_SPAN", TEST_SPAN)
    sim1, sim2 = tiny_sim(), tiny_sim()
    g1 = VectorGPU(sim1, controller=None)
    g1.enable_fast_forward = False
    r1 = compute_energy(g1.run(build_workload(compute_spec(), seed=7)),
                        sim1.power, sim1.gpu)
    g2 = GPU(sim2, controller=None)
    g2.enable_fast_forward = False
    r2 = compute_energy(g2.run(build_workload(compute_spec(), seed=7)),
                        sim2.power, sim2.gpu)
    _assert_leaf_exact(r1, r2, "no-ff")


@needs_numpy
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       interval=st.sampled_from([4, 16, 64]),
       epoch_cycles=st.sampled_from([64, 256, 1024]),
       dep=st.sampled_from([1, 3, 17]),
       min_span=st.sampled_from([2, 8, 32]))
@settings(max_examples=10, deadline=None)
def test_vector_identity_across_configs(seed, interval, epoch_cycles,
                                        dep, min_span):
    """Any seed, any sampling/epoch geometry, any dependence latency,
    any burst threshold: vector reproduces scalar bit for bit."""
    old = vector.MIN_SPAN
    vector.MIN_SPAN = min_span
    try:
        spec = compute_spec(dep_latency=dep, total_blocks=6,
                            iterations=8)
        sim1 = tiny_sim(equalizer=tiny_equalizer(
            sample_interval=interval, epoch_cycles=epoch_cycles))
        sim2 = tiny_sim(equalizer=tiny_equalizer(
            sample_interval=interval, epoch_cycles=epoch_cycles))
        _assert_leaf_exact(
            _run(VectorGPU, spec, sim=sim1, seed=seed),
            _run(GPU, spec, sim=sim2, seed=seed),
            f"seed={seed}/i{interval}/e{epoch_cycles}/d{dep}"
            f"/s{min_span}")
    finally:
        vector.MIN_SPAN = old


# ----------------------------------------------------------------------
# Stream position at every epoch boundary
# ----------------------------------------------------------------------
def _stream_position(program):
    """Where a warp stands in its op stream.

    The program cursor (iterations started, ALU ops left in the run,
    the pending memory access and barrier, the phase) plus every
    address model's position: together they fix the rest of the
    stream, since the random draws are read from the program's
    schedule at ``_i``.
    """
    models = tuple((m.ws.pos, m.stream.pos)
                   if isinstance(m, MixedAddresses) else m.pos
                   for m in program._models)
    return (program._i, program._j, program._emit_mem,
            program._pending_barrier, program._phase_idx, models)


class _StreamRecorder(Controller):
    """Snapshots every resident warp's stream position per epoch."""

    def __init__(self):
        self.epochs = []

    def on_epoch(self, gpu, per_sm):
        snap = {}
        for sm in gpu.sms:
            for block in sm.blocks:
                for w in block.warps:
                    key = (sm.sm_id, block.bid, w.wid)
                    snap[key] = (_stream_position(w.program),
                                 w.head_op, w.head_payload)
        self.epochs.append(snap)


@needs_numpy
def test_rng_streams_aligned_at_every_epoch(monkeypatch):
    """A burst that called ``next_op`` too often, too rarely, or on the
    wrong warp leaves some warp at another stream position *mid-run*;
    comparing every resident warp's cursor, address positions and head
    op at every epoch boundary catches it at the first divergence, not
    just in the final result.  The second spec makes every random
    input live: jitter, store coins and a mixed address model."""
    monkeypatch.setattr(vector, "MIN_SPAN", TEST_SPAN)
    drawn = compute_spec(total_blocks=6, iterations=12, phases=(Phase(
        alu_per_mem=30, alu_jitter=6, ws_lines=8, shared_ws=True,
        store_fraction=0.25, stream_fraction=0.3),))
    for spec in (compute_spec(total_blocks=6, iterations=12), drawn):
        rec_v, rec_s = _StreamRecorder(), _StreamRecorder()
        _run(VectorGPU, spec, controller=rec_v)
        _run(GPU, spec, controller=rec_s)
        assert len(rec_v.epochs) == len(rec_s.epochs) > 0
        for i, (ev, es) in enumerate(zip(rec_v.epochs, rec_s.epochs)):
            assert ev == es, (
                f"per-warp streams diverged at epoch {i}: "
                f"{sorted(k for k in ev if ev[k] != es.get(k))[:4]}")


# ----------------------------------------------------------------------
# Dispatch and fallback
# ----------------------------------------------------------------------
def test_default_gpu_class_prefers_vector():
    if have_numpy():
        assert default_gpu_class() is VectorGPU
    else:
        assert default_gpu_class() is GPU


def test_default_gpu_class_degrades_without_numpy(monkeypatch):
    monkeypatch.setattr(vector, "_np", None)
    assert default_gpu_class() is GPU


def test_run_kernel_gpu_class_override_forces_scalar():
    """run_kernel(gpu_class=GPU) pins the scalar loop regardless of
    numpy availability -- the bench baseline rows depend on it."""
    sim = tiny_sim()
    run = run_kernel(build_workload(compute_spec(), seed=7), sim,
                     gpu_class=GPU)
    sim2 = tiny_sim()
    gpu = GPU(sim2, controller=None)
    ref = compute_energy(gpu.run(build_workload(compute_spec(), seed=7)),
                         sim2.power, sim2.gpu)
    _assert_leaf_exact(run, ref, "gpu_class-override")


def test_vector_without_numpy_is_the_chip_loop():
    """The fallback contract: no numpy, no separate code path.  The
    class body only installs the vector loop when numpy imports, so
    the fallback cannot drift from the scalar loop -- it *is* it."""
    if "_loop_hook_free" in VectorGPU.__dict__:
        assert have_numpy()
    else:
        assert not have_numpy()
    # The hook-bearing variant is always the inherited chip loop: a
    # controller observing misses forfeits the burst regime entirely.
    assert "_loop_hook_bearing" not in VectorGPU.__dict__


# ----------------------------------------------------------------------
# Cycle-kernel lints the CI greps mirror
# ----------------------------------------------------------------------
def test_no_per_warp_python_loops_in_cycle_kernel():
    """Busy-slot work in the compiled loops is either the shared
    scalar body or a vector burst; nobody reintroduces per-warp
    python loops into the kernel file."""
    from repro.sim import cycle_kernel
    with open(cycle_kernel.__file__) as f:
        assert "for warp in" not in f.read()


def test_no_memory_cycle_method_fallback_in_run_loops():
    """Every run-loop specialization advances the memory domain
    through the inlined rate-generic fragment; the ``memory.cycle()``
    method call survives only in the oracle's method paths."""
    from repro.sim import cycle_kernel
    for tag, spec in cycle_kernel.SPECIALIZATIONS.items():
        if spec["kind"] != "run-loop":
            continue
        src = cycle_kernel.render_source(spec["template"])
        assert "memory.cycle()" not in src, tag


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
