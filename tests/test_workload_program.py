"""Unit tests for warp programs, phases, address models and the draw
schedules programs read their random inputs from."""

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.sim.instruction import (OP_ALU, OP_BARRIER, OP_DONE, OP_LOAD,
                                   OP_STORE, OP_TEX_LOAD)
from repro.workloads.addresses import (MixedAddresses,
                                       SharedWorkingSetAddresses,
                                       StreamingAddresses,
                                       WorkingSetAddresses, block_base,
                                       make_address_model, warp_base)
from repro.workloads import spec as spec_module
from repro.workloads.program import Phase, WarpProgram
from repro.workloads.spec import KernelSpec, SyntheticWorkload


def drain(program, limit=100_000):
    """Collect the full op stream of a program."""
    ops = []
    for _ in range(limit):
        op = program.next_op()
        ops.append(op)
        if op[0] == OP_DONE:
            return ops
    raise AssertionError("program did not terminate")


def make_program(phases, iterations=5, barrier_interval=0, dep_latency=6,
                 seed=1):
    return WarpProgram(phases, iterations, block_uid=1, warp_idx=0,
                       seed=seed, barrier_interval=barrier_interval,
                       dep_latency=dep_latency)


class TestPhaseValidation:
    def test_defaults_valid(self):
        Phase()

    @pytest.mark.parametrize("kwargs", [
        dict(fraction=0.0), dict(fraction=1.5),
        dict(alu_per_mem=-1),
        dict(store_fraction=1.5),
        dict(alu_per_mem=2, alu_jitter=3),
        dict(stream_fraction=-0.1),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(WorkloadError):
            Phase(**kwargs)


class TestWarpProgram:
    def test_terminates_with_done(self):
        ops = drain(make_program((Phase(alu_per_mem=3),), iterations=4))
        assert ops[-1][0] == OP_DONE

    def test_alu_count_between_loads(self):
        ops = drain(make_program((Phase(alu_per_mem=3),), iterations=4))
        loads = [o for o in ops if o[0] == OP_LOAD]
        alus = [o for o in ops if o[0] == OP_ALU]
        assert len(loads) == 4
        assert len(alus) == 12

    def test_zero_alu_phase_is_pure_memory(self):
        ops = drain(make_program((Phase(alu_per_mem=0),), iterations=6))
        kinds = {o[0] for o in ops}
        assert OP_ALU not in kinds
        assert sum(1 for o in ops if o[0] == OP_LOAD) == 6

    def test_load_payload_is_line_tuple(self):
        ops = drain(make_program((Phase(alu_per_mem=1, txns=3),),
                                 iterations=2))
        loads = [o for o in ops if o[0] == OP_LOAD]
        for _, payload in loads:
            assert isinstance(payload, tuple)
            assert len(payload) == 3

    def test_store_fraction_yields_stores(self):
        ops = drain(make_program((Phase(alu_per_mem=0,
                                        store_fraction=1.0),),
                                 iterations=5))
        assert sum(1 for o in ops if o[0] == OP_STORE) == 5

    def test_texture_phase(self):
        ops = drain(make_program((Phase(alu_per_mem=0, texture=True),),
                                 iterations=3))
        assert sum(1 for o in ops if o[0] == OP_TEX_LOAD) == 3

    def test_barrier_interval(self):
        ops = drain(make_program((Phase(alu_per_mem=1),), iterations=6,
                                 barrier_interval=2))
        assert sum(1 for o in ops if o[0] == OP_BARRIER) == 3

    def test_phase_transition_changes_mix(self):
        phases = (Phase(fraction=0.5, alu_per_mem=0),
                  Phase(fraction=0.5, alu_per_mem=4))
        ops = drain(make_program(phases, iterations=10))
        alus = sum(1 for o in ops if o[0] == OP_ALU)
        assert alus == 5 * 4

    def test_total_memory_ops_equals_iterations(self):
        phases = (Phase(fraction=0.3, alu_per_mem=2),
                  Phase(fraction=0.7, alu_per_mem=5))
        ops = drain(make_program(phases, iterations=20))
        mems = sum(1 for o in ops
                   if o[0] in (OP_LOAD, OP_STORE, OP_TEX_LOAD))
        assert mems == 20

    def test_jitter_is_deterministic_per_seed(self):
        def mk(seed):
            return drain(make_program(
                (Phase(alu_per_mem=6, alu_jitter=2),), iterations=10,
                seed=seed))
        assert mk(5) == mk(5)
        assert mk(5) != mk(6)

    def test_dep_latency_attribute(self):
        p = make_program((Phase(),), dep_latency=4)
        assert p.dep_latency == 4

    def test_rejects_bad_args(self):
        with pytest.raises(WorkloadError):
            make_program((Phase(),), iterations=0)
        with pytest.raises(WorkloadError):
            WarpProgram((), 5, 1, 0, 1)
        with pytest.raises(WorkloadError):
            make_program((Phase(),), dep_latency=0)


class TestAddressModels:
    def test_streaming_never_repeats(self):
        m = StreamingAddresses(1000, txns=2)
        seen = set()
        for _ in range(50):
            lines = m.next()
            assert len(lines) == 2
            for line in lines:
                assert line not in seen
                seen.add(line)

    def test_working_set_cycles_within_footprint(self):
        m = WorkingSetAddresses(0, ws_lines=4, txns=1)
        lines = [m.next()[0] for _ in range(12)]
        assert set(lines) == {0, 1, 2, 3}

    def test_working_set_multi_txn_wraps(self):
        m = WorkingSetAddresses(0, ws_lines=4, txns=3)
        all_lines = set()
        for _ in range(8):
            all_lines.update(m.next())
        assert all_lines == {0, 1, 2, 3}

    def test_working_set_rejects_txns_over_ws(self):
        with pytest.raises(WorkloadError):
            WorkingSetAddresses(0, ws_lines=2, txns=3)

    def test_shared_ws_offsets_by_warp(self):
        a = SharedWorkingSetAddresses(0, 8, warp_idx=0)
        b = SharedWorkingSetAddresses(0, 8, warp_idx=1)
        assert a.next() != b.next()
        union = set()
        for _ in range(8):
            union.update(a.next())
            union.update(b.next())
        assert union <= set(range(8))

    def test_mixed_addresses_blend(self):
        # The blend is drawn by the program's schedule, which calls the
        # mixed model's two sources itself.
        program = make_program((Phase(alu_per_mem=0, ws_lines=4,
                                      stream_fraction=0.5),),
                               iterations=200)
        ws_lines = set(range(warp_base(1, 0), warp_base(1, 0) + 4))
        outs = [payload[0] for op, payload in drain(program)[:-1]]
        ws_hits = sum(1 for line in outs if line in ws_lines)
        assert 50 < ws_hits < 150

    def test_mixed_rejects_bad_fraction(self):
        with pytest.raises(WorkloadError):
            MixedAddresses(None, None, 1.5, seed=0)

    def test_region_partitioning(self):
        assert block_base(1) != block_base(2)
        assert warp_base(1, 0) != warp_base(1, 1)
        # Warp regions never overlap block-region boundaries.
        assert warp_base(1, 47) < block_base(2)

    def test_make_address_model_dispatch(self):
        assert isinstance(
            make_address_model(Phase(ws_lines=0), 1, 0),
            StreamingAddresses)
        assert isinstance(
            make_address_model(Phase(ws_lines=4), 1, 0),
            WorkingSetAddresses)
        assert isinstance(
            make_address_model(Phase(ws_lines=4, shared_ws=True), 1, 0),
            SharedWorkingSetAddresses)
        assert isinstance(
            make_address_model(Phase(ws_lines=4, stream_fraction=0.2),
                               1, 0),
            MixedAddresses)

    def test_shared_model_same_base_across_warps(self):
        m0 = make_address_model(Phase(ws_lines=4, shared_ws=True), 7, 0)
        m1 = make_address_model(Phase(ws_lines=4, shared_ws=True), 7, 1)
        lines0 = set()
        lines1 = set()
        for _ in range(8):
            lines0.update(m0.next())
            lines1.update(m1.next())
        assert lines0 == lines1


# ----------------------------------------------------------------------
# Draw schedules
# ----------------------------------------------------------------------
def lazy_reference(phases, iterations, block_uid, warp_idx, seed,
                   barrier_interval=0):
    """The op stream with every draw made at its point of use.

    Written out as the lazy-draw program computed it: one
    ``randint(-j, j)`` per iteration start, one store coin per memory
    access from the same stream, and each mixed phase's address choice
    from a fresh ``Random(block_uid * 64 + warp_idx)`` of its own.
    """
    rng = Random(seed)
    models = [make_address_model(p, block_uid, warp_idx) for p in phases]
    mixed = [Random(block_uid * 64 + warp_idx)
             if isinstance(m, MixedAddresses) else None for m in models]
    bounds = []
    acc = 0.0
    for p in phases[:-1]:
        acc += p.fraction
        bounds.append(int(acc * iterations))
    bounds.append(iterations)
    ops = []
    idx = 0
    for i in range(iterations):
        while i >= bounds[idx]:
            idx += 1
        phase, model = phases[idx], models[idx]
        alu = phase.alu_per_mem
        if phase.alu_jitter:
            alu += rng.randint(-phase.alu_jitter, phase.alu_jitter)
        ops += [(OP_ALU, None)] * alu
        if phase.store_fraction and rng.random() < phase.store_fraction:
            op = OP_STORE
        elif phase.texture:
            op = OP_TEX_LOAD
        else:
            op = OP_LOAD
        if mixed[idx] is not None:
            if mixed[idx].random() < model.fraction:
                lines = model.stream.next()
            else:
                lines = model.ws.next()
        else:
            lines = model.next()
        ops.append((op, lines))
        if barrier_interval and (i + 1) % barrier_interval == 0:
            ops.append((OP_BARRIER, None))
    ops.append((OP_DONE, None))
    return ops


@st.composite
def phase_strategy(draw):
    # Both schedule encodings: bytes (runs < 64) and ints beyond.
    alu = draw(st.one_of(st.integers(0, 12), st.integers(60, 320)))
    ws = draw(st.sampled_from([0, 0, 1, 4, 9]))
    return Phase(
        fraction=draw(st.sampled_from([0.2, 0.35, 0.5, 0.8, 1.0])),
        alu_per_mem=alu,
        alu_jitter=draw(st.integers(0, min(alu, 40))),
        txns=draw(st.integers(1, ws)) if ws else draw(
            st.integers(1, 3)),
        ws_lines=ws,
        shared_ws=bool(ws) and draw(st.booleans()),
        store_fraction=draw(st.sampled_from([0.0, 0.0, 0.3, 1.0])),
        texture=draw(st.booleans()),
        stream_fraction=draw(st.sampled_from([0.0, 0.0, 0.4, 1.0])))


@given(phases=st.lists(phase_strategy(), min_size=1, max_size=3),
       iterations=st.integers(1, 40),
       block_uid=st.integers(1, 3_000_005),
       warp_idx=st.integers(0, 47),
       seed=st.integers(0, 2**32),
       barrier_interval=st.sampled_from([0, 0, 1, 3]))
@settings(max_examples=120, deadline=None)
def test_schedule_stream_equals_lazy_draws(phases, iterations, block_uid,
                                           warp_idx, seed,
                                           barrier_interval):
    phases = tuple(phases)
    program = WarpProgram(phases, iterations, block_uid, warp_idx, seed,
                          barrier_interval=barrier_interval)
    assert drain(program, limit=10**6) == lazy_reference(
        phases, iterations, block_uid, warp_idx, seed, barrier_interval)


def test_wide_alu_runs_fit_the_schedule():
    """alu_per_mem has no upper bound; neither has a schedule code."""
    phases = (Phase(alu_per_mem=5000, alu_jitter=4000,
                    store_fraction=0.5, ws_lines=4, stream_fraction=0.5),)
    assert drain(make_program(phases, iterations=3), limit=10**6) == \
        lazy_reference(phases, 3, 1, 0, 1)


def _encoding(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


_FRESH_RUN = """
import hashlib, json, sys
from repro.engine import execute_job
from repro.experiments.common import default_sim
result, _ = execute_job(sys.argv[1], ("baseline",), 0.02, default_sim())
print(hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True)
                     .encode()).hexdigest())
"""


def _fresh_process_encoding(kernel: str) -> str:
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run([sys.executable, "-c", _FRESH_RUN, kernel],
                         env=env, check=True, capture_output=True,
                         text=True)
    return out.stdout.strip()


def test_memo_hits_reproduce_fresh_process_runs(monkeypatch):
    """A, A (a memo hit), B, A in one process: every result encodes
    exactly as a run of that kernel in a fresh interpreter."""
    from repro.engine import execute_job
    from repro.experiments.common import default_sim
    drawn = []
    real = spec_module.draw_schedules
    monkeypatch.setattr(spec_module, "draw_schedules",
                        lambda *args: drawn.append(1) or real(*args))
    monkeypatch.setattr(spec_module, "_last_kernel", (None, None))
    sim = default_sim()
    encodings = {}
    for kernel in ("prtcl-2", "prtcl-2", "mri-g-1", "prtcl-2"):
        before = len(drawn)
        result, _ = execute_job(kernel, ("baseline",), 0.02, sim)
        encodings.setdefault(kernel, []).append(_encoding(result))
        if len(encodings[kernel]) == 2 and kernel == "prtcl-2":
            assert len(drawn) == before, "the repeat run drew again"
        else:
            assert len(drawn) > before
    for kernel, runs in encodings.items():
        fresh = _fresh_process_encoding(kernel)
        assert runs == [fresh] * len(runs), kernel


def test_specs_differing_only_in_variant_do_not_share_schedules():
    plain = KernelSpec(name="t-var", category="compute", wcta=2,
                       max_blocks=2, total_blocks=2, iterations=4,
                       phases=(Phase(alu_per_mem=3, alu_jitter=2),))
    wider = (Phase(alu_per_mem=9, alu_jitter=5, store_fraction=0.5),)
    varied = replace(plain, variant=lambda inv, spec: (11, wider))
    assert plain == varied  # KernelSpec equality ignores variant

    def streams(workload):
        return [drain(p) for f in workload.block_factories(0)
                for p in f()]

    plain_ops = streams(SyntheticWorkload(plain, seed=3))
    varied_ops = streams(SyntheticWorkload(varied, seed=3))
    fresh = [drain(WarpProgram(wider, 11, b + 1, w, 3 + (b + 1) * 64 + w))
             for b in range(2) for w in range(2)]
    assert varied_ops == fresh
    assert streams(SyntheticWorkload(plain, seed=3)) == plain_ops


def test_memo_is_safe_across_threads():
    """Workloads of two kernels built and drained concurrently each get
    their own schedules, whatever the interleaving."""
    a = KernelSpec(name="t-a", category="compute", wcta=2, max_blocks=2,
                   total_blocks=3, iterations=5,
                   phases=(Phase(alu_per_mem=3, alu_jitter=2,
                                 store_fraction=0.5),))
    b = replace(a, name="t-b", iterations=9,
                phases=(Phase(alu_per_mem=7, alu_jitter=6,
                              ws_lines=4, stream_fraction=0.5),))

    def streams(spec):
        return [drain(p) for f in SyntheticWorkload(spec, seed=5)
                .block_factories(0) for p in f()]

    want = {a.name: streams(a), b.name: streams(b)}
    bad = []

    def worker(spec):
        for _ in range(100):
            try:
                if streams(spec) != want[spec.name]:
                    bad.append(spec.name)
            except Exception as exc:  # a foreign schedule can be short
                bad.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(spec,))
                   for spec in (a, b, a, b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert bad == []


def test_simulator_and_address_models_never_draw():
    """Mirrors the CI lint: every draw stays in the schedule builder,
    so no simulator path can consume a stream out of order."""
    root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    paths = [os.path.join(root, "workloads", "addresses.py")]
    sim_dir = os.path.join(root, "sim")
    paths += [os.path.join(sim_dir, name)
              for name in sorted(os.listdir(sim_dir))
              if name.endswith(".py")]
    pattern = re.compile(
        r"Random\(|_randbelow|getrandbits|\.random\(\)")
    for path in paths:
        with open(path) as handle:
            for number, line in enumerate(handle, 1):
                assert not pattern.search(line), f"{path}:{number}"
