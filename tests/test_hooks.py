"""Miss-hook equivalence tests: hooked goldens + the method reference.

Every compiled run loop carries the guarded ``sm.hooks`` miss site, and
the vector loop bursts under instrumentation too.  These tests pin that
behaviour:

* ``tests/data/cycle_kernel_hooks_golden.json`` holds digests of full
  ``RunResult`` payloads for the hooked controller (CCWS) and the
  occupancy-driving controller (DynCTA), seeded across two bench
  kernels.  Both the scalar chip loop and the vector loop must
  reproduce them, so a burst that skipped a hook call changes a digest.
* A leaf-exact property test asserts the compiled chip loop equals the
  method-path reference.
* Structural tests assert every run loop renders the miss hook site
  exactly once and that no compiled source dispatches GWDE methods.

Regenerate the golden file (only when a behaviour change is intended)
with ``PYTHONPATH=src:tests python tests/test_hooks.py``.
"""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from helpers import compute_spec, tiny_sim
from repro.baselines.ccws import CCWSController
from repro.baselines.dyncta import DynCTAController
from repro.oracle.paths import MethodPathGPU
from repro.sim.gpu import GPU, run_kernel
from repro.sim.vector import VectorGPU
from repro.workloads import build_workload, kernel_by_name

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "cycle_kernel_hooks_golden.json")
GOLDEN_SCALE = 0.1
HOOK_KERNELS = ("cutcp", "spmv")
#: A config is ``<loop>-<controller>``.  The golden file holds the
#: chip-loop captures; every other loop must reproduce them.
GPU_CLASSES = {"chip": GPU, "vector": VectorGPU}
GOLDEN_CONFIGS = ("chip-ccws", "chip-dyncta")
HOOK_CONFIGS = GOLDEN_CONFIGS + ("vector-ccws", "vector-dyncta")


def _default_sim():
    from repro.experiments.common import default_sim
    return default_sim()


def _make_controller(name: str):
    if name == "ccws":
        return CCWSController()
    if name == "dyncta":
        return DynCTAController()
    raise ValueError(name)


def _run_payload(kernel: str, config: str) -> dict:
    """One deterministic hooked run -> JSON-safe payload."""
    loop, name = config.split("-")
    sim = _default_sim()
    workload = build_workload(kernel_by_name(kernel), seed=sim.seed,
                              scale=GOLDEN_SCALE)
    controller = _make_controller(name)
    # Pinned to one GPU class, so the chip rows do not depend on
    # whether numpy is installed.
    run = run_kernel(workload, sim, controller=controller,
                     gpu_class=GPU_CLASSES[loop])
    decisions = [list(d) for d in getattr(controller, "decisions", [])]
    return {"run": run.to_dict(), "decisions": decisions}


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)["kernels"]


@pytest.mark.parametrize("config", HOOK_CONFIGS)
@pytest.mark.parametrize("kernel", HOOK_KERNELS)
def test_hooks_golden_bit_identity(kernel, config):
    """Hooked runs reproduce the chip-loop captures on every loop."""
    golden = _load_golden()[kernel]["chip-" + config.split("-")[1]]
    payload = _run_payload(kernel, config)
    assert payload["run"]["result"]["ticks"] == golden["ticks"], (
        f"{kernel}/{config}: tick count diverged from the golden "
        f"capture ({payload['run']['result']['ticks']} vs "
        f"{golden['ticks']})")
    assert _digest(payload) == golden["digest"], (
        f"{kernel}/{config}: RunResult payload diverged from the "
        f"golden capture despite matching ticks")


@given(seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=6, deadline=None)
def test_chip_loop_matches_method_path(seed):
    """The compiled chip loop == the method-path reference."""
    spec = compute_spec(total_blocks=8, iterations=8)
    sim = tiny_sim()
    fast = GPU(sim)
    fast.enable_fast_forward = False
    ref = MethodPathGPU(sim)
    run_fast = fast.run(build_workload(spec, seed=seed))
    run_ref = ref.run(build_workload(spec, seed=seed))
    assert run_fast.to_dict() == run_ref.to_dict()
    assert fast.tick == ref.tick


# ----------------------------------------------------------------------
# Structural: one hook site per loop, GWDE is inlined
# ----------------------------------------------------------------------

def test_every_run_loop_renders_the_hook_site_once():
    from repro.sim import cycle_kernel
    for tag, spec in cycle_kernel.SPECIALIZATIONS.items():
        if spec["kind"] != "run-loop":
            continue
        source = cycle_kernel.render_source(spec["template"],
                                            spec.get("fragments"))
        assert source.count("on_l1_miss") == 1, tag


def test_no_gwde_method_dispatch_in_compiled_sources():
    from repro.sim import cycle_kernel
    for tag, spec in cycle_kernel.SPECIALIZATIONS.items():
        source = cycle_kernel.render_source(spec["template"],
                                            spec.get("fragments"))
        assert "gwde.request(" not in source, (
            f"{tag}: compiled source still calls GWDE.request")
        assert "notify_done(" not in source, (
            f"{tag}: compiled source still calls GWDE.notify_done")


def _build_golden() -> dict:
    golden = {}
    for kernel in HOOK_KERNELS:
        golden[kernel] = {}
        for config in GOLDEN_CONFIGS:
            payload = _run_payload(kernel, config)
            golden[kernel][config] = {
                "ticks": payload["run"]["result"]["ticks"],
                "energy_j": payload["run"]["energy_j"],
                "digest": _digest(payload),
            }
            print(f"{kernel:<8} {config:<14} "
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
