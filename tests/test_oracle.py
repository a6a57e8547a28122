"""Differential-oracle tests: generation, path matrix, agreement, and
the injected-bug demonstration.

The load-bearing test here is the injection one: it compiles a scratch
copy of the memory-cycle body with a deliberate off-by-one in the DRAM
latency, installs it as ``MemorySubsystem.cycle``, and asserts the
oracle (a) catches the divergence between the fused chip loop -- whose
rate-1.0 inline memory specialization still runs the canonical body --
and the method-path reference loop, (b) shrinks the case, and
(c) dumps a reproducer in the committed format that round-trips.
Everything under ``tests/data/oracle/`` is a previously-found-and-fixed
divergence replayed on every run as a regression gate.
"""

import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

from repro.errors import OracleError
from repro.oracle import (REFERENCE_VARIANT, VARIANTS, OracleCase,
                          all_paths, case_seeds, check_pair,
                          discover_families, generate_case,
                          load_reproducer, run_oracle, split_path,
                          variants_for, write_reproducer)
from repro.oracle.paths import FAMILY_VARIANTS, LOOP_FAMILIES
from repro.oracle.runner import Finding
from repro.oracle.shrink import case_size, shrink_case
from repro.sim import cycle_kernel
from repro.sim.memory import MemorySubsystem

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORACLE_DATA = os.path.join(REPO_ROOT, "tests", "data", "oracle")


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
def test_generation_is_deterministic():
    for seed in (0, 1, 2 ** 62):
        assert generate_case(seed) == generate_case(seed)


def test_case_seed_lists_are_prefix_closed():
    """--n 25 runs a strict prefix of --n 50 at the same master seed."""
    assert case_seeds(0, 25) == case_seeds(0, 50)[:25]
    assert case_seeds(0, 50) != case_seeds(1, 50)


def test_case_round_trips_through_json():
    for seed in case_seeds(3, 20):
        case = generate_case(seed)
        blob = json.dumps(case.to_dict(), sort_keys=True)
        assert OracleCase.from_dict(json.loads(blob)) == case


def test_case_format_is_versioned():
    payload = generate_case(0).to_dict()
    payload["format"] = 999
    with pytest.raises(OracleError):
        OracleCase.from_dict(payload)


def test_generation_module_is_rng_pure():
    """No wall-clock or OS-entropy source is importable from generate.py.

    Mirrors the CI grep lint: a case that cannot be regenerated from
    its seed is a flake, not a finding.
    """
    import repro.oracle.generate as generate
    with open(generate.__file__) as f:
        source = f.read()
    forbidden = (r"^\s*(?:import|from)\s+(?:time|os|datetime)\b",
                 r"urandom", r"SystemRandom")
    for pattern in forbidden:
        assert not re.search(pattern, source, re.MULTILINE), pattern


# ----------------------------------------------------------------------
# Path matrix
# ----------------------------------------------------------------------
def test_every_run_loop_specialization_has_a_family():
    """Registry coverage: each compiled run loop joins the matrix."""
    families = discover_families()
    run_loops = {tag for tag, spec in cycle_kernel.SPECIALIZATIONS.items()
                 if spec["kind"] == "run-loop"}
    bound = {tag for tags in families.values() for tag in tags}
    assert bound == run_loops
    assert len(all_paths()) == sum(
        len(variants_for(family)) for family in families)
    for path in all_paths():
        family, variant = split_path(path)
        assert variant in variants_for(family)
    # The classic families keep the classic four-variant expansion.
    assert variants_for("chip") == VARIANTS
    assert variants_for("per-sm") == VARIANTS
    assert set(families) == {"chip", "per-sm", "vector"}
    # And in the other direction: no binding outlives its loop, and no
    # variant tuple outlives its family.
    assert set(LOOP_FAMILIES) == run_loops
    assert set(FAMILY_VARIANTS) == set(families)


def test_every_specialization_is_installed_where_registered():
    """Each ``installed_as`` path resolves to the live attribute that
    was compiled from that tag, so a registry entry cannot outlive
    the class it names."""
    from repro.sim.vector import have_numpy
    for tag, spec in cycle_kernel.SPECIALIZATIONS.items():
        module_name, cls_name, attr = spec["installed_as"].rsplit(".", 2)
        cls = getattr(importlib.import_module(module_name), cls_name)
        expected = tag
        if tag == "vector-loop" and not have_numpy():
            # Without numpy VectorGPU keeps the inherited chip loop.
            expected = "chip-loop"
        filename = getattr(cls, attr).__code__.co_filename
        assert filename == f"{cycle_kernel.SOURCE_PREFIX}{expected}>", tag


def test_unbound_run_loop_specialization_fails_discovery(monkeypatch):
    """A new compiled loop without a family binding is a test failure,
    not a silently-unfuzzed path."""
    patched = dict(cycle_kernel.SPECIALIZATIONS)
    patched["warp-loop"] = {"template": "", "entry": "f",
                            "kind": "run-loop", "installed_as": "x"}
    monkeypatch.setattr("repro.oracle.paths.SPECIALIZATIONS", patched)
    with pytest.raises(OracleError) as excinfo:
        discover_families()
    assert "warp-loop" in str(excinfo.value)


def test_malformed_path_ids_are_rejected():
    with pytest.raises(OracleError):
        split_path("chipfused")
    with pytest.raises(OracleError):
        split_path("chip:warp-drive")


def test_path_patterns_expand_against_the_matrix():
    """--paths accepts shell-style patterns like ``vector:*``."""
    from repro.oracle.runner import applicable_paths
    expanded = applicable_paths(["vector:*"])
    assert expanded == [p for p in all_paths()
                        if p.startswith("vector:")]
    assert len(expanded) == 4
    with pytest.raises(OracleError):
        applicable_paths(["warp:*"])
    # Duplicates collapse; literal ids still validate.
    mixed = applicable_paths(["chip:fused", "chip:*"])
    assert mixed.count("chip:fused") == 1
    with pytest.raises(OracleError):
        applicable_paths(["chip:warp-drive"])


# ----------------------------------------------------------------------
# Agreement
# ----------------------------------------------------------------------
def test_small_sweep_has_zero_divergences(tmp_path):
    report = run_oracle(seed=0, n=3, jobs=1, do_shrink=False,
                        dump_dir=str(tmp_path))
    assert report.ok, [f.label() for f in report.findings]
    assert report.cases_run == 3
    non_ref = len(all_paths()) - len(discover_families())
    assert report.pairs_checked == 3 * non_ref


def test_committed_reproducers_replay_clean():
    """Every dumped-and-fixed divergence stays fixed."""
    files = sorted(f for f in os.listdir(ORACLE_DATA)
                   if f.endswith(".json"))
    assert files, "no committed reproducers -- the regression gate is empty"
    for name in files:
        case, (ref_path, path) = load_reproducer(
            os.path.join(ORACLE_DATA, name))
        diffs = check_pair(case, ref_path, path)
        assert not diffs, f"{name}: {path} diverges from {ref_path}: {diffs}"


# ----------------------------------------------------------------------
# Injected-bug demonstration
# ----------------------------------------------------------------------
def _injection_case() -> OracleCase:
    """The committed reproducer's case, forced to nominal DVFS.

    The fused loops inline the memory-cycle body only at rate 1.0, so
    a mutation patched onto ``MemorySubsystem.cycle`` splits the fused
    and method paths only when the memory domain stays nominal.
    """
    case, _ = load_reproducer(os.path.join(
        ORACLE_DATA, "chip-method-seed2127827264650304134.json"))
    return dataclasses.replace(case, controller=["baseline"])


def test_injected_off_by_one_is_caught_and_shrunk(tmp_path, monkeypatch):
    mutated = cycle_kernel.MEM_CYCLE_CORE.replace(
        "due = now + dram_latency", "due = now + dram_latency + 1")
    assert mutated != cycle_kernel.MEM_CYCLE_CORE
    buggy_cycle = cycle_kernel.compile_template(
        "scratch-memory-cycle", cycle_kernel.MEMORY_CYCLE, "cycle",
        fragments={"mem_cycle_core": mutated})
    case = _injection_case()
    ref = f"chip:{REFERENCE_VARIANT}"

    monkeypatch.setattr(MemorySubsystem, "cycle", buggy_cycle)
    # Caught: the inline rate-1.0 specialization inside the fused loop
    # still runs the canonical body, the method path runs the mutant.
    diffs = check_pair(case, ref, "chip:method")
    assert diffs, "off-by-one DRAM latency escaped the oracle"
    # Both fused variants inline the canonical body -- they still agree,
    # which localises the fault to the method-path side of the diff.
    assert not check_pair(case, ref, "chip:fused-noff")

    # Shrunk: the minimised case still witnesses the bug and is no
    # larger than what we started with.
    shrunk = shrink_case(
        case, lambda c: bool(check_pair(c, ref, "chip:method")),
        budget_s=60.0)
    assert check_pair(shrunk, ref, "chip:method")
    assert case_size(shrunk) <= case_size(case)

    # Dumped: committed reproducer format, round-trips through the
    # replay loader.
    finding = Finding(case=case.to_dict(), path="chip:method",
                      ref_path=ref, kind="diff", detail=diffs,
                      shrunk_case=shrunk.to_dict())
    dumped = write_reproducer(finding, str(tmp_path))
    loaded_case, (loaded_ref, loaded_path) = load_reproducer(dumped)
    assert loaded_case == shrunk
    assert (loaded_ref, loaded_path) == (ref, "chip:method")

    # And with the canonical body restored, the same case agrees again.
    monkeypatch.undo()
    assert not check_pair(case, ref, "chip:method")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.oracle", *args],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=300)


def test_cli_list_paths():
    proc = _run_cli("--list-paths")
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == set(all_paths())


def test_cli_smoke_sweep(tmp_path):
    proc = _run_cli("--seed", "0", "--n", "2",
                    "--dump-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "0 divergence(s)" in proc.stdout


def test_cli_replay_committed_reproducer():
    name = "chip-method-seed2127827264650304134.json"
    proc = _run_cli("--replay", os.path.join(ORACLE_DATA, name))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "agree" in proc.stdout


def test_cli_rejects_bad_budget():
    proc = _run_cli("--n", "1", "--budget", "soon")
    assert proc.returncode != 0
