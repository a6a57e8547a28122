"""Tests for the simulator throughput benchmark harness."""

import json

import pytest

from helpers import tiny_sim
from repro.bench import (BENCH_FORMAT, BenchError, bench_kernel,
                         compare, geomean, load_results,
                         machine_fingerprint, run_suite, save_results)
from repro.bench.__main__ import main


def _doc(rates, scale=0.3, machine=None):
    doc = {
        "format": BENCH_FORMAT,
        "mode": "quick",
        "scale": scale,
        "repeats": 1,
        "kernels": {name: {"ticks": 1000, "wall_s": 1000.0 / rate,
                           "ticks_per_sec": rate, "role": "extra"}
                    for name, rate in rates.items()},
        "geomean_ticks_per_sec": round(geomean(list(rates.values())), 1),
    }
    if machine is not None:
        doc["machine"] = machine
    return doc


def test_geomean_basics():
    assert geomean([4.0, 9.0]) == pytest.approx(6.0)
    with pytest.raises(BenchError):
        geomean([])
    with pytest.raises(BenchError):
        geomean([1.0, 0.0])


def test_bench_kernel_runs_and_reports(tmp_path):
    row = bench_kernel("cutcp", scale=0.05, repeats=2, sim=tiny_sim())
    assert row["ticks"] > 0
    assert row["wall_s"] > 0
    assert row["ticks_per_sec"] == pytest.approx(
        row["ticks"] / row["wall_s"], rel=0.01)


def test_bench_kernel_rejects_bad_repeats():
    with pytest.raises(BenchError):
        bench_kernel("cutcp", repeats=0)
    with pytest.raises(BenchError):
        bench_kernel("cutcp", variant="quantum")


def test_bench_kernel_multikernel_variant():
    """The @multikernel rows time a real co-schedule, deterministically."""
    sim = tiny_sim()
    row = bench_kernel("cutcp", scale=0.05, repeats=2, sim=sim,
                       variant="multikernel")
    solo = bench_kernel("cutcp", scale=0.05, repeats=1, sim=sim)
    assert row["ticks"] > 0
    assert row["ticks"] != solo["ticks"]  # the partner changes the run


def test_bench_kernel_controller_variants():
    """The @ccws/@dyncta rows run the third-party baselines on the
    scalar chip GPU and stay deterministic."""
    for variant in ("ccws", "dyncta"):
        row = bench_kernel("cutcp", scale=0.05, repeats=2,
                           sim=tiny_sim(), variant=variant)
        assert row["ticks"] > 0
        assert row["ticks_per_sec"] > 0


def test_machine_fingerprint_is_stable_and_stringly():
    fp = machine_fingerprint()
    assert fp == machine_fingerprint()
    assert set(fp) == {"machine", "system", "processor", "python"}
    assert all(isinstance(v, str) for v in fp.values())


def test_save_and_load_roundtrip(tmp_path):
    doc = _doc({"a": 100.0, "b": 200.0})
    path = tmp_path / "bench.json"
    save_results(str(path), doc)
    assert load_results(str(path)) == doc


def test_load_rejects_bad_files(tmp_path):
    with pytest.raises(BenchError):
        load_results(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BenchError):
        load_results(str(bad))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": 99, "kernels": {}}))
    with pytest.raises(BenchError):
        load_results(str(wrong))


def test_compare_passes_within_threshold():
    base = _doc({"a": 100.0, "b": 100.0})
    new = _doc({"a": 90.0, "b": 80.0})
    lines, ok = compare(base, new, threshold=0.30)
    assert ok
    assert any("geomean speedup" in line for line in lines)


def test_compare_fails_on_regression():
    base = _doc({"a": 100.0, "b": 100.0})
    new = _doc({"a": 60.0, "b": 60.0})
    lines, ok = compare(base, new, threshold=0.30)
    assert not ok
    assert any("REGRESSION" in line for line in lines)


def test_compare_default_threshold_is_ten_percent():
    """An 0.85x geomean passed the old 30% gate; the default floor is
    now 10%."""
    assert not compare(_doc({"a": 100.0}), _doc({"a": 85.0}))[1]
    assert compare(_doc({"a": 100.0}), _doc({"a": 95.0}))[1]


def test_compare_failure_lists_offending_rows():
    base = _doc({"a": 100.0, "b": 100.0, "c": 100.0})
    new = _doc({"a": 50.0, "b": 60.0, "c": 95.0})
    lines, ok = compare(base, new, threshold=0.10)
    assert not ok
    text = "\n".join(lines)
    assert "rows below" in text
    listing = text.split("rows below", 1)[1]
    assert "a: 0.50x" in listing
    assert "b: 0.60x" in listing
    assert "c:" not in listing  # within-floor rows are not blamed


def test_compare_improvement_is_always_ok():
    base = _doc({"a": 100.0})
    new = _doc({"a": 250.0})
    _, ok = compare(base, new, threshold=0.30)
    assert ok


def test_compare_notes_scale_and_kernel_mismatches():
    base = _doc({"a": 100.0, "gone": 100.0}, scale=1.0)
    new = _doc({"a": 100.0}, scale=0.3)
    lines, ok = compare(base, new, threshold=0.30)
    assert ok
    text = "\n".join(lines)
    assert "scales differ" in text
    assert "gone" in text


def test_compare_gates_only_on_matching_fingerprints():
    """A below-floor ratio fails on the same machine, warns across
    machines, and fails when either document predates fingerprints."""
    here = {"machine": "x86_64", "system": "Linux",
            "processor": "x86_64", "python": "CPython-3.12.0"}
    there = dict(here, machine="arm64", processor="arm64")
    base, slow = _doc({"a": 100.0}), _doc({"a": 50.0})
    # Same fingerprint: enforced.
    _, ok = compare(_doc({"a": 100.0}, machine=here),
                    _doc({"a": 50.0}, machine=here))
    assert not ok
    # Different fingerprints: advisory.
    lines, ok = compare(_doc({"a": 100.0}, machine=here),
                        _doc({"a": 50.0}, machine=there))
    assert ok
    text = "\n".join(lines)
    assert "fingerprints differ" in text
    assert "not gated" in text
    # Fingerprint missing on either side: enforced (old baselines).
    assert not compare(base, slow)[1]
    assert not compare(_doc({"a": 100.0}, machine=here), slow)[1]
    # Mismatch never hides an improvement or a within-floor result.
    assert compare(_doc({"a": 100.0}, machine=here),
                   _doc({"a": 95.0}, machine=there))[1]


def test_run_suite_records_the_fingerprint():
    doc = run_suite(kernels=["cutcp"], scale=0.05, repeats=1)
    assert doc["machine"] == machine_fingerprint()


def test_compare_requires_common_kernels():
    with pytest.raises(BenchError):
        compare(_doc({"a": 100.0}), _doc({"b": 100.0}))
    with pytest.raises(BenchError):
        compare(_doc({"a": 100.0}), _doc({"a": 100.0}), threshold=1.5)


def test_run_suite_quick_schema():
    doc = run_suite(kernels=["cutcp"], scale=0.05, repeats=1)
    assert doc["format"] == BENCH_FORMAT
    assert doc["kernels"]["cutcp"]["role"] == "compute"
    assert doc["geomean_ticks_per_sec"] > 0


def test_cli_compare(tmp_path, capsys):
    base = tmp_path / "base.json"
    new = tmp_path / "new.json"
    save_results(str(base), _doc({"a": 100.0}))
    save_results(str(new), _doc({"a": 95.0}))
    assert main(["--compare", str(base), str(new)]) == 0
    save_results(str(new), _doc({"a": 10.0}))
    assert main(["--compare", str(base), str(new)]) == 1
    assert main(["--compare", str(base), str(tmp_path / "nope.json")]) == 2
    out = capsys.readouterr().out
    assert "geomean speedup" in out
