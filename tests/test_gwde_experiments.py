"""Tests for the GWDE and the experiment harness plumbing."""

import pytest

from repro.config import VF_HIGH, VF_NORMAL
from repro.errors import ExperimentError
from repro.experiments import common
from repro.experiments.common import (BASELINE, EQ_PERF, RunCache,
                                      geomean, make_controller,
                                      static_blocks)
from repro.experiments.report import bar, format_percent, format_table
from repro.sim.gwde import GWDE

from helpers import tiny_sim


class TestGWDE:
    def test_dispenses_in_order(self):
        g = GWDE(["a", "b", "c"])
        assert g.request(0) == "a"
        assert g.request(1) == "b"
        assert len(g) == 1
        assert g.dispatched == 2
        assert g.outstanding == 2

    def test_empty_returns_none(self):
        g = GWDE([])
        assert g.request(0) is None
        assert g.drained

    def test_drained_requires_retirement(self):
        g = GWDE(["a"])
        g.request(0)
        assert not g.drained
        g.notify_done()
        assert g.drained


class TestControllerKeys:
    def test_baseline_is_none(self):
        assert make_controller(BASELINE) is None

    def test_static_key(self):
        c = make_controller(("static", VF_HIGH, VF_NORMAL, 2))
        assert c.sm_vf == VF_HIGH
        assert c.blocks == 2

    def test_equalizer_key(self):
        c = make_controller(EQ_PERF)
        assert c.mode == "performance"
        assert c.manage_frequency

    def test_blocks_only_key(self):
        c = make_controller(("equalizer", "performance", "blocks-only"))
        assert not c.manage_frequency

    def test_comparator_keys(self):
        assert make_controller(("dyncta",)).mode == "dyncta"
        assert make_controller(("ccws",)).mode == "ccws"

    def test_unknown_key_rejected(self):
        with pytest.raises(ExperimentError):
            make_controller(("magic",))

    def test_static_blocks_helper(self):
        assert static_blocks(3) == ("static", VF_NORMAL, VF_NORMAL, 3)


class TestRunCache:
    def test_caches_runs(self):
        cache = RunCache(sim=tiny_sim(), scale=0.2)
        a = cache.run("lavaMD")
        b = cache.run("lavaMD")
        assert a is b
        assert len(cache) == 1

    def test_distinct_keys_distinct_runs(self):
        cache = RunCache(sim=tiny_sim(), scale=0.2)
        a = cache.run("lavaMD")
        b = cache.run("lavaMD", static_blocks(1))
        assert a is not b

    def test_metric_helpers(self):
        cache = RunCache(sim=tiny_sim(), scale=0.2)
        perf = cache.performance("lavaMD", static_blocks(1))
        assert perf > 0
        savings = cache.energy_savings("lavaMD", BASELINE)
        assert savings == pytest.approx(0.0)


class TestGeomean:
    def test_simple(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ExperimentError):
            geomean([])
        with pytest.raises(ExperimentError):
            geomean([1.0, 0.0])


class TestReportHelpers:
    def test_format_table_aligns(self):
        out = format_table(("A", "Longer"), [(1, 2.5), ("xx", "y")],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Longer" in lines[1]
        assert len(lines) == 5

    def test_format_percent(self):
        assert format_percent(0.153) == "+15.3%"
        assert format_percent(0.153, signed=False) == "15.3%"

    def test_bar_clipped(self):
        assert bar(10.0, scale=20, maximum=2.0) == "#" * 20
        assert bar(0.0) == ""


class TestDefaultSim:
    def test_experiment_config_preserves_sample_ratio(self):
        sim = common.default_sim()
        assert sim.equalizer.samples_per_epoch == 32

    def test_paper_config_untouched(self):
        from repro.config import EqualizerConfig
        assert EqualizerConfig().epoch_cycles == 4096
