"""Tests for the extension experiments: ablations, motivation, and the
power-budget comparator."""

import pytest

from repro.baselines import PowerBudgetController
from repro.config import VF_NORMAL
from repro.errors import ConfigError
from repro.experiments import ablations, boost_comparison, motivation
from repro.experiments.common import RunCache
from repro.sim.gpu import run_kernel
from repro.workloads import build_workload

from helpers import compute_spec, memory_spec, tiny_sim


class TestPowerBudgetController:
    def test_boosts_when_headroom(self):
        sim = tiny_sim()
        ctrl = PowerBudgetController(budget_w=1000.0)
        r = run_kernel(build_workload(compute_spec(total_blocks=16,
                                                   iterations=20),
                                      seed=1), sim, controller=ctrl)
        assert any(sm_vf > VF_NORMAL for _, _, sm_vf in ctrl.power_trace)
        res = r.result.vf_residency()
        assert any(sm > VF_NORMAL for (sm, _m) in res)

    def test_holds_at_base_without_headroom(self):
        sim = tiny_sim()
        ctrl = PowerBudgetController(budget_w=1.0)
        r = run_kernel(build_workload(compute_spec(), seed=1), sim,
                       controller=ctrl)
        assert set(r.result.vf_residency()) == {(VF_NORMAL, VF_NORMAL)}

    def test_never_touches_memory_domain(self):
        sim = tiny_sim()
        ctrl = PowerBudgetController(budget_w=1000.0)
        r = run_kernel(build_workload(memory_spec(), seed=1), sim,
                       controller=ctrl)
        assert all(mem == VF_NORMAL
                   for (_sm, mem) in r.result.vf_residency())

    def test_power_trace_recorded(self):
        sim = tiny_sim()
        ctrl = PowerBudgetController()
        run_kernel(build_workload(compute_spec(), seed=1), sim,
                   controller=ctrl)
        assert ctrl.power_trace
        for _tick, watts, _vf in ctrl.power_trace:
            assert watts > 0

    def test_validates_arguments(self):
        with pytest.raises(ConfigError):
            PowerBudgetController(budget_w=0)
        with pytest.raises(ConfigError):
            PowerBudgetController(guard_w=-1)


class TestAblations:
    def test_epoch_size_runs(self):
        data = ablations.epoch_size(kernels=["lavaMD"],
                                    epochs=[1024, 2048])
        assert set(data) == {1024, 2048}
        for v in data.values():
            assert v["speedup_gmean"] > 0.8

    def test_hysteresis_runs(self):
        data = ablations.hysteresis_depth(kernels=["lavaMD"],
                                          depths=[1, 3])
        assert set(data) == {1, 3}

    def test_xmem_threshold_runs(self):
        data = ablations.xmem_threshold(kernels=["lavaMD"],
                                        thresholds=[2.0])
        assert set(data) == {2.0}

    def test_cli_scale_reaches_every_ablation_run(self, monkeypatch,
                                                  capsys):
        from repro.cli import main
        scales = []
        real = ablations.build_workload

        def recording(spec, seed=2014, scale=1.0):
            scales.append(scale)
            return real(spec, seed=seed, scale=scale)

        monkeypatch.setattr(ablations, "build_workload", recording)
        assert main(["ablations", "--scale", "0.05", "--kernels",
                     "prtcl-2", "--no-cache"]) == 0
        assert "epoch length" in capsys.readouterr().out
        # 13 settings x (baseline, performance, energy) runs.
        assert scales == [0.05] * 39

    def test_report_renders(self):
        data = {
            "epoch_size": {1024: {"speedup_gmean": 1.1,
                                  "savings_mean": 0.05}},
            "hysteresis": {3: {"speedup_gmean": 1.2,
                               "savings_mean": 0.1}},
            "xmem_threshold": {2.0: {"speedup_gmean": 1.0,
                                     "savings_mean": 0.0}},
        }
        out = ablations.report(data)
        assert "epoch length" in out
        assert "hysteresis" in out


class TestMotivation:
    def test_input_dependence_flips_optimum(self):
        data = motivation.input_dependence(scale=0.4)
        small = data["kmn-small"]
        large = data["kmn-large"]
        assert large["best_blocks"] < small["best_blocks"]
        # Using the small input's tuning on the large input hurts.
        assert large["mistuned_loss"] > 0.3

    def test_cross_architecture_moves_thrash_point(self):
        data = motivation.cross_architecture(scale=0.5)
        assert data["big-l1"]["best_blocks"] > \
            data["fermi"]["best_blocks"]
        assert data["fermi"]["mistuned_loss"] > 0.5

    def test_report_renders(self):
        data = motivation.run(scale=0.3)
        out = motivation.report(data)
        assert "Motivation 1" in out and "Motivation 2" in out


class TestBoostComparison:
    def test_equalizer_beats_budget_policy(self):
        cache = RunCache(scale=0.3)
        data = boost_comparison.run(cache,
                                    kernels=["cutcp", "cfd-1", "kmn"])
        s = data["summary"]
        assert s["equalizer_gmean"] > s["boost_gmean"]
        assert "GMEAN" in boost_comparison.report(data)
