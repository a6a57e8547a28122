"""Tests for the parallel experiment engine and its run cache."""

import hashlib
import json
import os

import pytest

from repro.cli import EXPERIMENTS
from repro.cli import main as cli_main
from repro.config import SimConfig
from repro.engine import (DiskCache, Engine, Job, ReproJSONEncoder,
                          collect_jobs, dumps_json, execute_job,
                          job_digest, make_controller)
from repro.engine import fingerprint
from repro.engine.__main__ import main as engine_main
from repro.errors import EngineError, SerializationError
from repro.experiments import fig4_warp_states, fig7_performance_mode
from repro.experiments.common import (BASELINE, EQ_PERF, RunCache,
                                      default_sim, static_blocks)
from repro.serve.loadgen import HOT_KEYS, SHAPES, build_trace
from repro.sim.results import (RunResult, decode_controller_key,
                               encode_controller_key)
from repro.workloads import kernel_by_name

#: Cheap kernels (short runs) used throughout this module.
FAST = ["prtcl-2", "mri-g-1"]
SCALE = 0.05


def tiny_engine(tmp_path, **overrides) -> Engine:
    kwargs = dict(sim=default_sim(), scale=SCALE,
                  cache_dir=str(tmp_path / "cache"))
    kwargs.update(overrides)
    return Engine(**kwargs)


class TestSerialization:
    def test_run_result_round_trip(self, tmp_path):
        engine = tiny_engine(tmp_path, use_cache=False)
        original = engine.run("prtcl-2", EQ_PERF)
        back = RunResult.from_dict(
            json.loads(json.dumps(original.to_dict())))
        assert back.ticks == original.ticks
        assert back.seconds == original.seconds
        assert back.energy_j == original.energy_j
        assert back.energy_breakdown == original.energy_breakdown
        assert back.result == original.result

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(SerializationError):
            RunResult.from_dict({"seconds": 1.0})
        engine_result = {"result": {"kernel": "x", "bogus_field": 1},
                         "seconds": 1.0, "energy_j": 1.0,
                         "energy_breakdown": {}}
        with pytest.raises(SerializationError):
            RunResult.from_dict(engine_result)

    def test_controller_key_round_trip(self):
        for key in (BASELINE, EQ_PERF, static_blocks(3),
                    ("equalizer", "performance", "blocks-only")):
            assert decode_controller_key(
                encode_controller_key(key)) == key

    def test_controller_key_rejects_non_primitives(self):
        with pytest.raises(SerializationError):
            encode_controller_key(("static", object()))

    def test_typed_json_encoder_handles_results(self, tmp_path):
        engine = tiny_engine(tmp_path, use_cache=False)
        result = engine.run("prtcl-2", BASELINE)
        payload = json.loads(dumps_json({"nested": {"run": result}}))
        assert payload["nested"]["run"]["result"]["kernel"] == "prtcl-2"

    def test_typed_json_encoder_fails_loudly(self):
        with pytest.raises(SerializationError):
            dumps_json({"mystery": object()})
        with pytest.raises(SerializationError):
            json.dumps({"mystery": object()}, cls=ReproJSONEncoder)


class TestDiskCache:
    def test_miss_then_hit_across_engines(self, tmp_path):
        plan = [Job(k, BASELINE) for k in FAST]
        cold = tiny_engine(tmp_path).execute(plan)
        assert cold.executed == len(FAST) and cold.hits == 0
        warm = tiny_engine(tmp_path).execute(plan)
        assert warm.hits == len(FAST) and warm.executed == 0
        assert [o.source for o in warm.outcomes] == ["disk", "disk"]

    def test_results_identical_after_disk_round_trip(self, tmp_path):
        first = tiny_engine(tmp_path).run("prtcl-2", EQ_PERF)
        second = tiny_engine(tmp_path).run("prtcl-2", EQ_PERF)
        assert second.result == first.result
        assert second.energy_j == first.energy_j

    def test_scale_change_invalidates(self, tmp_path):
        tiny_engine(tmp_path).run("prtcl-2", BASELINE)
        other = tiny_engine(tmp_path, scale=SCALE * 2)
        report = other.execute([Job("prtcl-2", BASELINE)])
        assert report.executed == 1 and report.hits == 0

    def test_sim_config_change_invalidates(self, tmp_path):
        tiny_engine(tmp_path).run("prtcl-2", BASELINE)
        sim = default_sim()
        other = tiny_engine(
            tmp_path, sim=SimConfig(gpu=sim.gpu.scaled(l1_ways=8),
                                    equalizer=sim.equalizer))
        report = other.execute([Job("prtcl-2", BASELINE)])
        assert report.executed == 1 and report.hits == 0

    def test_digest_depends_on_key_kernel_and_config(self):
        sim = default_sim()
        spec = kernel_by_name("prtcl-2")
        base = job_digest(Job("prtcl-2", BASELINE), spec, sim, 0.1)
        assert base == job_digest(Job("prtcl-2", BASELINE), spec, sim,
                                  0.1)
        assert base != job_digest(Job("prtcl-2", EQ_PERF), spec, sim,
                                  0.1)
        assert base != job_digest(Job("prtcl-2", BASELINE), spec, sim,
                                  0.2)
        assert base != job_digest(
            Job("mri-g-1", BASELINE), kernel_by_name("mri-g-1"), sim,
            0.1)

    def test_frame_memo_matches_whole_payload_formula(self):
        """The memoised frame hashes the very bytes the one-shot
        formula did, so no cached digest moves."""
        def whole(job, spec, sim, scale):
            blob = json.dumps({
                "format": fingerprint.CACHE_FORMAT,
                "code": fingerprint.code_salt(),
                "kernel": fingerprint.kernel_spec_fingerprint(spec),
                "key": encode_controller_key(job.key),
                "sim": fingerprint.sim_config_fingerprint(sim),
                "scale": scale,
            }, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(blob.encode()).hexdigest()

        sim = default_sim()
        plan = collect_jobs(list(EXPERIMENTS.values()), sim=sim)
        cases = [(job, 0.02) for job in plan] + \
            [(job, 1) for job in plan]
        for shape in SHAPES:
            cases += [(Job(item["kernel"], tuple(item["key"])), 0.25)
                      for item in build_trace(shape, seed=1, n=300)]
        cases += [(Job("prtcl-2", ("boost", 123.456789)), 0.1),
                  (Job("prtcl-2", ("boost", 150)), 0.1),
                  (Job("prtcl-2", BASELINE), 1.0)]
        for job, scale in cases:
            spec = kernel_by_name(job.kernel)
            assert job_digest(job, spec, sim, scale) == \
                whole(job, spec, sim, scale), (job, scale)
        # 1 and 1.0 compare equal but encode differently.
        job = Job("prtcl-2", BASELINE)
        spec = kernel_by_name("prtcl-2")
        assert job_digest(job, spec, sim, 1) != \
            job_digest(job, spec, sim, 1.0)
        # An equal SimConfig built afresh has the same digest.
        assert job_digest(job, spec, default_sim(), 0.1) == \
            job_digest(job, spec, sim, 0.1)

    def test_frame_memo_is_bounded(self):
        sim, spec = default_sim(), kernel_by_name("prtcl-2")
        for step in range(200):
            job_digest(Job("prtcl-2", BASELINE), spec, sim,
                       0.01 * (step + 1))
            assert len(fingerprint._frames) <= 64

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        engine = tiny_engine(tmp_path)
        engine.run("prtcl-2", BASELINE)
        digest = engine.digest(Job("prtcl-2", BASELINE))
        path = engine.disk._path(digest)
        with open(path, "w") as f:
            f.write("{ truncated")
        fresh = DiskCache(engine.disk.root)
        assert fresh.get(digest) is None
        assert not os.path.exists(path)

    def test_no_cache_engine_writes_nothing(self, tmp_path):
        engine = tiny_engine(tmp_path, use_cache=False)
        engine.run("prtcl-2", BASELINE)
        assert not (tmp_path / "cache").exists()


class TestPlanning:
    def test_collect_jobs_unions_and_dedups(self):
        plan = collect_jobs([fig4_warp_states, fig7_performance_mode],
                            kernels=FAST, sim=default_sim())
        assert len(plan) == len(set(plan))
        # fig7 re-declares the baselines fig4 needs; the union keeps
        # one copy of each plus fig7's three controller configs.
        assert len(plan) == len(FAST) * 4
        assert Job(FAST[0], BASELINE) in plan

    def test_modules_without_declaration_contribute_nothing(self):
        from repro.experiments import ablations
        assert collect_jobs([ablations], kernels=FAST) == []

    def test_rejects_bad_jobs(self):
        with pytest.raises(EngineError):
            Engine(jobs=0)
        # A zero lease makes every claim instantly reapable.
        for lease in (0.0, -1.0):
            with pytest.raises(EngineError, match="lease"):
                Engine(lease_s=lease)

    def test_sweep_rejects_zero_lease(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert engine_main(["sweep", "--experiments", "fig4",
                            "--kernels", "prtcl-2", "--scale",
                            str(SCALE), "--lease", "0", "--cache-dir",
                            str(cache_dir)]) == 2
        assert "lease must be positive" in capsys.readouterr().err
        assert not cache_dir.exists()


_ORDER_ENV = "REPRO_TEST_ORDER_FILE"


def order_worker(kernel, key, scale, sim):
    """Record the run order across the pool; simulate nothing."""
    with open(os.environ[_ORDER_ENV], "a") as handle:
        handle.write(f"{kernel} {key[0]}\n")
    return f"{kernel}/{key[0]}", 0.0


class TestSubmissionOrder:
    def test_misses_run_kernel_major_outcomes_stay_in_plan_order(
            self, tmp_path, monkeypatch):
        order_file = tmp_path / "order.log"
        monkeypatch.setenv(_ORDER_ENV, str(order_file))
        cached = Job("sc", ("baseline",))
        plan = [Job("lbm", ("baseline",)), Job("sc", ("dyncta",)),
                cached, Job("lbm", ("ccws",)), Job("kmn", ("baseline",)),
                Job("sc", ("boost",)), Job("lbm", ("dyncta",))]
        engine = tiny_engine(tmp_path, use_cache=False,
                             worker=order_worker)
        engine._memory[(cached.kernel, cached.key)] = "cached"
        report = engine.execute(plan)
        # One worker runs jobs in submission order: grouped by kernel,
        # kernels in order of first appearance, plan order within one.
        assert order_file.read_text().split("\n")[:-1] == [
            "lbm baseline", "lbm ccws", "lbm dyncta",
            "sc dyncta", "sc boost", "kmn baseline"]
        assert [o.job for o in report.outcomes] == plan
        assert [o.source for o in report.outcomes] == [
            "run", "run", "memory", "run", "run", "run", "run"]


class TestControllerKeys:
    @pytest.mark.parametrize("key", [
        ("static",), ("static", 0, 0), ("equalizer",), (),
        ("boost", "x"), ("static", 0, 0, "2"),
        ("static", 1.0, 0, None),
        # Would alias a well-formed key's simulation under another
        # digest.
        ("static", True, 0, None), ("static", 0, 0, True),
        ("dyncta", 1, 2), ("static", 0, 0, 1.5), ("baseline", 0),
        ("ccws", "x"), ("boost", True), ("boost", 100.0, 5),
        ("boost", float("nan")), ("boost", float("inf")),
        ("equalizer", "performance", "x"),
        ("equalizer", "performance", "blocks-only", 1),
    ], ids=repr)
    def test_malformed_key_raises_engine_error(self, key):
        with pytest.raises(EngineError):
            make_controller(key)

    def test_vocabulary_keys_still_build(self):
        from repro.oracle.generate import generate_case
        plan = collect_jobs(list(EXPERIMENTS.values()),
                            sim=default_sim())
        keys = {job.key for job in plan}
        keys |= {tuple(key) for key in HOT_KEYS}
        keys |= {tuple(generate_case(seed).controller)
                 for seed in range(100)}
        keys |= {("boost", 150), ("boost", 87.25),
                 ("static", -1, 1, 2)}
        for key in keys:
            make_controller(key)


class TestDeterminism:
    def test_parallel_report_matches_serial(self, tmp_path, capsys):
        args = ["fig4", "--scale", str(SCALE),
                "--kernels", ",".join(FAST)]
        assert cli_main(args + ["--jobs", "2", "--cache-dir",
                                str(tmp_path / "par")]) == 0
        parallel_out = capsys.readouterr().out
        assert cli_main(args + ["--cache-dir",
                                str(tmp_path / "ser")]) == 0
        serial_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_parallel_execute_populates_same_results(self, tmp_path):
        plan = [Job(k, key) for k in FAST
                for key in (BASELINE, EQ_PERF)]
        par = tiny_engine(tmp_path, jobs=2)
        par.execute(plan)
        ser = tiny_engine(tmp_path, use_cache=False)
        ser.execute(plan)
        for job in plan:
            a, _ = par.lookup(job)
            b, _ = ser.lookup(job)
            assert a.result == b.result
            assert a.energy_j == b.energy_j


# -- crash/retry machinery: workers must be module-level picklables ----

_CRASH_DIR_ENV = "REPRO_TEST_CRASH_DIR"


def _marker(kernel: str) -> str:
    return os.path.join(os.environ[_CRASH_DIR_ENV], kernel + ".marker")


def crash_once_worker(kernel, key, scale, sim):
    """Kill the worker process on each kernel's first attempt."""
    if not os.path.exists(_marker(kernel)):
        open(_marker(kernel), "w").close()
        os._exit(3)
    return execute_job(kernel, key, scale, sim)


def raise_once_worker(kernel, key, scale, sim):
    """Raise (no crash) on each kernel's first attempt."""
    if not os.path.exists(_marker(kernel)):
        open(_marker(kernel), "w").close()
        raise ValueError("transient failure")
    return execute_job(kernel, key, scale, sim)


def always_raise_worker(kernel, key, scale, sim):
    raise ValueError("permanent failure")


class TestRetry:
    @pytest.fixture(autouse=True)
    def crash_dir(self, tmp_path, monkeypatch):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        monkeypatch.setenv(_CRASH_DIR_ENV, str(marker_dir))
        return marker_dir

    def test_worker_crash_is_retried_once(self, tmp_path):
        engine = tiny_engine(tmp_path, jobs=2,
                             worker=crash_once_worker)
        report = engine.execute([Job("prtcl-2", BASELINE)])
        outcome = report.outcomes[0]
        assert outcome.ok and outcome.attempts == 2
        assert engine.run("prtcl-2", BASELINE).ticks > 0

    def test_worker_exception_is_retried_once(self, tmp_path):
        engine = tiny_engine(tmp_path, jobs=2,
                             worker=raise_once_worker)
        report = engine.execute([Job("prtcl-2", BASELINE)])
        assert report.outcomes[0].ok
        assert report.outcomes[0].attempts == 2
        assert not report.failures

    def test_serial_exception_is_retried_once(self, tmp_path):
        engine = tiny_engine(tmp_path, worker=raise_once_worker)
        report = engine.execute([Job("prtcl-2", BASELINE)])
        assert report.outcomes[0].ok
        assert report.outcomes[0].attempts == 2

    def test_persistent_failure_is_reported(self, tmp_path):
        engine = tiny_engine(tmp_path, jobs=2,
                             worker=always_raise_worker)
        report = engine.execute([Job("prtcl-2", BASELINE)])
        outcome = report.outcomes[0]
        assert not outcome.ok and outcome.attempts == 2
        assert "permanent failure" in outcome.error
        assert report.failures
        with pytest.raises(EngineError):
            report.raise_on_failure()

    @pytest.mark.parametrize("error", ["", "   \n  \n"])
    def test_raise_on_failure_survives_blank_errors(self, error):
        from repro.engine import ExecutionReport, JobOutcome
        report = ExecutionReport(outcomes=[JobOutcome(
            job=Job("prtcl-2", BASELINE), source="run", attempts=2,
            error=error)])
        with pytest.raises(EngineError) as excinfo:
            report.raise_on_failure()
        assert "(no error detail)" in str(excinfo.value)


class TestFacade:
    def test_run_cache_rejects_double_configuration(self, tmp_path):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            RunCache(sim=default_sim(), engine=tiny_engine(tmp_path))


class TestCheckGuard:
    def test_update_then_pass_then_drift(self, tmp_path, capsys):
        ref = tmp_path / "reference.json"
        with open(ref, "w") as f:
            json.dump({"format": 1, "scale": SCALE, "kernels": FAST,
                       "metrics": {}}, f)
        flags = ["--cache-dir", str(tmp_path / "cache")]
        assert engine_main(["check", "--against", str(ref),
                            "--update"] + flags) == 0
        capsys.readouterr()
        assert engine_main(["check", "--against", str(ref)]
                           + flags) == 0
        out = capsys.readouterr().out
        assert "guard passed" in out

        with open(ref) as f:
            payload = json.load(f)
        key = next(iter(payload["metrics"]["headline"]))
        payload["metrics"]["headline"][key] *= 1.10
        with open(ref, "w") as f:
            json.dump(payload, f)
        assert engine_main(["check", "--against", str(ref)]
                           + flags) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out

    def test_rejects_malformed_reference(self, tmp_path):
        ref = tmp_path / "bad.json"
        with open(ref, "w") as f:
            json.dump({"format": 99}, f)
        assert engine_main(["check", "--against", str(ref)]) == 2


class TestCodeSalt:
    def test_cycle_kernel_module_is_salted(self):
        """The compiled hot loops come from sim/cycle_kernel.py, so an
        edit there must invalidate cached runs like any sim change."""
        from repro.engine import fingerprint
        root = os.path.dirname(os.path.abspath(fingerprint.__file__))
        repro_root = os.path.dirname(root)
        salted = set()
        for entry in fingerprint._BEHAVIOR_SOURCES:
            path = os.path.join(repro_root, entry)
            for fp in fingerprint._python_files(path):
                salted.add(os.path.relpath(fp, repro_root))
        assert os.path.join("sim", "cycle_kernel.py") in salted
        assert os.path.join("sim", "gpu.py") in salted
