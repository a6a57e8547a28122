"""The repository benchmark: sim-mix, sweep-cold and serve-dup.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced

Each workload runs in a fresh interpreter (``workload.py``) with
``PYTHONPATH=src``.  This process imports nothing from ``repro``: it
times set-up from outside, samples the peak RSS of the workload's whole
process tree, prints a report and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured by a traced run (see ``layers.py``).  The exit code is 1 when
any output fails its correctness check (the JSON line says so) and 2,
with no JSON line, when the benchmark cannot run at all (for instance
without ``src/``).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("sim-mix", "sweep-cold", "serve-dup")

#: Set-up is sampled this many times per run besides the workload's
#: own start, and reported as the median.
SETUP_PROBES = 6

#: A run that has not finished by then is killed and reported failed.
RUN_TIMEOUT_S = 170.0

clock = time.perf_counter


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def wait_line(proc, prefix, deadline_s):
    """Read stdout lines until one starts with ``prefix``; None on EOF."""
    timer = threading.Timer(deadline_s, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith(prefix):
                return line
        return None
    finally:
        timer.cancel()


def reap(proc):
    """Stop a probe and everything it started."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
    proc.stdout.close()


def probe_setup(workload, workdir):
    """Seconds from process start until the workload could begin.

    For serve-dup that is a fresh server's spawn until its ``serving
    on`` line; otherwise an interpreter importing what the workload
    imports (the cycle loops compile on import).
    """
    if workload == "serve-dup":
        cache = tempfile.mkdtemp(prefix="probe-", dir=workdir)
        cmd = [sys.executable, "-m", "repro.serve", "--port", "0",
               "--workers", "1", "--cache-dir", cache]
        prefix = "serving on "
    else:
        cmd = [sys.executable, os.path.join(HERE, "workload.py"),
               "--probe"]
        prefix = "ready"
    t0 = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            env=child_env(), start_new_session=True)
    line = wait_line(proc, prefix, 60.0)
    setup = clock() - t0
    reap(proc)
    if line is None:
        raise RuntimeError(f"set-up probe for {workload} failed "
                           f"(exit {proc.returncode})")
    return setup


class TreeRSS(threading.Thread):
    """Samples the summed RSS of a process and all its descendants."""

    PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024

    def __init__(self, pid, interval=0.05):
        super().__init__(daemon=True)
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self._stop_event = threading.Event()

    def _tree_rss_kb(self):
        total = 0
        todo = [self.pid]
        while todo:
            pid = todo.pop()
            try:
                with open(f"/proc/{pid}/statm") as handle:
                    total += int(handle.read().split()[1]) * self.PAGE_KB
                # Children hang off the thread that forked them.
                for tid in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{tid}/children") as handle:
                        todo.extend(int(c) for c in handle.read().split())
            except (OSError, ValueError):
                continue
        return total

    def run(self):
        while not self._stop_event.is_set():
            self.peak_kb = max(self.peak_kb, self._tree_rss_kb())
            self._stop_event.wait(self.interval)

    def stop(self):
        self._stop_event.set()
        self.join()


def run_workload(workload, seed, seconds, trace, reverse=False):
    """Run one workload in a fresh interpreter; return its figures."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        setups = [probe_setup(workload, workdir)
                  for _ in range(SETUP_PROBES)]
        out_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir, "--out", out_path]
        if reverse:
            cmd.append("--reverse")
        t0 = clock()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=child_env(), start_new_session=True)
        sampler = TreeRSS(proc.pid)
        sampler.start()
        try:
            ready = wait_line(proc, "ready", RUN_TIMEOUT_S)
            ready_s = clock() - t0
            timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                proc.stdout.read()
                code = proc.wait()
            finally:
                timer.cancel()
        finally:
            sampler.stop()
            reap(proc)
        if ready is None or code != 0 or not os.path.exists(out_path):
            raise RuntimeError(f"workload {workload} failed (exit {code})")
        with open(out_path) as handle:
            figures = json.load(handle)
        # serve-dup's own sample is its server's start, not the
        # load generator's.
        setups += figures.get("setup_samples") or [ready_s]
        figures["setup_samples"] = setups
        figures["peak_rss_mb"] = sampler.peak_kb / 1024.0
        return figures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(figures):
    e2e = figures["e2e"]
    return {
        "setup_s": statistics.median(figures["setup_samples"]),
        "ticks_per_s": e2e["ticks_per_s"],
        "ops_per_s": e2e["ops_per_s"],
        "p50_ms": e2e["p50_ms"],
        "p99_ms": e2e["p99_ms"],
        "peak_rss_mb": figures["peak_rss_mb"],
    }


def per_layer(figures, names):
    """Every per-layer metric; layers a workload does not call read 0."""
    trace = figures["trace"]
    spans = trace["spans"]
    totals = layers.job_layer_totals(spans)
    calls = totals["calls"]
    acc = totals["acc"]
    values = {name: 0.0 for name in names}
    values.update({
        "sim.run_s": totals["run_s"],
        "sim.ticks": totals["ticks"],
        "sim.hooked_ticks_per_s": (totals["hooked_ticks"]
                                   / totals["hooked_s"]
                                   if totals["hooked_s"] else 0.0),
        "sim.hookfree_ticks_per_s": (totals["hookfree_ticks"]
                                     / totals["hookfree_s"]
                                     if totals["hookfree_s"] else 0.0),
        "sim.import_s": figures["sim_import_s"],
        "workloads.build_s": totals["build_s"],
        "workloads.next_op_calls": calls.get("workloads.next_op", 0),
        "workloads.next_op_s": acc.get("workloads.next_op", 0.0),
        "core.epoch_calls": calls.get("core.epoch", 0),
        "core.epoch_s": acc.get("core.epoch", 0.0),
        "baselines.epoch_calls": calls.get("baselines.epoch", 0),
        "baselines.epoch_s": acc.get("baselines.epoch", 0.0),
        "baselines.hook_calls": calls.get("baselines.hook", 0),
        "baselines.hook_s": acc.get("baselines.hook", 0.0),
        "power.energy_s": totals["energy_s"],
        "trace.overhead_share": trace["overhead_share"],
    })
    values.update(trace.get("figures", {}))
    selfs = layers.self_times(spans, trace.get("extra_children"))
    for layer, seconds in trace.get("moved", {}).items():
        selfs[layer] = selfs.get(layer, 0.0) + seconds
    return values, selfs, trace["wall_s"]


def report(workload, figures, metrics, spec, trace, selfs=None,
           wall=None):
    """Human-readable lines (stdout, before the JSON line)."""
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if trace else "end_to_end"]}
    e2e = figures["e2e"]
    attempted, failed = figures["attempted"], figures["failed"]
    print(f"== {workload} (seed {figures['seed']}, "
          f"{'traced' if trace else 'untraced'})")
    print(f"  ops attempted {attempted}, failed {failed}, "
          f"ops_failed_share {failed / attempted:.4f}; result checks: "
          f"{figures['checks']['pinned']} pinned, "
          f"{figures['checks']['repeat']} repeat-only")
    print(f"  samples: latency {e2e['latency_samples']} (p99_ms is the "
          f"p{100 * e2e['p99_quantile']:.1f} value), rates "
          f"{e2e.get('rate_samples', 1)}, set-up "
          f"{len(figures['setup_samples'])}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6g} {units[name]}")
    if selfs:
        print(f"  self time per layer (traced wall {wall:.3f} s; on "
              f"sweep-cold and serve-dup layers run in parallel "
              f"processes, so shares can sum past 100%):")
        for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:12s} {seconds:10.4f} s "
                  f"{100 * seconds / wall:6.1f}% of wall")
        covered = sum(s for layer, s in selfs.items() if layer != "bench")
        print(f"  layer self time covers {100 * covered / wall:.1f}% of "
              f"the traced wall")
    for error in figures["errors"][:10]:
        print(f"  MISMATCH {error}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise RuntimeError("src/repro is missing; nothing to measure")
        names = [m["name"] for m in
                 spec["per_layer" if args.trace else "end_to_end"]]
        workloads = WORKLOADS if args.workload == "all" else \
            (args.workload,)
        results = []
        for workload in workloads:
            figures = run_workload(workload, args.seed, seconds,
                                   args.trace)
            if args.trace:
                metrics, selfs, wall = per_layer(figures, names)
                metrics = {name: metrics[name] for name in names}
                report(workload, figures, metrics, spec, True, selfs, wall)
                write_trace(workload, args.seed, figures["trace"])
            else:
                metrics = end_to_end(figures)
                report(workload, figures, metrics, spec, False)
            results.append((figures, metrics))
    except (OSError, RuntimeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(f["attempted"] for f, _ in results)
    failed = sum(f["failed"] for f, _ in results)
    correct = failed == 0 and not any(f["errors"] for f, _ in results)
    metrics = results[0][1] if len(results) == 1 else {
        f"{f['workload']}/{name}": value
        for f, m in results for name, value in m.items()}
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": units[name.rsplit("/", 1)[-1]]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def write_trace(workload, seed, trace):
    """Write the traced run's spans to ``.perfbench-out/``."""
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(trace, handle)


if __name__ == "__main__":
    sys.exit(main())
