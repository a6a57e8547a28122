"""Regenerate ``pins.json``: the result digest of every benchmark job.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/pin.py

Pins every job of the suite plan at the sim-mix and sweep-cold scales
(so any ``--seed`` of those workloads is checked against a pin) and
every distinct job among the first ``SERVE_PINNED`` requests of the
default-seed serve-dup trace.  Requests beyond them, or of another
seed, are checked for agreement between repeats instead.  A digest is
a hash of the engine's own ``RunResult`` encoding (``layers.py``).

Run it only when the simulator's results are meant to change; a
benchmark run whose outputs differ from the pins fails.
"""

import json
import os
import shutil
import sys
import tempfile

import layers
import workload

#: Leading requests of the default-seed serve-dup trace that are pinned.
SERVE_PINNED = 8000

DEFAULT_SEED = 1


def digests(jobs, scale, sim, workdir):
    from repro.engine import Engine
    cache = tempfile.mkdtemp(prefix="pin-", dir=workdir)
    try:
        engine = Engine(sim=sim, scale=scale, jobs=2, cache_dir=cache)
        engine.execute(jobs).raise_on_failure()
        return {layers.pin_key(scale, job.kernel, job.key):
                layers.result_digest(engine.lookup(job)[0].to_dict())
                for job in jobs}
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def main():
    from repro.engine import Job
    from repro.serve.loadgen import build_trace

    plan, sim = workload.suite_plan()
    trace = build_trace("duplicate-heavy", DEFAULT_SEED,
                        workload.SERVE_TRACE_LEN,
                        clients=workload.SERVE_CLIENTS)
    serve_jobs = list(dict.fromkeys(
        Job(kernel=item["kernel"], key=tuple(item["key"]))
        for item in trace[:SERVE_PINNED]))
    workdir = os.path.join(os.path.dirname(workload.HERE), ".perfbench-out")
    os.makedirs(workdir, exist_ok=True)
    results = {}
    for jobs, scale in ((plan, workload.SIM_MIX_SCALE),
                        (plan, workload.SWEEP_SCALE),
                        (serve_jobs, workload.SERVE_SCALE)):
        results.update(digests(jobs, scale, sim, workdir))
        print(f"pinned {len(jobs)} jobs at scale {scale}",
              file=sys.stderr)
    with open(workload.PINS_PATH, "w") as handle:
        json.dump({"default_seed": DEFAULT_SEED,
                   "serve_pinned_requests": SERVE_PINNED,
                   "results": results}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
