"""One benchmark workload, run in its own fresh interpreter.

``run.py`` starts this file once per run::

    python perfbench/workload.py --workload sim-mix --seed 1 \\
        --seconds 25 --trace 0 --workdir DIR --out FILE

It prints ``ready`` as soon as its imports are done (``run.py`` times
process start to that line as a set-up sample), runs the workload for
about ``--seconds``, checks every output against the pinned digests in
``pins.json`` and writes its figures to ``--out``.  ``--probe`` only
imports and prints ``ready``.

Each workload repeats whole units of work (a pass of jobs, a sweep, a
serving session) and starts another only while the mean unit still
fits in the time budget, so a run measures whole units.  With
``--trace 1`` every unit runs twice, untraced and then traced, and the
ratio of the two walls is the tracing overhead.
"""

import argparse
import asyncio
import collections
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import layers

HERE = os.path.dirname(os.path.abspath(__file__))

#: Pinned result digests (see pin.py).
PINS_PATH = os.path.join(HERE, "pins.json")

#: Workload scales.  sim-mix runs long enough per job that the cycle
#: loop dominates; sweep-cold and serve-dup run at the scales where
#: per-job engine and server work is visible next to the simulation.
SIM_MIX_SCALE = 0.1
SWEEP_SCALE = 0.02
SERVE_SCALE = 0.1

#: Engine worker processes for sweep-cold and connections for
#: serve-dup: at most the 2 cores the benchmark host has.
SWEEP_WORKERS = 2
SERVE_CLIENTS = 2

#: The serve-dup trace is long enough that no run exhausts it.
SERVE_TRACE_LEN = 16000

#: Client poll interval after a 202; small next to a simulated run
#: (tens of ms at SERVE_SCALE).
POLL_S = 0.005

#: A request the server has not answered by then counts as lost.  A
#: simulated run at SERVE_SCALE takes well under a second.
EXCHANGE_TIMEOUT_S = 30.0

#: Generous admission: serve-dup measures latency, not refusals.
SERVE_ADMISSION = ["--rate", "1000000", "--burst", "1000000",
                   "--queue-limit", "100000"]

clock = time.perf_counter


class Checker:
    """Compares result digests with the pins, or with repeats."""

    def __init__(self):
        with open(PINS_PATH) as handle:
            self.pins = json.load(handle)["results"]
        self.seen = {}
        self.errors = []
        self.pinned_checks = 0
        self.repeat_checks = 0

    def check(self, scale, kernel, key, digest):
        """True when ``digest`` is the right result for the job."""
        name = layers.pin_key(scale, kernel, key)
        want = self.pins.get(name)
        if want is None:
            want = self.seen.setdefault(name, digest)
            self.repeat_checks += 1
        else:
            self.pinned_checks += 1
        if digest != want:
            self.errors.append(f"{name}: result digest {digest}, "
                               f"expected {want}")
            return False
        return True


def tail_percentile(values):
    """(value, q): the highest percentile up to 99 with >= 10 beyond."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, min(-(-99 * n // 100), n - 10))
    return ordered[rank - 1], rank / n


def median(values):
    """Median; 0.0 when every operation failed (the run then reads
    incorrect)."""
    return statistics.median(values) if values else 0.0


def latency_metrics(latencies_s):
    if not latencies_s:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "p99_quantile": 0.0,
                "latency_samples": 0}
    p99, q = tail_percentile(latencies_s)
    return {"p50_ms": statistics.median(latencies_s) * 1e3,
            "p99_ms": p99 * 1e3, "p99_quantile": q,
            "latency_samples": len(latencies_s)}


def repeat_units(seconds, unit):
    """Run ``unit(i)`` while the mean unit still fits in ``seconds``.
    A unit that returns False could not run, and ends the run."""
    start = clock()
    walls = []
    while True:
        t = clock()
        stop = unit(len(walls)) is False
        walls.append(clock() - t)
        if stop or clock() - start + statistics.mean(walls) > seconds:
            return walls


def suite_plan():
    """The plan ``python -m repro all`` declares, in declaration order."""
    from repro import cli
    from repro.engine import collect_jobs
    from repro.experiments.common import default_sim
    sim = default_sim()
    return collect_jobs(list(cli.EXPERIMENTS.values()), sim=sim), sim


# -- sim-mix ----------------------------------------------------------------

def sim_mix_pass(plan, seed, index, reverse=False):
    """Pass ``index`` of a run: one plan job per kernel.

    Each kernel walks its own plan jobs in a seed-shuffled order, one
    per pass, so successive passes draw without replacement: controller
    families stay weighted as in the plan, every kernel appears once
    per pass, and runs of different seeds cost about the same.  A CCWS
    job is forced in when a pass has none, so the hook-bearing loop is
    always timed.
    """
    by_kernel = {}
    for job in plan:
        by_kernel.setdefault(job.kernel, []).append(job)
    chosen = {}
    for kernel, jobs in by_kernel.items():
        order = list(jobs)
        random.Random(f"sim-mix:{seed}:{kernel}").shuffle(order)
        chosen[kernel] = order[index % len(order)]
    rng = random.Random(f"sim-mix:{seed}:{index}")
    if not any(job.key[0] == "ccws" for job in chosen.values()):
        job = rng.choice([job for job in plan if job.key[0] == "ccws"])
        chosen[job.kernel] = job
    jobs = list(chosen.values())
    rng.shuffle(jobs)
    if reverse:
        jobs.reverse()
    return jobs


def run_sim_mix(args, out):
    from repro.engine.executor import execute_job

    plan, sim = suite_plan()
    checker = Checker()
    tracer = layers.Tracer()
    lat = []
    pass_rates = []
    pass_ops = []
    failed = [0]
    attempted = [0]
    walls = {"untraced": 0.0, "traced": 0.0}

    def one_pass(jobs, traced):
        pass_ticks = 0
        pass_s = 0.0
        t0 = clock()
        if traced:
            layers.install_next_op()
        try:
            for job in jobs:
                attempted[0] += 1
                try:
                    if traced:
                        result, seconds, _ = layers.timed_job(
                            job.kernel, job.key, SIM_MIX_SCALE, sim, tracer)
                    else:
                        result, seconds = execute_job(
                            job.kernel, job.key, SIM_MIX_SCALE, sim)
                except Exception:
                    failed[0] += 1
                    checker.errors.append(f"{job.label()}: raised\n"
                                          f"{traceback.format_exc()}")
                    continue
                digest = layers.result_digest(result.to_dict())
                if not checker.check(SIM_MIX_SCALE, job.kernel,
                                     job.key, digest):
                    failed[0] += 1
                if not traced:
                    lat.append(seconds)
                pass_ticks += result.ticks
                pass_s += seconds
        finally:
            if traced:
                layers.remove_next_op()
        wall = clock() - t0
        walls["traced" if traced else "untraced"] += wall
        if not traced and pass_s:
            pass_rates.append(pass_ticks / pass_s)
            pass_ops.append(len(jobs) / wall)

    def unit(index):
        jobs = sim_mix_pass(plan, args.seed, index, args.reverse)
        one_pass(jobs, traced=False)
        if args.trace:
            one_pass(jobs, traced=True)

    repeat_units(args.seconds, unit)
    out["attempted"] = attempted[0]
    out["failed"] = failed[0]
    out["errors"] = checker.errors
    out["checks"] = {"pinned": checker.pinned_checks,
                     "repeat": checker.repeat_checks}
    out["e2e"] = dict(latency_metrics(lat),
                      ticks_per_s=median(pass_rates),
                      ops_per_s=median(pass_ops),
                      rate_samples=len(pass_rates))
    if args.trace:
        out["trace"] = {
            "spans": tracer.spans, "wall_s": walls["traced"],
            "overhead_share": walls["traced"] / walls["untraced"] - 1.0,
        }


# -- sweep-cold -------------------------------------------------------------

def run_sweep_cold(args, out):
    from repro.engine import Engine

    plan, sim = suite_plan()
    order = list(plan)
    random.Random(f"sweep-cold:{args.seed}").shuffle(order)
    if args.reverse:
        order.reverse()
    checker = Checker()
    tracer = layers.Tracer()
    failed = [0]
    attempted = [0]
    lat = []
    rates = []
    tick_rates = []
    walls = {"untraced": 0.0, "traced": 0.0}
    figures = {}

    def sweep(traced):
        cache = tempfile.mkdtemp(prefix="sweep-", dir=args.workdir)
        span_dir = tempfile.mkdtemp(prefix="spans-", dir=args.workdir)
        t0 = clock()
        try:
            timings = cold_and_warm(cache, span_dir, traced)
        except Exception:
            walls["traced" if traced else "untraced"] += clock() - t0
            attempted[0] += len(order)
            failed[0] += len(order)
            checker.errors.append(f"sweep raised\n{traceback.format_exc()}")
            return False
        finally:
            shutil.rmtree(cache, ignore_errors=True)
            shutil.rmtree(span_dir, ignore_errors=True)
        record(traced, *timings)
        return True

    def cold_and_warm(cache, span_dir, traced):
        """Cold sweep into ``cache``, then a fresh engine reads it back."""
        cells = {name: [0, 0, 0] for name in
                 ("digest", "put", "get", "warm_get")}
        kwargs = {}
        if traced:
            layers.WORKER_SPAN_DIR = span_dir
            layers.install_next_op()
            kwargs["worker"] = layers.traced_execute_job
        try:
            engine = Engine(sim=sim, scale=SWEEP_SCALE,
                            jobs=SWEEP_WORKERS, cache_dir=cache, **kwargs)
            if traced:
                layers.wrap_timed(engine, "digest", cells["digest"])
                layers.wrap_timed(engine.disk, "put", cells["put"])
                layers.wrap_timed(engine.disk, "get", cells["get"])
            t0 = clock()
            report = engine.execute(order)
            t1 = clock()
            warm = Engine(sim=sim, scale=SWEEP_SCALE, jobs=SWEEP_WORKERS,
                          cache_dir=cache)
            if traced:
                layers.wrap_timed(warm.disk, "get", cells["warm_get"])
            t2 = clock()
            warm_report = warm.execute(order)
            t3 = clock()
            cache_bytes = warm.disk.stats()["bytes"]
        finally:
            if traced:
                layers.remove_next_op()
                layers.WORKER_SPAN_DIR = None
        worker_spans = (layers.read_worker_spans(span_dir) if traced
                        else [])
        return (engine, report, warm, warm_report, (t0, t1, t2, t3),
                cells, cache_bytes, worker_spans)

    def record(traced, engine, report, warm, warm_report, times, cells,
               cache_bytes, worker_spans):
        t0, t1, t2, t3 = times
        walls["traced" if traced else "untraced"] += t3 - t0
        attempted[0] += len(order)
        for outcome, warm_outcome in zip(report.outcomes,
                                         warm_report.outcomes):
            job = outcome.job
            if not outcome.ok or not warm_outcome.ok or \
                    warm_outcome.source != "disk":
                failed[0] += 1
                checker.errors.append(
                    f"{job.label()}: cold {outcome.source} "
                    f"{outcome.error!r}, warm {warm_outcome.source}")
                continue
            cold_digest = layers.result_digest(
                engine.lookup(job)[0].to_dict())
            warm_digest = layers.result_digest(
                warm.lookup(job)[0].to_dict())
            ok = checker.check(SWEEP_SCALE, job.kernel, job.key,
                               cold_digest)
            if warm_digest != cold_digest:
                checker.errors.append(f"{job.label()}: warm read "
                                      f"{warm_digest} != {cold_digest}")
                ok = False
            if not ok:
                failed[0] += 1
        job_s = sum(o.seconds for o in report.outcomes)
        cold_wall = t1 - t0
        if not traced:
            ticks = sum(engine.lookup(o.job)[0].ticks
                        for o in report.outcomes if o.ok)
            lat.extend(o.seconds for o in report.outcomes)
            rates.append(len(order) / cold_wall)
            tick_rates.append(ticks / job_s)
            return
        root = tracer.add("engine.execute", "engine", t0, t1,
                          ident="cold")
        for span in worker_spans:
            if span["name"] == "job":
                span["parent"] = root["id"]
        tracer.spans.extend(worker_spans)
        tracer.add("engine.warm_resolve", "engine", t2, t3, ident="warm")
        n = len(report.outcomes)
        figures.update({
            "engine.digest_s": layers.cell_seconds(cells["digest"]),
            "engine.job_run_s": job_s,
            "engine.overhead_per_job_ms":
                (cold_wall * SWEEP_WORKERS - job_s) / n * 1e3,
            "engine.pool_busy_share": job_s / (cold_wall * SWEEP_WORKERS),
            "engine.cache_put_calls": cells["put"][0],
            "engine.cache_put_s": layers.cell_seconds(cells["put"]),
            "engine.cache_bytes": cache_bytes,
            "engine.attempts_per_job":
                sum(o.attempts for o in report.outcomes) / n,
            "engine.warm_resolve_s": t3 - t2,
            "engine.cache_get_s": layers.cell_seconds(cells["get"])
            + layers.cell_seconds(cells["warm_get"]),
        })

    def unit(index):
        return sweep(traced=False) and (not args.trace or sweep(traced=True))

    repeat_units(args.seconds, unit)
    out["attempted"] = attempted[0]
    out["failed"] = failed[0]
    out["errors"] = checker.errors
    out["checks"] = {"pinned": checker.pinned_checks,
                     "repeat": checker.repeat_checks}
    out["e2e"] = dict(latency_metrics(lat),
                      ticks_per_s=median(tick_rates),
                      ops_per_s=median(rates),
                      rate_samples=len(rates))
    if args.trace:
        out["trace"] = {
            "spans": tracer.spans, "figures": figures,
            "wall_s": walls["traced"],
            "overhead_share": walls["traced"] / walls["untraced"] - 1.0,
        }


# -- serve-dup --------------------------------------------------------------

def spawn_server(workdir, traced, span_dir=None):
    """Start a server with a fresh cache and ledger; return (proc, port,
    setup seconds from spawn to its ``serving on`` line)."""
    cache = tempfile.mkdtemp(prefix="serve-", dir=workdir)
    serve_args = ["--port", "0", "--scale", str(SERVE_SCALE),
                  "--workers", "1", "--cache-dir", cache] + SERVE_ADMISSION
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "serve_host.py"),
               span_dir] + serve_args
    else:
        cmd = [sys.executable, "-m", "repro.serve"] + serve_args
    # The server stays in this process's group, so run.py's final
    # group kill also reaches it and its engine workers.
    t0 = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    line = proc.stdout.readline()
    setup = clock() - t0
    if not line.startswith("serving on "):
        stop_server(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    return proc, int(line.strip().rsplit(":", 1)[1]), setup, cache


def stop_server(proc):
    """SIGINT (a graceful stop that also ends its workers), else kill."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
    proc.stdout.close()


async def _exchange(reader, writer, method, path, body=b""):
    """One HTTP exchange, given up after :data:`EXCHANGE_TIMEOUT_S`."""
    from repro.serve.loadgen import _request
    return await asyncio.wait_for(
        _request(reader, writer, method, path, body), EXCHANGE_TIMEOUT_S)


#: What a lost server looks like to the client.
LOST = (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError)


async def _client(port, items, deadline, records):
    """Replay one client's items.  A lost connection ends the client
    with a status-0 record for the request it was on."""
    writer = rec = None
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for item in items:
            await asyncio.sleep(item["gap_ms"] / 1000.0)
            if clock() >= deadline:
                break
            body = json.dumps({"kernel": item["kernel"],
                               "key": item["key"],
                               "client": item["client"],
                               "wait": True}).encode()
            t0 = clock()
            rec = {"item": item, "start": t0, "first": 0, "status": 0,
                   "polls": 0, "payload": b""}
            records.append(rec)
            status, payload = await _exchange(reader, writer, "POST",
                                              "/simulate", body)
            rec["first"] = status
            if status == 202:
                poll = "/result/" + json.loads(payload)["digest"]
                while status == 202 and clock() < t0 + 120.0:
                    await asyncio.sleep(POLL_S)
                    rec["polls"] += 1
                    status, payload = await _exchange(reader, writer,
                                                      "GET", poll)
            rec.update(status=status, payload=payload, end=clock())
    except LOST as exc:
        if rec is None:
            rec = {"item": items[0], "start": clock(), "first": 0,
                   "polls": 0}
            records.append(rec)
        rec.update(status=0, payload=repr(exc).encode(), end=clock())
    finally:
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _drive(port, trace, seconds):
    """Replay ``trace``; return records, start, wall and the server's
    ``/stats`` (None when the server no longer answers)."""
    by_client = {}
    for item in trace:
        by_client.setdefault(item["client"], []).append(item)
    records = []
    t0 = clock()
    await asyncio.gather(*(_client(port, items, t0 + seconds, records)
                           for items in by_client.values()))
    wall = clock() - t0
    if any(rec["status"] == 0 for rec in records):
        return records, t0, wall, None
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            _, stats = await _exchange(reader, writer, "GET", "/stats")
        finally:
            writer.close()
        return records, t0, wall, json.loads(stats)
    except LOST + (ValueError,):
        return records, t0, wall, None


def cache_tick_rate(cache_dir):
    """Σ ticks / Σ worker seconds over the runs a server cached."""
    ticks, seconds = 0, 0.0
    for dirpath, _, names in os.walk(cache_dir):
        for name in names:
            if name.endswith(".json"):
                with open(os.path.join(dirpath, name)) as handle:
                    entry = json.load(handle)
                ticks += entry["result"]["result"]["ticks"]
                seconds += entry["meta"]["run_seconds"]
    return ticks / seconds if seconds else 0.0


def run_serve_dup(args, out):
    from repro.serve.loadgen import build_trace

    trace = build_trace("duplicate-heavy", args.seed, SERVE_TRACE_LEN,
                        clients=SERVE_CLIENTS)
    checker = Checker()
    bodies = {}
    sessions = {}

    def session(traced, seconds):
        span_dir = (tempfile.mkdtemp(prefix="spans-", dir=args.workdir)
                    if traced else None)
        proc, port, setup, cache = spawn_server(args.workdir, traced,
                                                span_dir)
        try:
            records, t0, wall, stats = asyncio.run(
                _drive(port, trace, seconds))
        finally:
            stop_server(proc)
        tick_rate = cache_tick_rate(cache)
        shutil.rmtree(cache, ignore_errors=True)
        failed = 0
        if stats is None:
            failed += 1
            checker.errors.append("server /stats did not answer")
            stats = {"counters": collections.defaultdict(int),
                     "admission": {}}
        for rec in records:
            item = rec["item"]
            ok = rec["status"] == 200
            if ok:
                body = json.loads(rec["payload"])
                rec["provenance"] = body["provenance"]
                rec["digest"] = body["digest"]
                same = bodies.setdefault(
                    (body["digest"], body["provenance"]), rec["payload"])
                ok = same == rec["payload"]
                if not ok:
                    checker.errors.append(
                        f"{body['digest']}: {body['provenance']} bodies "
                        f"differ between requests")
                ok = checker.check(SERVE_SCALE, item["kernel"],
                                   item["key"],
                                   layers.result_digest(body["result"])
                                   ) and ok
            else:
                rec["provenance"] = None
                checker.errors.append(
                    f"{item['kernel']}/{item['key']}: HTTP "
                    f"{rec['status'] or 'connection lost'} "
                    f"{rec['payload'][:200]!r}")
            if not ok:
                failed += 1
            rec["payload"] = None
        quarantined = stats["counters"]["quarantined"]
        sessions["traced" if traced else "untraced"] = {
            "records": records, "t0": t0, "wall": wall, "stats": stats,
            "setup": setup, "tick_rate": tick_rate,
            "failed": failed + quarantined, "span_dir": span_dir}

    if args.trace:
        session(False, args.seconds / 2)
        session(True, args.seconds / 2)
    else:
        session(False, args.seconds)
    plain = sessions["untraced"]
    records = plain["records"]
    out["attempted"] = sum(len(s["records"]) for s in sessions.values())
    out["failed"] = sum(s["failed"] for s in sessions.values())
    out["errors"] = checker.errors[:20]
    out["checks"] = {"pinned": checker.pinned_checks,
                     "repeat": checker.repeat_checks}
    out["setup_samples"] = [plain["setup"]]
    out["e2e"] = dict(
        latency_metrics([r["end"] - r["start"] for r in records]),
        ticks_per_s=plain["tick_rate"],
        ops_per_s=len(records) / plain["wall"])
    out["stats"] = plain["stats"]
    if args.trace:
        traced = sessions["traced"]
        out["trace"] = serve_trace(traced, plain)


def serve_trace(traced, plain):
    """Per-layer figures of the traced serving session."""
    tracer = layers.Tracer()
    jobs = {}
    worker_spans = layers.read_worker_spans(traced["span_dir"])
    for span in worker_spans:
        if span["name"] == "job":
            jobs.setdefault(span["ident"], []).append(span)
    extra = {}
    for rec in traced["records"]:
        span = tracer.add("serve.request", "serve", rec["start"],
                          rec["end"], ident=rec.get("digest"),
                          status=rec["status"],
                          provenance=rec["provenance"],
                          polls=rec["polls"], first=rec["first"])
        if rec["provenance"] == "simulated":
            # The request waited on the engine run of its digest.
            extra[span["id"]] = jobs.get(rec.get("digest"), [])
    tracer.spans.extend(worker_spans)
    try:
        with open(os.path.join(traced["span_dir"],
                               "server.json")) as handle:
            cells = json.load(handle)["cells"]
    except FileNotFoundError:
        # The server died before it could write its counts; the
        # session has already failed on the lost requests.
        cells = collections.defaultdict(lambda: [0, 0, 0])
    records = traced["records"]
    hits = [r["end"] - r["start"] for r in records
            if r["provenance"] == "cache"]
    runs = [r["end"] - r["start"] for r in records
            if r["provenance"] == "simulated"]
    counters = traced["stats"]["counters"]
    verdicts = traced["stats"]["admission"]
    posts = (counters["cache_hits"] + counters["coalesce_joins"]
             + sum(verdicts.values()))

    def mean_us(cell):
        return cell[2] / cell[0] / 1e3 if cell[0] else 0.0

    figures = {
        "engine.digest_s": cells["digest"][2] / 1e9,
        "engine.cache_put_calls": cells["put"][0],
        "engine.cache_put_s": cells["put"][2] / 1e9,
        "engine.cache_get_s": cells["get"][2] / 1e9,
        "engine.job_run_s": sum(s["seconds"] for s in worker_spans
                                if s["name"] == "job"),
        "serve.hit_p50_ms": median(hits) * 1e3,
        "serve.hit_p99_ms": tail_percentile(hits)[0] * 1e3 if hits else 0,
        "serve.run_p50_ms": median(runs) * 1e3,
        "serve.run_p99_ms": tail_percentile(runs)[0] * 1e3 if runs else 0,
        "serve.cache_hits": counters["cache_hits"],
        "serve.coalesce_joins": counters["coalesce_joins"],
        "serve.runs_completed": counters["runs_completed"],
        "serve.hit_share": counters["cache_hits"] / posts if posts else 0,
        "serve.accepted_202": sum(1 for r in records if r["first"] == 202),
        "serve.polls": sum(r["polls"] for r in records),
        "serve.poll_interval_ms": POLL_S * 1e3,
        "serve.parse_us": mean_us(cells["parse"]),
        "serve.admission_us": mean_us(cells["admission"]),
    }
    # Both sessions replay the same trace from its start: compare the
    # time each took to answer the requests both of them answered.
    common = min(len(plain["records"]), len(records))

    def time_to(session):
        ends = sorted(r["end"] for r in session["records"])
        return ends[common - 1] - session["t0"]

    # Server-side engine calls run inside the request spans; move their
    # time from the serve layer's self time to the engine layer's.
    engine_s = sum(cells[name][2] for name in ("digest", "get", "put")) / 1e9
    return {"spans": tracer.spans, "extra_children": extra,
            "moved": {"serve": -engine_s, "engine": engine_s},
            "figures": figures, "wall_s": traced["wall"],
            "overhead_share": time_to(traced) / time_to(plain) - 1.0}


WORKLOADS = {"sim-mix": run_sim_mix, "sweep-cold": run_sweep_cold,
             "serve-dup": run_serve_dup}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--reverse", action="store_true",
                        help="run each job list in reverse order (the "
                             "row-order self-test)")
    parser.add_argument("--workdir")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    t0 = clock()
    import repro.sim  # noqa: F401  (compiles the cycle loops)
    import_s = clock() - t0
    from repro import cli  # noqa: F401
    from repro.engine import Engine  # noqa: F401
    print("ready", flush=True)
    if args.probe:
        return 0
    out = {"workload": args.workload, "seed": args.seed,
           "sim_import_s": import_s}
    WORKLOADS[args.workload](args, out)
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
