"""Deterministic load generator for the serving front end.

Traffic is generated as a *trace* first -- a pure function of
``(shape, seed)`` via one :class:`random.Random` stream, the same
RNG-purity discipline the oracle enforces on the simulator -- and
replayed second.  Same seed, same trace: identical kernel/key
sequence, client assignment, and inter-arrival gaps, which is what
makes load-test results comparable across commits.

Three traffic shapes::

    duplicate-heavy   90% of requests draw from a 4-key hot pool
                      (coalescing and cache hits dominate)
    unique-heavy      90% fresh never-seen-before digests (admission
                      and queueing dominate)
    mixed             50/50

Unique digests come from the ``("boost", budget_w)`` controller
family, whose budget axis is continuous -- an endless supply of
distinct-but-valid jobs without inventing synthetic kernels.

Replay is closed-loop per client: each simulated client owns one
keep-alive connection, sends its next request after its scheduled
gap, follows 202s by polling ``/result/<digest>``, and records
end-to-end latency.  All waiting is ``await asyncio.sleep`` -- no
blocking sleeps anywhere in this package (CI lints for it).

Usage::

    python -m repro.serve.loadgen --self-host --requests 40 \\
        --scale 0.25 --out BENCH_serve.json --check

``--self-host`` boots a fresh private server (temp cache + ledger)
per shape so counters are clean; ``--url`` points at a running one
instead.  ``--check`` exits non-zero on any 5xx or quarantined job,
which is the CI smoke gate.
"""

import argparse
import asyncio
import json
import random
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Tuple

from ..engine.store import machine_fingerprint

#: Traffic shapes and their unique-digest fraction.
SHAPES = ("duplicate-heavy", "unique-heavy", "mixed")
_UNIQUE_FRACTION = {"duplicate-heavy": 0.1, "unique-heavy": 0.9,
                    "mixed": 0.5}

#: Fast Table II kernels (the durable suite's pair) -- loadgen jobs
#: must be cheap enough to saturate the server, not the machine.
KERNELS = ("prtcl-2", "mri-g-1")

#: The hot pool duplicate traffic draws from.
HOT_KEYS = (["baseline"], ["equalizer", "performance"],
            ["equalizer", "energy"], ["dyncta"])

BENCH_FORMAT = 1

#: How often a polling client re-checks /result (seconds).
POLL_S = 0.02

#: Per-request end-to-end deadline during replay (seconds).
DEADLINE_S = 120.0


def build_trace(shape: str, seed: int, n: int,
                clients: int = 8,
                mean_gap_ms: float = 5.0) -> List[Dict]:
    """The deterministic request trace: a pure function of its args.

    Each item: ``{"client", "kernel", "key", "gap_ms"}`` where
    ``gap_ms`` is that client's think time before sending.
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r} "
                         f"(known: {', '.join(SHAPES)})")
    rng = random.Random(f"{shape}:{seed}")
    unique_fraction = _UNIQUE_FRACTION[shape]
    seen_budgets = set()
    trace: List[Dict] = []
    for _ in range(n):
        if rng.random() < unique_fraction:
            budget = round(rng.uniform(20.0, 500.0), 6)
            while budget in seen_budgets:
                budget = round(rng.uniform(20.0, 500.0), 6)
            seen_budgets.add(budget)
            key: List = ["boost", budget]
        else:
            key = list(rng.choice(HOT_KEYS))
        trace.append({
            "client": f"c{rng.randrange(clients):02d}",
            "kernel": rng.choice(KERNELS),
            "key": key,
            "gap_ms": round(rng.expovariate(1.0 / mean_gap_ms), 3),
        })
    return trace


def trace_digests(trace: List[Dict], sim=None,
                  scale: float = 0.25) -> List[str]:
    """Content digests of a trace, in order (determinism pinning)."""
    from ..engine.fingerprint import job_digest
    from ..engine.jobs import Job
    from ..workloads import kernel_by_name
    if sim is None:
        from ..experiments.common import default_sim
        sim = default_sim()
    return [job_digest(Job(kernel=item["kernel"],
                           key=tuple(item["key"])),
                       kernel_by_name(item["kernel"]), sim, scale)
            for item in trace]


# -- minimal raw-HTTP client over asyncio streams ----------------------


async def _request(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter, method: str,
                   path: str, body: bytes = b""
                   ) -> Tuple[int, bytes]:
    writer.write((f"{method} {path} HTTP/1.1\r\n"
                  "Host: loadgen\r\n"
                  "Content-Type: application/json\r\n"
                  f"Content-Length: {len(body)}\r\n\r\n").encode()
                 + body)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = (await reader.readexactly(length)) if length else b""
    return status, payload


async def _client_loop(base: Tuple[str, int], items: List[Dict],
                       samples: List[Dict]) -> None:
    """One closed-loop client replaying its slice of the trace."""
    reader, writer = await asyncio.open_connection(*base)
    try:
        for item in items:
            await asyncio.sleep(item["gap_ms"] / 1000.0)
            req = json.dumps({"kernel": item["kernel"],
                              "key": item["key"],
                              "client": item["client"],
                              "wait": True}).encode()
            start = time.perf_counter()
            status, payload = await _request(reader, writer, "POST",
                                             "/simulate", req)
            if status == 202:
                poll = "/result/" + json.loads(payload)["digest"]
                deadline = start + DEADLINE_S
                while (status == 202
                       and time.perf_counter() < deadline):
                    await asyncio.sleep(POLL_S)
                    status, payload = await _request(
                        reader, writer, "GET", poll)
            samples.append({
                "status": status,
                "latency_s": time.perf_counter() - start,
            })
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _fetch_stats(base: Tuple[str, int]) -> Dict:
    reader, writer = await asyncio.open_connection(*base)
    try:
        _, payload = await _request(reader, writer, "GET", "/stats")
        return json.loads(payload)
    finally:
        writer.close()


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


async def _replay(base: Tuple[str, int],
                  trace: List[Dict]) -> Tuple[List[Dict], float]:
    by_client: Dict[str, List[Dict]] = {}
    for item in trace:
        by_client.setdefault(item["client"], []).append(item)
    samples: List[Dict] = []
    start = time.perf_counter()
    await asyncio.gather(*(
        _client_loop(base, items, samples)
        for items in by_client.values()))
    return samples, time.perf_counter() - start


def run_shape(base: Tuple[str, int], shape: str, seed: int, n: int,
              clients: int) -> Dict:
    """Replay one shape against a server; return its metric block."""
    trace = build_trace(shape, seed, n, clients=clients)
    samples, wall = asyncio.run(_replay(base, trace))
    stats = asyncio.run(_fetch_stats(base))
    latencies = [s["latency_s"] for s in samples
                 if s["status"] == 200]
    rejected = sum(1 for s in samples if s["status"] == 429)
    errors = sum(1 for s in samples if s["status"] >= 500)
    counters = stats.get("counters", {})
    joins = counters.get("coalesce_joins", 0)
    hits = counters.get("cache_hits", 0)
    return {
        "requests": len(trace),
        "completed": len(latencies),
        "wall_s": round(wall, 3),
        "rps": round(len(samples) / wall, 2) if wall else 0.0,
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 2),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 2),
        "coalesce_joins": joins,
        "cache_hits": hits,
        "coalesce_rate": round((joins + hits) / len(trace), 3),
        "reject_429": rejected,
        "reject_rate": round(rejected / len(trace), 3),
        "errors_5xx": errors,
        "quarantined": counters.get("quarantined", 0),
        "runs": counters.get("runs_completed", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Deterministic load generator for repro.serve.")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--requests", type=int, default=60,
                        metavar="N",
                        help="requests per shape (default: 60)")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--shapes", default=",".join(SHAPES),
                        help="comma-separated subset of "
                             f"{','.join(SHAPES)}")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="self-hosted server scale "
                             "(default: 0.25)")
    parser.add_argument("--workers", type=int, default=2,
                        help="self-hosted server worker slots")
    parser.add_argument("--self-host", action="store_true",
                        help="boot a fresh private server (temp "
                             "cache + ledger) per shape; this is "
                             "the default when --url is absent")
    parser.add_argument("--url", default=None, metavar="HOST:PORT",
                        help="target a running server instead of "
                             "self-hosting")
    parser.add_argument("--out", default="BENCH_serve.json",
                        metavar="FILE",
                        help="metrics output (default: "
                             "BENCH_serve.json)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on any 5xx or quarantined job "
                             "(the CI smoke gate)")
    args = parser.parse_args(argv)

    shapes = [s.strip() for s in args.shapes.split(",") if s.strip()]
    for shape in shapes:
        if shape not in SHAPES:
            print(f"error: unknown shape {shape!r}", file=sys.stderr)
            return 2

    report: Dict = {
        "format": BENCH_FORMAT,
        "machine": machine_fingerprint(),
        "seed": args.seed,
        "scale": args.scale,
        "workers": args.workers,
        "clients": args.clients,
        "requests_per_shape": args.requests,
        "shapes": {},
    }
    failures = 0
    for shape in shapes:
        if args.url is not None:
            host, _, port = args.url.rpartition(":")
            block = run_shape((host or "127.0.0.1", int(port)),
                              shape, args.seed, args.requests,
                              args.clients)
        else:
            block = _self_hosted_shape(shape, args)
        report["shapes"][shape] = block
        print(f"{shape}: {block['requests']} requests in "
              f"{block['wall_s']}s ({block['rps']} rps), "
              f"p50 {block['p50_ms']}ms p99 {block['p99_ms']}ms, "
              f"coalesce rate {block['coalesce_rate']}, "
              f"rejects {block['reject_429']}, "
              f"5xx {block['errors_5xx']}", file=sys.stderr)
        failures += block["errors_5xx"] + block["quarantined"]

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if args.check and failures:
        print(f"check FAILED: {failures} 5xx/quarantined",
              file=sys.stderr)
        return 1
    return 0


def _self_hosted_shape(shape: str, args) -> Dict:
    """Boot a private server (temp cache + ledger) for one shape."""
    from .server import SimServer
    workdir = tempfile.mkdtemp(prefix=f"serve-loadgen-{shape}-")
    server = SimServer(
        scale=args.scale, workers=args.workers, port=0,
        cache_dir=f"{workdir}/cache",
        ledger=f"{workdir}/ledger.sqlite",
        # Generous admission: the bench measures latency/throughput;
        # rate-limit behaviour has its own integration tests.
        rate=1000.0, burst=2000.0, queue_limit=4096)
    server.start_background()
    try:
        return run_shape((server.host, server.port), shape,
                         args.seed, args.requests, args.clients)
    finally:
        server.stop_background()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
