"""The deterministic trace vocabulary of the serving front end.

Traffic is generated as a *trace* -- a pure function of
``(shape, seed)`` via one :class:`random.Random` stream, the same
RNG-purity discipline the oracle enforces on the simulator.  Same
seed, same trace: identical kernel/key sequence, client assignment,
and inter-arrival gaps, which is what makes replays comparable across
commits.  perfbench's ``serve-dup`` workload and the serving tests
replay these traces closed-loop over :func:`_request`.

Three traffic shapes::

    duplicate-heavy   90% of requests draw from a 4-key hot pool
                      (coalescing and cache hits dominate)
    unique-heavy      90% fresh never-seen-before digests (admission
                      and queueing dominate)
    mixed             50/50

Unique digests come from the ``("boost", budget_w)`` controller
family, whose budget axis is continuous -- an endless supply of
distinct-but-valid jobs without inventing synthetic kernels.
"""

import asyncio
import random
from typing import Dict, List, Tuple

#: Traffic shapes and their unique-digest fraction.
SHAPES = ("duplicate-heavy", "unique-heavy", "mixed")
_UNIQUE_FRACTION = {"duplicate-heavy": 0.1, "unique-heavy": 0.9,
                    "mixed": 0.5}

#: Fast Table II kernels (the durable suite's pair) -- trace jobs
#: must be cheap enough to saturate the server, not the machine.
KERNELS = ("prtcl-2", "mri-g-1")

#: The hot pool duplicate traffic draws from.
HOT_KEYS = (["baseline"], ["equalizer", "performance"],
            ["equalizer", "energy"], ["dyncta"])


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
