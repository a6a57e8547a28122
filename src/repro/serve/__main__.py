"""Serving CLI.

Usage::

    python -m repro.serve --scale 0.25 --workers 2 --port 8641
    python -m repro.serve --ledger .repro-cache/serve.sqlite

Prints ``serving on http://HOST:PORT`` once the listener is up (the
integration tests and perfbench's ``serve-dup`` parse that line),
then serves until interrupted (SIGINT or SIGTERM).  Restarting with
the same ``--ledger`` resumes any queued jobs.
"""

import argparse
import asyncio
import os
import signal
import sys

from ..engine.cache import DEFAULT_CACHE_DIR
from ..engine.executor import DEFAULT_MAX_ATTEMPTS, DEFAULT_TIMEOUT
from ..engine.store import JobStore
from ..errors import EngineError
from .server import SimServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Simulation-as-a-service HTTP front end.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8641,
                        help="listen port; 0 picks an ephemeral one "
                             "(default: 8641)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="pinned workload scale (default: 0.25)")
    parser.add_argument("--workers", type=int, default=2,
                        help="engine worker slots (default: 2)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="content-addressed run cache location")
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="durable job ledger (default: "
                             "<cache-dir>/ledger.sqlite); reuse the "
                             "same path to resume a queue")
    parser.add_argument("--rate", type=float, default=20.0,
                        help="per-client tokens/second (default: 20)")
    parser.add_argument("--burst", type=float, default=40.0,
                        help="per-client token bucket capacity "
                             "(default: 40)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="admitted jobs allowed beyond the "
                             "running set (default: 64)")
    parser.add_argument("--budget", type=int, default=None,
                        metavar="N",
                        help="lifetime run budget per client "
                             "(default: unlimited)")
    parser.add_argument("--timeout", type=float,
                        default=DEFAULT_TIMEOUT, metavar="S",
                        help="per-job wall-clock budget")
    parser.add_argument("--max-attempts", type=int,
                        default=DEFAULT_MAX_ATTEMPTS, metavar="N",
                        help="attempt budget before quarantine")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM stops the server like SIGINT: the interrupt unwinds the
    # loop and the engine pool shuts down with the interpreter, so no
    # worker outlives the server.  Forked pool workers get the default
    # action back, so the engine watchdog's terminate still kills a
    # hung worker instead of interrupting its job.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))
    server = SimServer(
        scale=args.scale, workers=args.workers, host=args.host,
        port=args.port, cache_dir=args.cache_dir, ledger=args.ledger,
        rate=args.rate, burst=args.burst,
        queue_limit=args.queue_limit, run_budget=args.budget,
        timeout=args.timeout, max_attempts=args.max_attempts)
    try:
        asyncio.run(server.serve())
    except KeyboardInterrupt:
        # SIGINT or SIGTERM.  Queued jobs stay 'new' in the ledger; a
        # restart with the same --ledger resumes them.
        queued = _resumable(server)
        if queued:
            print(f"interrupted; {queued} queued job(s) remain in "
                  f"{server.ledger_path}", file=sys.stderr)
        else:
            print("interrupted", file=sys.stderr)
    return 0


def _resumable(server: SimServer) -> int:
    """How many jobs a restart of ``server`` on its ledger would resume.

    Counts with :meth:`SimServer._owns`, the rule the restart's resume
    applies, so rows of another scale, SimConfig or code version are
    left out.
    """
    try:
        store = JobStore(server.ledger_path, create=False)
    except EngineError:
        return 0
    try:
        return sum(1 for record in store.pending()
                   if server._owns(record))
    finally:
        store.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
