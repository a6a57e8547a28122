"""Traced ``python -m repro.serve`` for the traced serve-dup session.

Usage::

    python perfbench/serve_host.py SPAN_DIR [repro.serve arguments]

Wraps the server's public calls from outside -- request parsing
(``normalize_request``), ``AdmissionController.decide``,
``Engine.digest`` and ``DiskCache.get``/``put`` -- swaps the engine's
worker function for ``layers.traced_execute_job`` and counts
``WarpProgram.next_op`` in the workers, then runs the normal serve CLI.
When the server stops (SIGINT) the call counts and times are written to
``SPAN_DIR/server.json``; the workers append their job spans to
``SPAN_DIR/worker-<pid>.jsonl``.
"""

import json
import os
import sys
import threading
import time

import layers


def locked_timer(fn, cell, lock):
    """Time every call into ``cell``; the server calls from two threads."""
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            with lock:
                cell[0] += 1
                cell[1] += 1
                cell[2] += elapsed
    return wrapper


def main(argv):
    span_dir, serve_args = argv[0], argv[1:]
    from repro.engine import cache, executor
    from repro.serve import __main__ as serve_main
    from repro.serve import admission, server

    lock = threading.Lock()
    cells = {name: [0, 0, 0] for name in
             ("parse", "admission", "digest", "get", "put")}
    server.normalize_request = locked_timer(server.normalize_request,
                                            cells["parse"], lock)
    admission.AdmissionController.decide = locked_timer(
        admission.AdmissionController.decide, cells["admission"], lock)
    executor.Engine.digest = locked_timer(executor.Engine.digest,
                                          cells["digest"], lock)
    cache.DiskCache.get = locked_timer(cache.DiskCache.get,
                                       cells["get"], lock)
    cache.DiskCache.put = locked_timer(cache.DiskCache.put,
                                       cells["put"], lock)
    # Engine() picks its default worker up from the executor module
    # when the server constructs it.
    executor.execute_job = layers.traced_execute_job
    layers.WORKER_SPAN_DIR = span_dir
    layers.install_next_op()
    try:
        return serve_main.main(serve_args)
    finally:
        with open(os.path.join(span_dir, "server.json"), "w") as handle:
            json.dump({"cells": cells}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
