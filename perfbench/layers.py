"""Tracing for the traced benchmark run, recorded from outside ``src/``.

Every layer is timed by wrapping calls into its public functions from
the benchmark's own code; nothing under ``src/`` is edited.  Two kinds
of record exist:

* **spans** -- ``{id, name, layer, start, end, parent, ident, acc}``,
  one per call at a coarse boundary (a job, a workload build, a
  ``run_kernel`` call, a sweep, an HTTP request).  Spans are kept in
  memory and written out when the run ends.
* **accumulators** -- call counts and times for per-call hot paths
  (``WarpProgram.next_op``, controller ``on_epoch``, the CCWS
  ``sm.hooks`` methods), which run far too often for one span each.
  ``next_op`` and the hooks time one call in :data:`SAMPLE` and scale
  the sampled time by the call count; epoch calls are all timed.  A
  span's ``acc`` holds the accumulator time that fell inside it, so its
  self time can exclude it.

Self time is a span's duration minus the part of it that its child
spans cover (the union of their intervals, clipped to the span) minus
the accumulator time recorded inside it.

Clocks are ``time.perf_counter()``, which is ``CLOCK_MONOTONIC`` on
Linux and therefore comparable between the benchmark, the server it
spawns and the engine's worker processes.
"""

import hashlib
import itertools
import json
import os
import time

#: One hot-path call in SAMPLE is timed; all are counted.
SAMPLE = 8

#: Controller key families whose controllers live in ``repro.core``;
#: every other family is a ``repro.baselines`` controller.
CORE_FAMILIES = ("equalizer",)

#: CCWS scheduler hooks, called through ``sm.hooks`` by the cycle loop.
HOOK_METHODS = ("can_issue_mem", "on_l1_miss", "on_l1_evict")


def result_digest(result_dict):
    """Digest of one ``RunResult.to_dict()`` (the engine's encoding).

    The wall-clock ``run_seconds`` lives only in the cache entry's
    ``meta`` block, so ``to_dict`` is already free of it.
    """
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def pin_key(scale, kernel, key):
    """The pins-table key of one job: scale, kernel and controller key."""
    return f"{scale:g}|{kernel}|{json.dumps(list(key))}"


class Tracer:
    """In-memory spans plus named hot-path accumulators."""

    #: Span ids are unique per process, across tracers.
    _ids = itertools.count(1)

    def __init__(self):
        self.spans = []

    def new_id(self):
        return f"{os.getpid()}-{next(self._ids)}"

    def add(self, name, layer, start, end, parent=None, ident=None,
            acc=None, **extra):
        span = {"id": self.new_id(), "name": name, "layer": layer,
                "start": start, "end": end, "parent": parent,
                "ident": ident, "acc": acc or {}}
        span.update(extra)
        self.spans.append(span)
        return span


class HotPaths:
    """Count/time cells for the per-call hot paths of one process.

    Each cell is ``[calls, timed_calls, timed_ns]``; :meth:`delta`
    scales the timed sample up to every call.
    """

    NAMES = ("workloads.next_op", "core.epoch", "baselines.epoch",
             "baselines.hook")

    def __init__(self):
        self.cells = {name: [0, 0, 0] for name in self.NAMES}

    def snapshot(self):
        return {name: list(cell) for name, cell in self.cells.items()}

    def delta(self, before):
        """``{name: (calls, seconds)}`` accumulated since ``before``."""
        out = {}
        for name, cell in self.cells.items():
            calls = cell[0] - before[name][0]
            timed = cell[1] - before[name][1]
            ns = cell[2] - before[name][2]
            out[name] = (calls, ns / 1e9 * calls / timed if timed else 0.0)
        return out


def sampled(fn, cell, every=SAMPLE):
    """Wrap ``fn`` so every call is counted and one in ``every`` timed."""
    clock = time.perf_counter_ns

    def wrapper(*args):
        n = cell[0] = cell[0] + 1
        if n % every:
            return fn(*args)
        start = clock()
        out = fn(*args)
        cell[2] += clock() - start
        cell[1] += 1
        return out
    return wrapper


#: This process's hot-path cells (the engine's forked workers inherit
#: the patched class and their own copy of the cells).
HOT = HotPaths()
_ORIGINAL_NEXT_OP = None


def install_next_op():
    """Count and sample ``WarpProgram.next_op`` for every program.

    ``WarpProgram`` uses ``__slots__``, so the wrapper goes on the class
    for the traced part of the run and :func:`remove_next_op` restores
    the original.  The cycle loops call ``prog.next_op()`` through the
    attribute, so every call passes the wrapper.
    """
    global _ORIGINAL_NEXT_OP
    from repro.workloads import WarpProgram
    if _ORIGINAL_NEXT_OP is None:
        _ORIGINAL_NEXT_OP = WarpProgram.next_op
        WarpProgram.next_op = sampled(_ORIGINAL_NEXT_OP,
                                      HOT.cells["workloads.next_op"])


def remove_next_op():
    global _ORIGINAL_NEXT_OP
    from repro.workloads import WarpProgram
    if _ORIGINAL_NEXT_OP is not None:
        WarpProgram.next_op = _ORIGINAL_NEXT_OP
        _ORIGINAL_NEXT_OP = None


def controller_layer(key):
    return "core" if key[0] in CORE_FAMILIES else "baselines"


def instrument_controller(controller, key):
    """Wrap a controller's ``on_epoch`` (and CCWS hooks) on the instance.

    Must run before ``run_kernel`` attaches the controller: CCWS
    installs itself as ``sm.hooks`` at attach time, and the loop then
    finds the wrapped methods on the instance.
    """
    if controller is None:
        return
    layer = controller_layer(key)
    controller.on_epoch = sampled(controller.on_epoch,
                                  HOT.cells[f"{layer}.epoch"], every=1)
    if key[0] == "ccws":
        for name in HOOK_METHODS:
            setattr(controller, name,
                    sampled(getattr(controller, name),
                            HOT.cells["baselines.hook"]))


def timed_job(kernel, key, scale, sim, tracer):
    """One traced ``build_workload -> make_controller -> run_kernel``.

    Returns ``(result, seconds, record)`` where ``seconds`` covers the
    same calls the engine's ``execute_job`` times, and ``record`` is the
    job's root span with the per-layer figures of the job attached.
    ``compute_energy`` is then re-invoked on the result and timed as
    the power layer.
    """
    from repro.engine.jobs import make_controller
    from repro.power.energy_model import compute_energy
    from repro.sim import run_kernel
    from repro.workloads import build_workload, kernel_by_name

    clock = time.perf_counter
    layer = controller_layer(key)
    t0 = clock()
    workload = build_workload(kernel_by_name(kernel), scale=scale,
                              seed=sim.seed)
    t1 = clock()
    controller = make_controller(key, sim.equalizer)
    instrument_controller(controller, key)
    t2 = clock()
    before = HOT.snapshot()
    result = run_kernel(workload, sim, controller=controller)
    t3 = clock()
    hot = HOT.delta(before)
    again = compute_energy(result.result, sim.power, sim.gpu)
    t4 = clock()
    if again.energy_j != result.energy_j:
        raise RuntimeError(f"compute_energy is not repeatable on "
                           f"{kernel}/{key}")
    root = tracer.add("job", "bench", t0, t4,
                      ident=f"{kernel}/{list(key)}",
                      ticks=result.ticks, hooked=key[0] == "ccws",
                      seconds=t3 - t0)
    tracer.add("workloads.build", "workloads", t0, t1, parent=root["id"])
    tracer.add(f"{layer}.make_controller", layer, t1, t2,
               parent=root["id"])
    tracer.add("sim.run_kernel", "sim", t2, t3, parent=root["id"],
               acc={name: s for name, (_, s) in hot.items() if s},
               calls={name: c for name, (c, _) in hot.items() if c})
    tracer.add("power.compute_energy", "power", t3, t4,
               parent=root["id"])
    return result, t3 - t0, root


# -- engine worker side (sweep-cold, serve-dup) ---------------------------

#: Directory the traced engine workers append their spans to, one
#: JSON-lines file per worker process.  Set before the pool forks.
WORKER_SPAN_DIR = None


def traced_execute_job(kernel, key, scale, sim):
    """Drop-in for ``repro.engine.executor.execute_job`` that traces.

    Returns the ``(result, seconds)`` pair the engine expects and
    appends the job's spans to this worker's span file, tagged with the
    job's content digest so the benchmark can join them to requests.
    """
    from repro.engine.fingerprint import job_digest
    from repro.engine.jobs import Job
    from repro.workloads import kernel_by_name

    tracer = Tracer()
    result, seconds, root = timed_job(kernel, key, scale, sim, tracer)
    root["ident"] = job_digest(Job(kernel=kernel, key=tuple(key)),
                               kernel_by_name(kernel), sim, scale)
    if WORKER_SPAN_DIR is not None:
        path = os.path.join(WORKER_SPAN_DIR, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    return result, seconds


def read_worker_spans(directory):
    spans = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("worker-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as handle:
                spans.extend(json.loads(line) for line in handle)
    return spans


def wrap_timed(obj, name, cell):
    """Time every call of ``obj.name`` into ``cell`` (on the instance)."""
    setattr(obj, name, sampled(getattr(obj, name), cell, every=1))


def cell_seconds(cell):
    return cell[2] / 1e9


# -- analysis --------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, extra_children=None):
    """Per-layer self time over a list of spans.

    A span's children are the spans naming it as parent, plus any the
    caller adds through ``extra_children`` (``{span id: [spans]}``) for
    work another process did on the span's behalf.  Accumulator time
    inside a span is attributed to the accumulator's own layer.
    """
    children = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    for span_id, extra in (extra_children or {}).items():
        children.setdefault(span_id, []).extend(extra)
    layers = {}
    for span in spans:
        kids = children.get(span["id"], [])
        covered = _covered([(k["start"], k["end"]) for k in kids],
                           span["start"], span["end"])
        acc = span.get("acc") or {}
        own = span["end"] - span["start"] - covered - sum(acc.values())
        layers[span["layer"]] = layers.get(span["layer"], 0.0) + own
        for name, seconds in acc.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def job_layer_totals(spans):
    """Sums over job spans: ticks, run time and hot-path counts."""
    out = {"ticks": 0, "run_s": 0.0, "build_s": 0.0,
           "energy_s": 0.0, "hooked_ticks": 0, "hooked_s": 0.0,
           "hookfree_ticks": 0, "hookfree_s": 0.0, "calls": {},
           "acc": {}}
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        name = span["name"]
        if name == "job":
            out["ticks"] += span["ticks"]
        elif name == "workloads.build":
            out["build_s"] += span["end"] - span["start"]
        elif name == "power.compute_energy":
            out["energy_s"] += span["end"] - span["start"]
        elif name == "sim.run_kernel":
            dur = span["end"] - span["start"]
            out["run_s"] += dur
            root = by_id[span["parent"]]
            kind = "hooked" if root["hooked"] else "hookfree"
            out[f"{kind}_ticks"] += root["ticks"]
            out[f"{kind}_s"] += dur
            for key, value in span.get("calls", {}).items():
                out["calls"][key] = out["calls"].get(key, 0) + value
            for key, value in span.get("acc", {}).items():
                out["acc"][key] = out["acc"].get(key, 0.0) + value
    return out
