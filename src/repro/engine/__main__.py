"""Engine CLI: durable sweeps, regression guard, cache inspection.

Usage::

    python -m repro.engine sweep --experiments fig7,fig8 --scale 0.25
    python -m repro.engine sweep --resume --ledger .repro-cache/ledger.sqlite
    python -m repro.engine jobs --ledger .repro-cache/ledger.sqlite
    python -m repro.engine requeue --ledger ... --states quarantined
    python -m repro.engine solo --kernel cutcp --key '["baseline"]'
    python -m repro.engine check --against results/reference.json
    python -m repro.engine check --against results/reference.json --update
    python -m repro.engine cache-stats
"""

import argparse
import json
import os
import sys

from ..errors import EngineError, ReproError
from . import check as check_mod
from .cache import DEFAULT_CACHE_DIR, DiskCache
from .executor import (DEFAULT_LEASE, DEFAULT_MAX_ATTEMPTS,
                       DEFAULT_TIMEOUT, Engine, execute_job)
from .jobs import collect_jobs
from .store import JobStore


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk run cache")
    parser.add_argument("--cache-dir", type=str,
                        default=DEFAULT_CACHE_DIR, metavar="DIR",
                        help="on-disk run cache location")
    parser.add_argument("--timeout", type=float,
                        default=DEFAULT_TIMEOUT, metavar="S",
                        help="per-job wall-clock budget; hung workers "
                             "are killed past it (default: "
                             f"{DEFAULT_TIMEOUT:.0f}s)")
    parser.add_argument("--max-attempts", type=int,
                        default=DEFAULT_MAX_ATTEMPTS, metavar="N",
                        help="attempt budget per job before it is "
                             "failed/quarantined (default: "
                             f"{DEFAULT_MAX_ATTEMPTS})")


def _build_engine(args, scale: float):
    from ..experiments.common import default_sim
    return Engine(sim=default_sim(), scale=scale,
                  jobs=max(1, args.jobs), cache_dir=args.cache_dir,
                  use_cache=not args.no_cache,
                  timeout=args.timeout,
                  max_attempts=args.max_attempts,
                  lease_s=getattr(args, "lease", DEFAULT_LEASE))


def _ledger_path(args) -> str:
    return args.ledger or os.path.join(args.cache_dir,
                                       "ledger.sqlite")


def _open_ledger(args) -> JobStore:
    """Open an existing ledger, loudly refusing anything that isn't one.

    ``create=False`` makes a nonexistent path, a directory, an empty
    file, or a non-ledger database an :class:`EngineError` (exit 2)
    naming the path -- never a silently created empty ledger reporting
    zero jobs.
    """
    path = _ledger_path(args)
    if not os.path.exists(path):
        raise EngineError(f"no job ledger at {path} (run 'sweep' "
                          "first, or pass --ledger)")
    return JobStore(path, create=False)


def run_sweep(args) -> int:
    from ..cli import EXPERIMENTS

    names = (sorted(EXPERIMENTS) if args.experiments in (None, "all")
             else args.experiments.split(","))
    for name in names:
        if name not in EXPERIMENTS:
            raise EngineError(f"unknown experiment {name!r}")
    kernels = args.kernels.split(",") if args.kernels else None

    engine = _build_engine(args, scale=args.scale)
    plan = collect_jobs([EXPERIMENTS[n] for n in names],
                        kernels=kernels, sim=engine.sim)
    if not plan:
        print("sweep: nothing to do (no experiment declares jobs)",
              file=sys.stderr)
        return 0

    path = _ledger_path(args)
    if not args.resume:
        # A fresh sweep starts a fresh ledger; --resume continues the
        # existing one (reaping claims stranded by a dead driver).
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(path + suffix)
            except FileNotFoundError:
                pass
    store = JobStore(path)
    try:
        report = engine.execute_durable(plan, store,
                                        workers=max(1, args.jobs))
        counts = store.counts()
    finally:
        store.close()
    states = ", ".join(f"{counts[s]} {s}" for s in
                       ("done", "errored", "quarantined") if counts[s])
    print(f"{report.summary()} [ledger: {states or '0 done'}]",
          file=sys.stderr)
    for failure in report.failures:
        print(f"FAILED {failure.job.label()} "
              f"({failure.attempts} attempts):\n{failure.error}",
              file=sys.stderr)
    return 1 if report.failures else 0


def run_jobs(args) -> int:
    store = _open_ledger(args)
    try:
        counts = store.counts()
        quarantined = store.records(states=("quarantined",))
        errored = store.records(states=("errored",))
    finally:
        store.close()
    total = sum(counts.values())
    print(f"{_ledger_path(args)}: {total} jobs")
    for state, n in counts.items():
        if n:
            print(f"  {state:12s} {n}")
    for record in errored:
        lines = (record.error or "").strip().splitlines()
        detail = lines[-1] if lines else "(no error detail)"
        print(f"  errored {record.label()} "
              f"(attempt {record.attempts}): {detail}")
    for record in quarantined:
        lines = (record.error or "").strip().splitlines()
        detail = lines[-1] if lines else "(no error detail)"
        print(f"  quarantined {record.label()} "
              f"({record.attempts} attempts): {detail}")
        if record.quarantine and record.quarantine.get("repro"):
            print(f"    repro: {record.quarantine['repro']}")
    return 0


def run_requeue(args) -> int:
    states = tuple(args.states.split(","))
    store = _open_ledger(args)
    try:
        count = store.requeue(states=states, digest=args.digest)
    finally:
        store.close()
    print(f"requeued {count} job(s) from "
          f"{'/'.join(states)} back to new")
    return 0


def run_solo(args) -> int:
    """Re-run one job inline: the quarantine-record repro path."""
    from ..experiments.common import default_sim
    try:
        key = tuple(json.loads(args.key))
    except (json.JSONDecodeError, TypeError):
        raise EngineError(f"--key must be a JSON list, got "
                          f"{args.key!r}")
    result, seconds = execute_job(args.kernel, key, args.scale,
                                  default_sim())
    print(f"{args.kernel}/{'-'.join(str(p) for p in key)}: "
          f"{result.ticks} ticks, {result.seconds * 1e3:.3f} ms "
          f"simulated, energy {result.energy_j:.3f} J "
          f"({seconds:.2f}s wall)")
    return 0


def run_check(args) -> int:
    from ..experiments.common import RunCache

    reference = check_mod.load_reference(args.against)
    kernels = reference["kernels"] or None
    engine = _build_engine(args, scale=reference["scale"])
    cache = RunCache(engine=engine)

    plan = check_mod.guard_jobs(kernels=kernels, sim=cache.sim)
    report = cache.execute(plan)
    print(report.summary(), file=sys.stderr)
    report.raise_on_failure()

    measured = check_mod.reference_metrics(cache, kernels)
    if args.update:
        check_mod.write_reference(args.against, reference["scale"],
                                  reference["kernels"], measured)
        print(f"reference updated: {args.against}")
        return 0
    problems = check_mod.compare(measured, reference["metrics"],
                                 args.tolerance)
    checked = sum(len(section) for section in
                  reference["metrics"].values())
    if problems:
        print(f"benchmark guard FAILED ({len(problems)} of {checked} "
              f"metrics drifted):")
        for line in problems:
            print(f"  {line}")
        return 1
    print(f"benchmark guard passed: {checked} metrics within "
          f"{args.tolerance * 100:.0f}% of {args.against}")
    return 0


def run_cache_stats(args) -> int:
    stats = DiskCache(args.cache_dir).stats()
    print(f"{args.cache_dir}: {stats['entries']} entries, "
          f"{stats['bytes'] / 1e6:.1f} MB")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Experiment-engine utilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser(
        "sweep", help="run experiment job plans through the durable "
                      "job ledger (survives driver death; see "
                      "--resume)")
    sweep_p.add_argument("--experiments", type=str, default="all",
                         metavar="NAMES",
                         help="comma-separated experiment names "
                              "(default: all)")
    sweep_p.add_argument("--scale", type=float, default=1.0,
                         help="workload scale factor (default: 1.0)")
    sweep_p.add_argument("--kernels", type=str, default=None,
                         help="comma-separated kernel subset")
    sweep_p.add_argument("--ledger", type=str, default=None,
                         metavar="FILE",
                         help="job ledger path (default: "
                              "<cache-dir>/ledger.sqlite)")
    sweep_p.add_argument("--resume", action="store_true",
                         help="continue the existing ledger instead "
                              "of starting fresh; stranded claims "
                              "from a dead driver are reaped")
    sweep_p.add_argument("--lease", type=float, default=DEFAULT_LEASE,
                         metavar="S",
                         help="claim lease seconds; expired leases "
                              "are reaped back to new (default: "
                              f"{DEFAULT_LEASE:.0f})")
    _add_engine_flags(sweep_p)
    # A durable sweep wants headroom over the historical retry-once.
    sweep_p.set_defaults(max_attempts=3)

    jobs_p = sub.add_parser(
        "jobs", help="show ledger state counts and quarantine "
                     "records")
    jobs_p.add_argument("--ledger", type=str, default=None,
                        metavar="FILE")
    jobs_p.add_argument("--cache-dir", type=str,
                        default=DEFAULT_CACHE_DIR, metavar="DIR")

    requeue_p = sub.add_parser(
        "requeue", help="return errored/quarantined jobs to new with "
                        "a fresh attempt budget")
    requeue_p.add_argument("--ledger", type=str, default=None,
                           metavar="FILE")
    requeue_p.add_argument("--cache-dir", type=str,
                           default=DEFAULT_CACHE_DIR, metavar="DIR")
    requeue_p.add_argument("--states", type=str,
                           default="errored,quarantined",
                           help="comma-separated states to requeue")
    requeue_p.add_argument("--digest", type=str, default=None,
                           help="requeue only this digest")

    solo_p = sub.add_parser(
        "solo", help="re-run one job inline (quarantine-record "
                     "repro command)")
    solo_p.add_argument("--kernel", required=True,
                        help="Table II kernel name")
    solo_p.add_argument("--key", required=True,
                        help="controller key as a JSON list, e.g. "
                             "'[\"equalizer\", \"performance\"]'")
    solo_p.add_argument("--scale", type=float, default=1.0)

    check_p = sub.add_parser(
        "check", help="compare headline/fig7/fig8 geomeans to a "
                      "checked-in reference")
    check_p.add_argument("--against", required=True, metavar="FILE",
                         help="reference JSON (see results/)")
    check_p.add_argument("--tolerance", type=float,
                         default=check_mod.DEFAULT_TOLERANCE,
                         help="relative drift allowed per metric "
                              "(default: 0.02)")
    check_p.add_argument("--update", action="store_true",
                         help="rewrite the reference from current code")
    _add_engine_flags(check_p)

    stats_p = sub.add_parser("cache-stats",
                             help="size of the on-disk run cache")
    stats_p.add_argument("--cache-dir", type=str,
                         default=DEFAULT_CACHE_DIR, metavar="DIR")

    args = parser.parse_args(argv)
    commands = {
        "sweep": run_sweep,
        "jobs": run_jobs,
        "requeue": run_requeue,
        "solo": run_solo,
        "check": run_check,
        "cache-stats": run_cache_stats,
    }
    try:
        return commands[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
