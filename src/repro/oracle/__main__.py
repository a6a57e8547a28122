"""CLI of the differential oracle (``python -m repro.oracle``).

Examples::

    # CI smoke: 25 cases, 2 minutes max, fixed seed.
    python -m repro.oracle --seed 0 --n 25 --budget 120 --jobs 4

    # Deeper nightly sweep.
    python -m repro.oracle --seed 17 --n 400 --budget 1500 --jobs 4

    # Restrict to the chip family's method-vs-fused pair.
    python -m repro.oracle --paths chip:fused,chip:method

    # Replay a dumped reproducer against the current code.
    python -m repro.oracle --replay oracle-reproducers/<file>.json

Exit status is non-zero when any divergence is found (or a replayed
reproducer still diverges), so CI jobs can gate on it directly.
"""

import argparse
import sys

from .paths import all_paths
from .runner import (DEFAULT_DUMP_DIR, check_pair, load_reproducer,
                     run_oracle)


def _parse_budget(text):
    if text is None:
        return None
    cleaned = text.strip().lower()
    if cleaned.endswith("s"):
        cleaned = cleaned[:-1]
    try:
        budget = float(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid budget {text!r}; use seconds, e.g. 120 or 120s")
    if budget <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return budget


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.oracle",
        description="Differential testing of the compiled cycle-kernel "
                    "execution paths.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed of the sweep (default 0)")
    parser.add_argument("--n", type=int, default=50,
                        help="number of fuzzed cases (default 50)")
    parser.add_argument("--paths", type=str, default=None,
                        help="comma-separated path ids to run "
                             "(default: all)")
    parser.add_argument("--budget", type=_parse_budget, default=None,
                        metavar="SECONDS",
                        help="wall-time budget, e.g. 120 or 120s")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes (default 1)")
    parser.add_argument("--dump-dir", type=str,
                        default=DEFAULT_DUMP_DIR,
                        help="where divergence reproducers are written")
    parser.add_argument("--no-shrink", action="store_true",
                        help="dump divergences unshrunk")
    parser.add_argument("--list-paths", action="store_true",
                        help="print the discovered path matrix and exit")
    parser.add_argument("--replay", type=str, default=None,
                        metavar="FILE",
                        help="replay one dumped reproducer and exit")
    args = parser.parse_args(argv)

    if args.list_paths:
        for path in all_paths():
            print(path)
        return 0

    if args.replay is not None:
        case, (ref_path, path) = load_reproducer(args.replay)
        diffs = check_pair(case, ref_path, path)
        if diffs:
            print(f"{args.replay}: {path} still diverges from "
                  f"{ref_path}:")
            for line in diffs:
                print(f"  {line}")
            return 1
        print(f"{args.replay}: {path} and {ref_path} agree")
        return 0

    if args.n < 1:
        parser.error("--n must be >= 1")
    paths = (None if args.paths is None
             else [p.strip() for p in args.paths.split(",") if p.strip()])
    report = run_oracle(
        seed=args.seed, n=args.n, paths=paths, budget_s=args.budget,
        jobs=args.jobs, dump_dir=args.dump_dir,
        do_shrink=not args.no_shrink, log=print)
    print(report.summary())
    for finding in report.findings:
        print(f"  DIVERGENCE {finding.label()}")
        for line in finding.detail[:5]:
            print(f"    {line}")
        if finding.reproducer_path:
            print(f"    reproducer: {finding.reproducer_path}")
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
