"""Row-order guard: job order must not move sim-mix's ``ticks_per_s``.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs sim-mix (seed 1, ``run_seconds`` of ``BENCHMARK.json``) with its
job lists in plan order and in reverse order, each in a fresh
interpreter, alternating which goes first, and compares the medians of
``ticks_per_s``.  It passes when they differ by less than the metric's
bound in ``BENCHMARK.json``.  This guards against the skew of timing
many rows in one process, where a row reads slower or faster depending
on what ran before it.  Exits 0 on pass, 1 on fail.
"""

import statistics
import sys

import run

#: Forward/reverse pairs of runs.
PAIRS = 3
SEED = 1


def main():
    spec = run.load_spec()
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}[
        "ticks_per_s"]
    rates = {False: [], True: []}
    for pair in range(PAIRS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        for reverse in order:
            figures = run.run_workload("sim-mix", SEED, spec["run_seconds"],
                                       0, reverse=reverse)
            if figures["failed"] or figures["errors"]:
                print(f"error: sim-mix outputs failed their checks: "
                      f"{figures['errors'][:3]}", file=sys.stderr)
                return 1
            rate = figures["e2e"]["ticks_per_s"]
            rates[reverse].append(rate)
            print(f"pair {pair} {'reverse' if reverse else 'forward'}: "
                  f"ticks_per_s {rate:.1f}")
    forward = statistics.median(rates[False])
    backward = statistics.median(rates[True])
    shift = abs(backward - forward) / forward
    verdict = "PASS" if shift < bound else "FAIL"
    print(f"{verdict}: forward median {forward:.1f}, reverse median "
          f"{backward:.1f}, shift {shift:.4f} (bound {bound})")
    return 0 if shift < bound else 1


if __name__ == "__main__":
    sys.exit(main())
