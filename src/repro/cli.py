"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro tables
    python -m repro fig7 [--scale 0.5] [--kernels cutcp,kmn]
    python -m repro headline --json results/
    python -m repro all --jobs 4

Regeneration is a plan/execute/render pipeline: the experiment modules
declare the (kernel, controller) simulation jobs they need, the engine
resolves them against its on-disk cache and fans the misses out over
``--jobs`` worker processes, and only then do the harnesses render
their reports from the warm cache.  The report text is therefore
byte-identical whatever ``--jobs`` is; the engine's progress summary
goes to stderr.
"""

import argparse
import os
import sys

from .engine import collect_jobs, dump_json
from .engine.__main__ import add_engine_arguments, build_engine
from .errors import ReproError
from .experiments import common
from .experiments import (ablations, boost_comparison,
                          concurrent_kernels, fig1_sweeps,
                          fig2_variation, fig4_warp_states,
                          fig5_memory_blocks, fig7_performance_mode,
                          fig8_energy_mode, fig9_frequency_distribution,
                          fig10_cache_comparison, fig11_adaptiveness,
                          headline, motivation, per_sm_vrm, tables)

EXPERIMENTS = {
    "tables": tables,
    "fig1": fig1_sweeps,
    "fig2": fig2_variation,
    "fig4": fig4_warp_states,
    "fig5": fig5_memory_blocks,
    "fig7": fig7_performance_mode,
    "fig8": fig8_energy_mode,
    "fig9": fig9_frequency_distribution,
    "fig10": fig10_cache_comparison,
    "fig11": fig11_adaptiveness,
    "headline": headline,
    "ablations": ablations,
    "motivation": motivation,
    "boost": boost_comparison,
    "persm": per_sm_vrm,
    "concurrent": concurrent_kernels,
}

#: Experiments that accept a kernel subset.
_KERNEL_AWARE = {"fig1", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10",
                 "headline", "boost"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equalizer-repro",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which table/figure to regenerate")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (iterations "
                             "multiplier; <1 for quick runs)")
    parser.add_argument("--kernels", type=str, default=None,
                        help="comma-separated kernel subset")
    parser.add_argument("--json", type=str, default=None, metavar="DIR",
                        help="also dump each experiment's raw data as "
                             "<DIR>/<experiment>.json")
    add_engine_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    cache = common.RunCache(engine=build_engine(args, args.scale))
    kernels = args.kernels.split(",") if args.kernels else None
    names = ([args.experiment] if args.experiment != "all"
             else sorted(EXPERIMENTS))

    # Plan: union of the jobs the requested experiments declare, then
    # resolve them (cache hits + parallel fan-out) before rendering.
    plan = collect_jobs([EXPERIMENTS[n] for n in names],
                        kernels=kernels, sim=cache.sim)
    if plan:
        report = cache.execute(plan)
        print(report.summary(), file=sys.stderr)
        for failure in report.failures:
            print(f"FAILED {failure.job.label()} "
                  f"({failure.attempts} attempts):\n{failure.error}",
                  file=sys.stderr)
        if report.failures:
            return 1

    for name in names:
        module = EXPERIMENTS[name]
        if name == "tables":
            data = module.run()
        elif name == "ablations":
            data = module.run(kernels, scale=args.scale)
        elif name == "motivation":
            data = module.run(cache.sim, scale=args.scale)
        elif name == "persm":
            data = module.run(kernels, scale=args.scale, sim=cache.sim)
        elif name == "concurrent":
            data = module.run(scale=args.scale, sim=cache.sim)
        elif name in _KERNEL_AWARE:
            data = module.run(cache, kernels)
        else:
            data = module.run(cache)
        print(module.report(data))
        print()
        if args.json:
            os.makedirs(args.json, exist_ok=True)
            path = os.path.join(args.json, f"{name}.json")
            with open(path, "w") as f:
                dump_json(data, f, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
