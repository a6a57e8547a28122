"""Ablations of Equalizer's design choices.

The paper fixes several constants after internal sensitivity studies
(Section V-A: the 4096-cycle epoch "matches the macro level behavior
and is not spurious"; Section IV-B: the 3-epoch hysteresis "removes
spurious temporal changes"; Section III-A: the Xmem>2 bandwidth
saturation threshold).  These harnesses re-run those studies on the
reproduction so the design points can be inspected rather than taken
on faith.

Each ablation returns, per setting, the geomean speedup (performance
mode) and mean energy savings (energy mode) over a kernel subset that
exercises the mechanism the constant controls.
"""

from dataclasses import replace
from typing import Dict, List, Optional

from ..config import EqualizerConfig, SimConfig
from ..core import EqualizerController
from ..sim import run_kernel
from ..workloads import build_workload, kernel_by_name
from .common import EXPERIMENT_EQUALIZER_CONFIG, geomean
from .report import format_table

#: Kernels whose behaviour is sensitive to decision timing: a cache
#: kernel that needs several block steps, a phase-changing kernel, a
#: memory kernel that must not be over-reduced, a compute kernel.
ABLATION_KERNELS = ["kmn", "spmv", "cfd-1", "cutcp"]


def _run_pair(eq_config: EqualizerConfig, kernels: List[str],
              scale: float = 1.0, seed: int = 2014) -> Dict[str, float]:
    """Speedup (perf mode) and savings (energy mode) for one config."""
    sim = SimConfig(equalizer=eq_config)
    speedups = []
    savings = []
    for name in kernels:
        spec = kernel_by_name(name)
        base = run_kernel(build_workload(spec, scale=scale, seed=seed),
                          sim)
        perf = run_kernel(
            build_workload(spec, scale=scale, seed=seed), sim,
            controller=EqualizerController("performance",
                                           config=eq_config))
        energy = run_kernel(
            build_workload(spec, scale=scale, seed=seed), sim,
            controller=EqualizerController("energy", config=eq_config))
        speedups.append(perf.performance_vs(base))
        savings.append(energy.energy_savings_vs(base))
    return {
        "speedup_gmean": geomean(speedups),
        "savings_mean": sum(savings) / len(savings),
    }


def epoch_size(kernels: Optional[List[str]] = None,
               epochs: Optional[List[int]] = None,
               scale: float = 1.0) -> Dict[int, Dict]:
    """Sensitivity to the decision-epoch length.

    Short epochs react faster but measure noisier counter averages;
    long epochs are stable but slow to exploit phases.  The paper
    settled on 4096 cycles (32 samples) for full-length kernels; the
    scaled suite uses 2048.
    """
    kernels = kernels or ABLATION_KERNELS
    epochs = epochs or [512, 1024, 2048, 4096]
    base = EXPERIMENT_EQUALIZER_CONFIG
    out = {}
    for cycles in epochs:
        cfg = replace(base, epoch_cycles=cycles,
                      sample_interval=max(1, cycles // 32))
        out[cycles] = _run_pair(cfg, kernels, scale)
    return out


def hysteresis_depth(kernels: Optional[List[str]] = None,
                     depths: Optional[List[int]] = None,
                     scale: float = 1.0) -> Dict[int, Dict]:
    """Sensitivity to the consecutive-epoch block hysteresis.

    Depth 1 lets a single noisy epoch pause a block; the paper's 3
    filters spurious changes at the cost of reaction latency.
    """
    kernels = kernels or ABLATION_KERNELS
    depths = depths or [1, 2, 3, 5]
    out = {}
    for depth in depths:
        cfg = replace(EXPERIMENT_EQUALIZER_CONFIG, block_hysteresis=depth)
        out[depth] = _run_pair(cfg, kernels, scale)
    return out


def xmem_threshold(kernels: Optional[List[str]] = None,
                   thresholds: Optional[List[float]] = None,
                   scale: float = 1.0) -> Dict[float, Dict]:
    """Sensitivity to the bandwidth-saturation threshold (paper: 2).

    Below it, a transient Xmem warp would flag saturation (the paper's
    L1/L2-hit caveat); far above it, memory kernels stop receiving
    MemAction.
    """
    kernels = kernels or ABLATION_KERNELS
    thresholds = thresholds or [0.5, 1.0, 2.0, 4.0, 8.0]
    out = {}
    for thr in thresholds:
        cfg = replace(EXPERIMENT_EQUALIZER_CONFIG,
                      xmem_saturation_threshold=thr)
        out[thr] = _run_pair(cfg, kernels, scale)
    return out


def run(kernels: Optional[List[str]] = None,
        scale: float = 1.0) -> Dict[str, Dict]:
    return {
        "epoch_size": epoch_size(kernels, scale=scale),
        "hysteresis": hysteresis_depth(kernels, scale=scale),
        "xmem_threshold": xmem_threshold(kernels, scale=scale),
    }


def report(data: Dict[str, Dict]) -> str:
    sections = []
    titles = {
        "epoch_size": "Ablation: decision epoch length (cycles)",
        "hysteresis": "Ablation: block-change hysteresis (epochs)",
        "xmem_threshold": "Ablation: Xmem saturation threshold (warps)",
    }
    for key, title in titles.items():
        rows = [(setting, f"{v['speedup_gmean']:.3f}",
                 f"{v['savings_mean'] * 100:+.1f}%")
                for setting, v in sorted(data[key].items())]
        sections.append(format_table(
            ("Setting", "PerfMode speedup", "EnergyMode savings"),
            rows, title=title))
    return "\n\n".join(sections)
