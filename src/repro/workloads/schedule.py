"""Draw schedules: every random draw a warp program makes, made up front.

A warp's instruction stream has three random inputs, all drawn from
CPython's Mersenne Twister:

* the ALU-run jitter, one ``_randbelow`` at each iteration start of a
  phase with ``alu_jitter > 0``;
* the store coin, one ``random()`` at each memory access of a phase
  with ``store_fraction > 0`` -- from the same per-warp stream as the
  jitter, so the two interleave iteration by iteration;
* the mixed address model's stream-or-working-set choice, one
  ``random()`` per access of a phase with ``stream_fraction > 0`` (on a
  working set), from the model's own per-phase stream seeded with
  :func:`mixed_seed`.

None of them depends on anything the simulator does, only on the
iteration index, so :func:`draw_schedules` makes them all when a
block's warps are built, in the order and with the calls the lazy draws used, and
packs them into one code per iteration::

    code = alu_run << 2 | store << 1 | stream

``alu_run`` is unbounded (``Phase.alu_per_mem`` has no upper limit),
so a schedule is ``bytes`` when every code fits a byte and a tuple of
ints otherwise.  The schedule is immutable: programs share it and keep
their own cursor, which is what lets
:class:`~repro.workloads.spec.SyntheticWorkload` reuse one kernel's
schedules across runs.

This module is the only place a workload draws random numbers; the
simulator and the address models never touch an RNG (a CI lint and
``tests/test_workload_program.py`` check this).
"""

import _random
from random import Random

#: ``Random.seed`` without its Python-level type dispatch.  For an int
#: seed both leave the same state, so reseeding one instance per block
#: gives each warp the stream ``Random(seed)`` would, without building
#: a new generator per warp.
_reseed = _random.Random.seed

#: Code bits below the ALU run length.
STORE_BIT = 2
STREAM_BIT = 1


def phase_bounds(phases, iterations: int):
    """End iteration (exclusive) of each phase, in absolute numbers.

    A program advances past phase ``p`` once its iteration index
    reaches ``bounds[p]``; the last bound is always ``iterations``.
    """
    if len(phases) == 1:
        return [iterations]
    bounds = []
    acc = 0.0
    for p in phases[:-1]:
        acc += p.fraction
        bounds.append(int(acc * iterations))
    bounds.append(iterations)
    return bounds


def mixed_seed(block_uid: int, warp_idx: int) -> int:
    """Seed of a warp's mixed address model (one fresh stream per phase)."""
    return block_uid * 64 + warp_idx


def draw_schedules(phases, iterations: int, block_uid: int, warps):
    """The schedules of a block's warps (see the module docstring).

    ``warps`` lists ``(warp_idx, seed)`` pairs; ``seed`` seeds that
    warp's jitter/store stream and :func:`mixed_seed` each of its mixed
    phases' address streams.  Phase ``p`` covers the iterations from
    where the previous phase stopped up to ``bounds[p]``, skipped when
    that range is empty -- the same walk ``WarpProgram.next_op`` makes.
    Returns one schedule per pair, in order.
    """
    # Per phase segment: (length, lowest ALU run, jitter span, store
    # fraction, stream fraction); the warp loop reads only these.
    segments = []
    top = 0
    i = 0
    for phase, end in zip(phases, phase_bounds(phases, iterations)):
        if i >= end:
            continue
        end = min(end, iterations)
        jitter = phase.alu_jitter
        stream = phase.stream_fraction if phase.ws_lines > 0 else 0.0
        segments.append((end - i, phase.alu_per_mem - jitter,
                         2 * jitter + 1, phase.store_fraction, stream))
        top = max(top, phase.alu_per_mem + jitter)
        i = end
    drawn = any(span > 1 or sf for _, _, span, sf, _ in segments)
    pack = bytes if top < 64 else tuple
    rng = mixed = None
    schedules = []
    for warp_idx, seed in warps:
        if drawn:
            if rng is None:
                rng = Random(seed)
                # randint(-j, j) is exactly -j + _randbelow(2j + 1)
                # (see random.Random.randrange).
                rb = rng._randbelow
                rnd = rng.random
            else:
                _reseed(rng, seed)
        codes = []
        for n, low, span, sf, stream in segments:
            if span > 1:
                if sf:
                    seg = []
                    for _ in range(n):
                        run = (low + rb(span)) << 2
                        seg.append(run | STORE_BIT if rnd() < sf
                                   else run)
                else:
                    seg = [(low + rb(span)) << 2 for _ in range(n)]
            elif sf:
                run = low << 2
                seg = [run | STORE_BIT if rnd() < sf else run
                       for _ in range(n)]
            else:
                seg = [low << 2] * n
            if stream:
                # A fresh stream per phase: each phase had its own model.
                if mixed is None:
                    mixed = Random(mixed_seed(block_uid, warp_idx))
                else:
                    _reseed(mixed, mixed_seed(block_uid, warp_idx))
                draw = mixed.random
                seg = [c | STREAM_BIT if draw() < stream else c
                       for c in seg]
            codes += seg
        schedules.append(pack(codes))
    return tuple(schedules)
