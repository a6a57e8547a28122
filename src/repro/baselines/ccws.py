"""CCWS (Rogers et al. [26]): cache-conscious wavefront scheduling.

CCWS detects *lost intra-warp locality* with per-warp victim tag
arrays: when a warp misses the L1 on a line whose tag sits in its own
victim array, a line it recently owned was evicted by other warps.
Each such event raises the warp's locality score.  Warps with high
scores are protected: as the total score grows, fewer warps are allowed
to issue to the memory pipeline, shrinking the set of warps competing
for the cache.  Scores decay over time, re-opening the throttle when
locality stops being lost.

This reimplementation keeps the published structure (victim tags,
additive score gain, linear decay, score-proportional throttling) at
the granularity our simulator exposes: gating happens at LSU issue via
the ``can_issue_mem`` hook, and scores are re-evaluated every epoch.
The paper's critique -- sensitivity to victim-array size and cutoffs,
and weak behaviour on mildly cache-sensitive kernels -- carries over.
"""

from ..core.controller import Controller
from ..errors import ConfigError
from ..sim.cache import VictimTagArray
from ..sim.warp import W_DONE


class CCWSController(Controller):
    """Victim-tag locality scoring with warp throttling."""

    mode = "ccws"

    def __init__(self, vta_entries: int = 8, score_gain: float = 24.0,
                 score_decay: float = 0.75, score_per_warp: float = 256.0,
                 min_warps: int = 6) -> None:
        if vta_entries < 1:
            raise ConfigError("vta_entries must be >= 1")
        if score_gain <= 0:
            raise ConfigError("score_gain must be positive")
        if not 0.0 <= score_decay < 1.0:
            raise ConfigError("score_decay must lie in [0, 1)")
        if score_per_warp <= 0:
            raise ConfigError("score_per_warp must be positive")
        if min_warps < 1:
            raise ConfigError("min_warps must be >= 1")
        self.vta_entries = vta_entries
        self.score_gain = score_gain
        self.score_decay = score_decay
        self.score_per_warp = score_per_warp
        self.min_warps = min_warps
        # Per-SM state, keyed by sm_id.
        self._vtas = []        # dict: warp -> VictimTagArray
        self._scores = []      # dict: warp -> float
        self._owners = []      # dict: line -> warp
        self._allowed = []     # set of warps permitted to issue loads

    def attach(self, gpu) -> None:
        n = len(gpu.sms)
        self._vtas = [dict() for _ in range(n)]
        self._scores = [dict() for _ in range(n)]
        self._owners = [dict() for _ in range(n)]
        self._allowed = [None] * n  # None => allow everyone
        for sm in gpu.sms:
            sm.hooks = self

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------
    def can_issue_mem(self, sm, warp) -> bool:
        allowed = self._allowed[sm.sm_id]
        return allowed is None or warp in allowed

    def on_l1_miss(self, sm, warp, line: int) -> None:
        i = sm.sm_id
        vta = self._vtas[i].get(warp)
        if vta is None:
            vta = self._vtas[i][warp] = VictimTagArray(self.vta_entries)
        if vta.hit(line):
            scores = self._scores[i]
            scores[warp] = scores.get(warp, 0.0) + self.score_gain
        self._owners[i][line] = warp

    def on_l1_evict(self, sm, line: int) -> None:
        i = sm.sm_id
        owner = self._owners[i].pop(line, None)
        if owner is None:
            return
        vta = self._vtas[i].get(owner)
        if vta is None:
            vta = self._vtas[i][owner] = VictimTagArray(self.vta_entries)
        vta.insert(line)

    # ------------------------------------------------------------------
    # Epoch re-evaluation
    # ------------------------------------------------------------------
    def on_epoch(self, gpu, per_sm) -> None:
        for sm in gpu.sms:
            i = sm.sm_id
            scores = self._scores[i]
            live = [w for b in sm.blocks for w in b.warps
                    if b.remaining > 0]
            # Drop all state of retired warps, so it does not keep
            # them (and their freed blocks) alive.  A retired warp
            # never misses again: its victim tags are never read, and
            # only live warps' scores are summed or ranked below.
            vtas = self._vtas[i]
            for warp in [w for w in vtas if w.state == W_DONE]:
                del vtas[warp]
            owners = self._owners[i]
            for line in [ln for ln, w in owners.items()
                         if w.state == W_DONE]:
                del owners[line]
            # Decay the rest.
            for warp in list(scores):
                if warp.state == W_DONE:
                    del scores[warp]
                    continue
                scores[warp] *= self.score_decay
                if scores[warp] < 1.0:
                    del scores[warp]
            total = sum(scores.get(w, 0.0) for w in live)
            n_live = len(live)
            if n_live == 0 or total <= 0.0:
                self._allowed[i] = None
                continue
            throttled = int(total / self.score_per_warp)
            n_allowed = max(self.min_warps, n_live - throttled)
            if n_allowed >= n_live:
                self._allowed[i] = None
                continue
            # Protect the warps losing the most locality.
            ranked = sorted(live, key=lambda w: scores.get(w, 0.0),
                            reverse=True)
            self._allowed[i] = set(ranked[:n_allowed])
