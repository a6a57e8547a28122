"""Base class for runtime controllers plugged into the GPU.

A controller gets a decision slot at every epoch boundary and may
adjust per-SM concurrency (``sm.set_target_blocks``) and the global
operating point (``gpu.set_vf``).  Controllers that need fine-grained
scheduler hooks (CCWS) install themselves as ``sm.hooks``.

Every compiled run loop checks ``sm.hooks`` at each hook site, so
hooks need not be installed at ``attach`` time; any controller
callback may install or remove them.
"""


class Controller:
    """No-op controller; subclass and override what you need."""

    #: Human-readable label used in experiment reports.
    mode = "baseline"

    def attach(self, gpu) -> None:
        """Called once when the GPU is constructed."""

    def on_invocation_start(self, gpu, invocation: int) -> None:
        """Called before each kernel invocation launches blocks."""

    def on_epoch(self, gpu, per_sm) -> None:
        """Called at every epoch boundary.

        ``per_sm`` is a list with one ``(active, waiting, xmem, xalu)``
        tuple of per-sample averages for each SM, already reset for the
        next epoch.
        """

    def on_run_end(self, gpu) -> None:
        """Called after the last invocation completes."""

    # -- optional scheduler hooks (install via ``sm.hooks``) -----------
    def can_issue_mem(self, sm, warp) -> bool:  # pragma: no cover
        """Gate a warp's access to the LSU (CCWS-style throttling)."""
        return True

    def on_l1_miss(self, sm, warp, line: int) -> None:  # pragma: no cover
        """Observe an L1 miss (before the line is requested)."""

    def on_l1_evict(self, sm, line: int) -> None:  # pragma: no cover
        """Observe an L1 eviction caused by a fill."""
