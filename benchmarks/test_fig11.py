"""Paper shape check: regenerate Figure 11 (adaptiveness).

Shape targets: across bfs-2's invocations Equalizer lowers its block
count for the small-frontier invocations and raises it again (with the
paper's 3-epoch lag); within spmv, Equalizer raises concurrency when
waiting warps dominate while DynCTA keeps cutting.
"""

from repro.experiments import fig11_adaptiveness


def test_fig11(cache):
    data = fig11_adaptiveness.run(cache)

    a = data["fig11a"]
    blocks = a["equalizer_blocks"]
    early = sum(blocks[i] for i in range(0, 6)) / 6
    mid = sum(blocks[i] for i in range(7, 10)) / 3
    assert mid < early - 0.5          # adapts down for small frontiers
    assert blocks[11] > mid           # and back up afterwards
    # Equalizer lands between always-3-blocks and the oracle.
    norm = a["static"]["normaliser"]
    assert a["equalizer_total"] / norm < 1.0
    assert a["equalizer_total"] >= a["optimal_total"]

    b = data["fig11b"]
    eq_blocks = [p["blocks"] for p in b["equalizer"]]
    dyn_blocks = [p["blocks"] for p in b["dyncta"]]
    # Equalizer's trough stays above DynCTA's collapse.
    assert min(eq_blocks[:-2]) > min(dyn_blocks[:-1]) - 1.0
    # Equalizer raises concurrency again within the run.
    trough = min(range(len(eq_blocks) - 2),
                 key=lambda i: eq_blocks[i])
    assert max(eq_blocks[trough:-2], default=0) >= eq_blocks[trough]
    print()
    print(fig11_adaptiveness.report(data))
