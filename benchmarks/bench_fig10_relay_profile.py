"""Fig 10: (a) per-PE relay time vs columns; (b) execution time vs length.

(a) cross-checks Eq. 2's TC*C1 line against the discrete-event simulator
running the actual Fig 9 relay program on a 1-row mesh (QMCPack data).
(b) is Eq. 3's C/pl + (pl-1)*C2 curve.
"""

import numpy as np

from benchmarks.conftest import run_artifact
from repro.harness.figures import plan_placement_summary
from repro.wse.cost import PAPER_CYCLE_MODEL


def test_fig10(benchmark, record_result):
    profile, text = run_artifact(benchmark, "fig10")
    placement = plan_placement_summary(
        strategy="multi", rows=1, cols=4, blocks=8
    )
    record_result("fig10_relay_profile", text + "\n\n" + placement)
    assert "strategy=multi" in placement

    # The Fig 9 relay schedule: 2 rounds, PE i forwards TC-1-i blocks each.
    for tc, relayed in zip(profile.cols_swept, profile.blocks_relayed):
        assert relayed == tc * (tc - 1)

    # (a) both series are linear in TC.
    sim = np.asarray(profile.relay_cycles_simulated)
    cols = np.asarray(profile.cols_swept, dtype=float)
    slope = np.polyfit(cols, sim, 1)[0]
    assert abs(slope - PAPER_CYCLE_MODEL.c1_relay) < 0.1 * (
        PAPER_CYCLE_MODEL.c1_relay
    )
    # (b) execution time falls ~1/pl before the forwarding term bites.
    ex = profile.execution_cycles_per_pe
    assert ex[1] < ex[0] and ex[2] < ex[1]
