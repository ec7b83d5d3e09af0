"""Shared plumbing for the benchmark scripts: ledger emission, logs, and
the machine-speed probe.

Every headline bench writes its payload JSON as before (the perf
trajectory the repo commits) and, with ``--ledger``, *also* appends one
provenance-stamped RunRecord whose ``values`` are the payload's headline
metrics — extracted by the same :func:`repro.obs.regress.headline_values`
adapter ``ceresz report`` uses to load committed baselines, so the two
sides of every comparison agree on names by construction.

Status lines go through :mod:`repro.obs.log` (machine-parseable
``key=value`` records on stderr) instead of bare prints; the human
results table stays on stdout untouched.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.obs.ledger import emit  # noqa: E402
from repro.obs.log import get_logger  # noqa: E402
from repro.obs.regress import headline_values  # noqa: E402

__all__ = [
    "REFERENCE_CAL_S",
    "add_ledger_flag",
    "calibration_s",
    "emit_bench_record",
    "get_logger",
]

#: The machine-speed probe's time on an unloaded 2-vCPU Xeon VM, the same
#: reference the repository benchmark (``perfbench/run.py``) scales to: a
#: call timed while :func:`calibration_s` took ``c`` seconds counts as
#: ``REFERENCE_CAL_S / c`` times its wall time.
REFERENCE_CAL_S = 0.006


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop, the machine-speed probe.

    A copy of ``perfbench.run.calibration_s``. On a shared VM other
    tenants slow this process for tens of seconds at a time, by up to 2x;
    the loop runs no ``repro`` code, so a program change cannot move it,
    while contention slows it together with the timed call.
    """
    t0 = time.perf_counter()
    d = {}
    for i in range(40000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return time.perf_counter() - t0


def add_ledger_flag(parser) -> None:
    parser.add_argument(
        "--ledger", nargs="?", const=True, default=None, metavar="PATH",
        help="append this run's headline metrics to the run ledger "
        "(default path .ceresz/ledger.jsonl, or $CERESZ_LEDGER; "
        "`ceresz report --gate` analyzes it)",
    )


def emit_bench_record(
    ledger, payload: dict, *, config: dict, wall_s: float,
    artifacts: dict | None = None,
):
    """One RunRecord for a finished bench run; no-op when ledger is off."""
    if ledger is None:
        return None
    record = emit(
        ledger,
        "bench",
        payload["benchmark"],
        config,
        timings={"wall_s": wall_s},
        values=headline_values(payload),
        artifacts=dict(artifacts or {}),
    )
    get_logger(f"bench.{payload['benchmark']}").info(
        "ledger_appended",
        fingerprint=record.fingerprint,
        metrics=len(record.values),
    )
    return record
