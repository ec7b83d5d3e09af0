"""The paper's three Observations, re-derived from our measurements.

Runs under pytest-benchmark (the usual path) or standalone::

    PYTHONPATH=src python benchmarks/bench_observations.py

Both paths write the human-readable verdict table *and* a
machine-readable ``observations.json`` next to it — the JSON carries the
structured evidence dicts, and ``--ledger`` appends the holds/fails
verdicts to the run ledger as ``obs{n}.holds_ratio`` metrics so
``ceresz report`` can flag a claim that stops holding.
"""

import json
import os
import sys

if __package__ in (None, ""):  # script mode: repo root + src onto sys.path
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )

from benchmarks._benchlib import (  # noqa: E402
    add_ledger_flag,
    emit_bench_record,
    get_logger,
)
from benchmarks.conftest import RESULTS_DIR, run_artifact  # noqa: E402
from repro.harness.observations import (  # noqa: E402
    all_observations,
    render_observations,
)

LOG = get_logger("bench.observations")


def build_payload(verdicts) -> dict:
    """Machine-readable twin of the text table (and the ledger input)."""
    return {
        "benchmark": "observations",
        "verdicts": [
            {
                "observation": v.observation,
                "claim": v.claim,
                "holds": v.holds,
                "evidence": v.evidence,
            }
            for v in verdicts
        ],
    }


def write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def test_observations(benchmark, record_result, results_dir):
    verdicts, text = run_artifact(benchmark, "observations")
    record_result("observations", text)
    write_json(build_payload(verdicts), results_dir / "observations.json")
    for v in verdicts:
        assert v.holds, (v.observation, v.evidence)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json-out",
        default=os.path.join(RESULTS_DIR, "observations.json"),
        help="machine-readable verdicts (written on every run)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(RESULTS_DIR, "observations.txt"),
        help="human-readable verdict table",
    )
    add_ledger_flag(parser)
    args = parser.parse_args(argv)

    import time

    t0 = time.perf_counter()
    verdicts = all_observations()
    wall_s = time.perf_counter() - t0

    report = render_observations(verdicts)
    print(report)
    payload = build_payload(verdicts)

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(report + "\n")
    LOG.info("wrote", path=args.out)
    write_json(payload, args.json_out)
    LOG.info("wrote", path=args.json_out)
    emit_bench_record(
        args.ledger,
        payload,
        config={"bench": "observations"},
        wall_s=wall_s,
        artifacts={"json": args.json_out},
    )

    failed = [v for v in verdicts if not v.holds]
    for v in failed:
        LOG.error("gate_failed", observation=v.observation,
                  evidence=str(v.evidence))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
