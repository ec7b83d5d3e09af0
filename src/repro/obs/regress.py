"""The regression observatory: statistics and gating over ledger records.

:mod:`repro.obs.ledger` remembers what every run measured; this module
decides whether the newest numbers are *worse*. The old approach was
hand-tuned floor flags (``--min-fused-speedup 2.0``) — brittle on shared
CI runners and silent about everything without a flag. The observatory
replaces floors with **effect sizes against a named baseline**:

1. Group ledger records by config fingerprint, so only runs of the same
   resolved configuration are ever compared.
2. Summarize each metric's history with robust paired statistics:
   median, IQR, and a seeded-bootstrap 95 % confidence interval over the
   repeats (seeded so reports are reproducible).
3. Compare the newest run against a baseline — either the same
   fingerprint's prior ledger span, or a committed ``BENCH_*.json``
   headline file — and flag a regression only when the relative effect
   exceeds a **per-metric threshold**.

Thresholds are per-metric because metrics fail differently. Ratios and
makespan cycles are deterministic given the config: any drift beyond
float noise is a real change, so they gate tight
(:data:`DETERMINISTIC_THRESHOLD`). Wall-clock speedups and MB/s move
with machine load and, against committed full-run baselines, with the
``--quick`` problem size (measured: a quick host-throughput run scores
~50 % below the committed full run with zero code change), so they gate
loose against baseline files (:data:`TIMING_BASELINE_THRESHOLD`) and
moderately against same-fingerprint history
(:data:`TIMING_HISTORY_THRESHOLD`). Overhead fractions hover near zero
where relative effects explode, so they use an absolute tolerance
(:data:`OVERHEAD_ABS_TOL`).

``ceresz report`` renders the comparison; ``ceresz report --gate`` exits
nonzero on any flagged regression, which is the CI contract.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import LedgerError
from repro.obs.ledger import Ledger, RunRecord, resolve_ledger

#: Relative drop that flags a deterministic metric (ratios, makespans).
#: Quick-vs-full problem sizes move ratios ≤15 %; 25 % clears that while
#: catching any real encoder/scheduler change.
DETERMINISTIC_THRESHOLD = 0.25

#: Relative drop that flags a timing metric against a committed
#: BENCH_*.json baseline. Loose because the baseline was measured on a
#: different machine at full problem size.
TIMING_BASELINE_THRESHOLD = 0.75

#: Relative drop that flags a timing metric against same-fingerprint
#: ledger history (same machine, same problem size — a 2× slowdown is a
#: −50 % effect and must trip this).
TIMING_HISTORY_THRESHOLD = 0.35

#: Absolute tolerance for overhead fractions (e.g. observability
#: overhead 0.014 → 0.09 is +0.076, fine; → 0.20 is +0.186, flagged).
OVERHEAD_ABS_TOL = 0.10

#: Bootstrap resamples for the confidence interval.
BOOTSTRAP_RESAMPLES = 1000


# ---------------------------------------------------------------------------
# Summary statistics


@dataclass(frozen=True)
class MetricSummary:
    """Robust summary of one metric's repeats."""

    n: int
    median: float
    iqr: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "median": self.median,
            "iqr": self.iqr,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def summarize(samples, *, resamples: int = BOOTSTRAP_RESAMPLES) -> MetricSummary:
    """Median, IQR, and seeded-bootstrap 95 % CI of the median.

    The bootstrap is seeded so two reports over the same ledger print
    the same interval. With a single sample the interval collapses to
    the point — downstream comparison then relies on thresholds alone.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize zero samples")
    median = float(np.median(arr))
    if arr.size == 1:
        return MetricSummary(1, median, 0.0, median, median)
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    rng = np.random.default_rng(0)
    idx = rng.integers(0, arr.size, size=(resamples, arr.size))
    medians = np.median(arr[idx], axis=1)
    lo, hi = np.percentile(medians, [2.5, 97.5])
    return MetricSummary(int(arr.size), median, float(q3 - q1), float(lo), float(hi))


# ---------------------------------------------------------------------------
# Per-metric gate policy


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric is judged: which direction is worse, and how much
    movement in that direction counts as a regression."""

    #: "higher" means larger values are better (speedups, ratios, MB/s);
    #: "lower" means smaller is better (seconds, cycles, overheads).
    direction: str
    #: "deterministic" | "timing" | "overhead" — selects thresholds.
    kind: str
    #: Relative-effect threshold vs a committed baseline file.
    baseline_threshold: float
    #: Relative-effect threshold vs same-fingerprint ledger history.
    history_threshold: float
    #: Absolute tolerance (overhead metrics only; None otherwise).
    abs_tol: float | None = None


_DETERMINISTIC = dict(
    baseline_threshold=DETERMINISTIC_THRESHOLD,
    history_threshold=DETERMINISTIC_THRESHOLD,
)
_TIMING = dict(
    baseline_threshold=TIMING_BASELINE_THRESHOLD,
    history_threshold=TIMING_HISTORY_THRESHOLD,
)


def metric_policy(name: str) -> MetricPolicy:
    """Classify a metric by its naming convention.

    The convention is a contract shared by the bench emitters and the
    baseline adapters (:func:`headline_values`): ``*_overhead`` and
    ``*_gap`` are near-zero fractions; ``*_s`` are wall seconds;
    ``*_cycles``/``*_bytes``/``*_events`` are deterministic counts;
    ``*_speedup``/``*_mbs``/``*_gbs`` are timing-derived and
    higher-better; anything containing ``ratio`` is a deterministic
    compression ratio. Unknown names default to higher-better timing —
    the loosest judgment, so a novel metric never fails CI spuriously.
    """
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_overhead") or leaf.endswith("_gap"):
        return MetricPolicy(
            "lower", "overhead", abs_tol=OVERHEAD_ABS_TOL, **_TIMING
        )
    if leaf.endswith("_s"):
        return MetricPolicy("lower", "timing", **_TIMING)
    if leaf.endswith(("_cycles", "_bytes", "_events", "_blocks")):
        return MetricPolicy("lower", "deterministic", **_DETERMINISTIC)
    if leaf.endswith(("_speedup", "_mbs", "_gbs")):
        return MetricPolicy("higher", "timing", **_TIMING)
    if "ratio" in leaf:
        return MetricPolicy("higher", "deterministic", **_DETERMINISTIC)
    if leaf.endswith("_error"):
        return MetricPolicy("lower", "deterministic", **_DETERMINISTIC)
    return MetricPolicy("higher", "timing", **_TIMING)


# ---------------------------------------------------------------------------
# Headline adapters: bench payload / BENCH_*.json -> flat {metric: value}


def headline_values(payload: dict) -> dict:
    """Flatten a bench payload (or committed BENCH_*.json) to headline
    metrics, named under the convention :func:`metric_policy` reads.

    This one adapter serves both sides of every comparison: benches call
    it to fill their RunRecord ``values``, and the gate calls it to load
    a committed baseline — so names match by construction.
    """
    bench = payload.get("benchmark")
    if bench == "host_throughput":
        return _headline_host_throughput(payload)
    if bench == "sim_speed":
        return _headline_sim_speed(payload)
    if bench == "rate_distortion_predictors":
        return _headline_rate_distortion(payload)
    if bench == "observations":
        return _headline_observations(payload)
    # A RunRecord dict, or an unknown payload carrying explicit values.
    values = payload.get("values")
    if isinstance(values, dict):
        return {k: float(v) for k, v in values.items()}
    raise LedgerError(
        f"cannot extract headline values: unknown payload "
        f"benchmark={bench!r}"
    )


def _headline_host_throughput(payload: dict) -> dict:
    out = {}
    for profile, summary in payload.get("profiles", {}).items():
        for key in (
            "v2_over_v1_decode_speedup",
            "fused_compress_speedup",
            "fused_decompress_speedup",
        ):
            if key in summary:
                out[f"{profile}.{key}"] = float(summary[key])
        for case in summary.get("cases", []):
            out[f"{profile}.{case['name']}.ratio"] = float(case["ratio"])
            # The v1 case's decode rate is the only gate on the header
            # walk: a slower walk raises the v2-over-v1 speedup.
            out[f"{profile}.{case['name']}.decompress_mbs"] = float(
                case["decompress_mbs"]
            )
    return out


def _headline_sim_speed(payload: dict) -> dict:
    out = {}
    if payload.get("max_obs_overhead") is not None:
        out["max_obs_overhead"] = float(payload["max_obs_overhead"])
    for cfg in payload.get("configs", []):
        tag = f"{cfg['strategy']}{cfg['rows']}x{cfg['cols']}"
        optimized = cfg["optimized"]
        out[f"{tag}.makespan_cycles"] = float(optimized["makespan_cycles"])
        out[f"{tag}.wall_s"] = float(optimized["wall_s"])
        out[f"{tag}.sim_events"] = float(optimized["events"])
    for cfg in payload.get("hybrid_configs", []):
        tag = f"{cfg['strategy']}{cfg['rows']}x{cfg['cols']}"
        out[f"{tag}.hybrid_speedup"] = float(cfg["speedup_hybrid"])
        out[f"{tag}.hybrid_makespan_cycles"] = float(cfg["makespan_cycles"])
    wafer = payload.get("wafer")
    if wafer:
        out["wafer.wall_s"] = float(wafer["wall_s"])
        out["wafer.makespan_cycles"] = float(wafer["makespan_cycles"])
    return out


def _headline_rate_distortion(payload: dict) -> dict:
    out = {}
    for row in payload.get("rows", []):
        tag = f"{row['field']}.{row['predictor']}.eps{row['eps']:g}"
        out[f"{tag}.ratio"] = float(row["ratio"])
    return out


def _headline_observations(payload: dict) -> dict:
    out = {}
    for verdict in payload.get("verdicts", []):
        out[f"obs{verdict['observation']}.holds_ratio"] = float(
            bool(verdict["holds"])
        )
    return out


def load_baseline(path: str | os.PathLike) -> dict:
    """Headline metrics from a committed BENCH_*.json (or RunRecord JSON).

    A ``--quick`` payload is refused: baselines are full-size runs, and a
    quick run that overwrote its own baseline would only be compared with
    itself.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LedgerError(f"{path}: not valid JSON: {exc}") from exc
    if payload.get("quick") is True:
        raise LedgerError(
            f"{path}: a --quick run cannot be a baseline; restore the "
            f"committed full-size file"
        )
    try:
        return headline_values(payload)
    except LedgerError as exc:
        raise LedgerError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Comparison & gate


@dataclass(frozen=True)
class Finding:
    """One metric's verdict in a comparison."""

    metric: str
    current: float
    reference: float
    #: Signed relative effect, positive = improved, negative = worse
    #: (already direction-adjusted; None when reference is ~0 and the
    #: metric was judged on absolute tolerance).
    effect: float | None
    threshold: float
    regressed: bool
    policy: MetricPolicy
    #: Summary over history repeats, when history mode supplied them.
    summary: MetricSummary | None = None


@dataclass
class Comparison:
    """All findings for one (group, baseline) comparison."""

    name: str
    mode: str  # "baseline-file" | "ledger-history"
    findings: list[Finding] = field(default_factory=list)

    @property
    def regressions(self) -> list[Finding]:
        return [f for f in self.findings if f.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _judge(
    metric: str,
    current: float,
    reference: float,
    *,
    history: bool,
    summary: MetricSummary | None = None,
) -> Finding:
    policy = metric_policy(metric)
    threshold = (
        policy.history_threshold if history else policy.baseline_threshold
    )
    # Overhead-style metrics live near zero: relative effects divide by
    # ~0 and explode, so judge them on absolute movement toward "worse".
    if policy.abs_tol is not None:
        worse_by = (
            current - reference
            if policy.direction == "lower"
            else reference - current
        )
        return Finding(
            metric=metric,
            current=current,
            reference=reference,
            effect=None,
            threshold=policy.abs_tol,
            regressed=worse_by > policy.abs_tol,
            policy=policy,
            summary=summary,
        )
    if reference == 0:
        # Degenerate reference with no abs_tol policy: only an exact
        # match passes a deterministic metric; timing gets a pass.
        regressed = policy.kind == "deterministic" and current != reference
        return Finding(
            metric=metric,
            current=current,
            reference=reference,
            effect=None,
            threshold=threshold,
            regressed=regressed,
            policy=policy,
            summary=summary,
        )
    rel = (current - reference) / abs(reference)
    effect = rel if policy.direction == "higher" else -rel
    return Finding(
        metric=metric,
        current=current,
        reference=reference,
        effect=effect,
        threshold=threshold,
        regressed=effect < -threshold,
        policy=policy,
        summary=summary,
    )


def compare_to_baseline(
    current: dict, baseline: dict, *, name: str = "baseline"
) -> Comparison:
    """Judge the newest run's headline values against a baseline file's.

    Only metrics present on both sides are judged: a quick run measures
    a subset of the committed full run, and new metrics have no history.
    """
    comp = Comparison(name=name, mode="baseline-file")
    for metric in sorted(set(current) & set(baseline)):
        comp.findings.append(
            _judge(
                metric,
                float(current[metric]),
                float(baseline[metric]),
                history=False,
            )
        )
    return comp


def compare_to_history(
    group: list[RunRecord], *, name: str = "history"
) -> Comparison:
    """Judge a fingerprint group's newest record against its own past.

    The reference for each metric is the median of all *prior* records
    in the group (append order), summarized with bootstrap CI so the
    report can show spread, not just a point.
    """
    if len(group) < 2:
        raise ValueError(
            "history comparison needs >= 2 records with the same fingerprint"
        )
    newest = group[-1]
    prior = group[:-1]
    comp = Comparison(name=name, mode="ledger-history")
    for metric in sorted(newest.values):
        samples = [
            float(r.values[metric]) for r in prior if metric in r.values
        ]
        if not samples:
            continue
        summary = summarize(samples)
        comp.findings.append(
            _judge(
                metric,
                float(newest.values[metric]),
                summary.median,
                history=True,
                summary=summary,
            )
        )
    return comp


def group_by_fingerprint(records: list[RunRecord]) -> dict:
    """Ledger records bucketed by config fingerprint, append order kept."""
    groups: dict[str, list[RunRecord]] = {}
    for record in records:
        groups.setdefault(record.fingerprint, []).append(record)
    return groups


# ---------------------------------------------------------------------------
# Report rendering


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_comparison(comp: Comparison, *, verbose: bool = False) -> str:
    """Human-readable comparison table (one metric per line)."""
    lines = [f"== {comp.name} ({comp.mode})"]
    for f in comp.findings:
        if f.effect is None:
            move = f"abs Δ={_fmt(f.current - f.reference)} (tol {_fmt(f.threshold)})"
        else:
            move = f"effect={f.effect:+.1%} (threshold -{f.threshold:.0%})"
        status = "REGRESSED" if f.regressed else "ok"
        extra = ""
        if f.summary is not None and f.summary.n > 1:
            extra = (
                f" [n={f.summary.n} IQR={_fmt(f.summary.iqr)}"
                f" CI {_fmt(f.summary.ci_low)}..{_fmt(f.summary.ci_high)}]"
            )
        if verbose or f.regressed:
            lines.append(
                f"  {status:9s} {f.metric}: {_fmt(f.current)} vs "
                f"{_fmt(f.reference)} {move}{extra}"
            )
    n_reg = len(comp.regressions)
    lines.append(
        f"  {len(comp.findings)} metric(s) compared, {n_reg} regression(s)"
    )
    return "\n".join(lines)


def run_report(
    ledger,
    *,
    baselines: list[str] | None = None,
    kind: str | None = None,
    verbose: bool = False,
) -> tuple[str, bool]:
    """The full ``ceresz report`` body: (text, ok).

    For every committed baseline file given, the newest matching bench
    record in the ledger is compared against it. Independently, every
    fingerprint group with >= 2 records compares its newest record to
    its own history. ``ok`` is False when any comparison regressed.
    """
    led = resolve_ledger(ledger if ledger is not None else True)
    records = led.records()
    if kind is not None:
        records = [r for r in records if r.kind == kind]
    if not records:
        return (f"ledger {led.path}: no records", True)

    chunks = [f"ledger {led.path}: {len(records)} record(s)"]
    ok = True

    for path in baselines or []:
        base = load_baseline(path)
        bench_name = None
        try:
            with open(path, encoding="utf-8") as fh:
                bench_name = json.load(fh).get("benchmark")
        except (OSError, json.JSONDecodeError):
            pass
        candidates = [
            r
            for r in records
            if bench_name is None or r.name == bench_name
        ]
        if not candidates:
            chunks.append(
                f"== {os.path.basename(path)}: no matching ledger record "
                f"(benchmark={bench_name!r})"
            )
            continue
        newest = candidates[-1]
        comp = compare_to_baseline(
            newest.values, base, name=os.path.basename(path)
        )
        ok = ok and comp.ok
        chunks.append(render_comparison(comp, verbose=verbose))

    for fingerprint, group in group_by_fingerprint(records).items():
        if len(group) < 2 or not group[-1].values:
            continue
        comp = compare_to_history(
            group, name=f"{group[-1].name} @{fingerprint[:12]}"
        )
        if not comp.findings:
            continue
        ok = ok and comp.ok
        chunks.append(render_comparison(comp, verbose=verbose))

    chunks.append("gate: PASS" if ok else "gate: FAIL")
    return ("\n".join(chunks), ok)
