"""Shared harness fixtures: one quick reproduction per test session."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.harness import ARTIFACTS, figures, observations, reproduce
from repro.harness.reproduce import ReproduceSummary, reproduce_all

#: The artifacts the Observations judge -> their compute's name in
#: :mod:`repro.harness.observations` (which the standalone artifact calls),
#: or None for Figs 11 and 12, which both modules compute in one pass.
OBSERVED = {
    "fig11": None,
    "fig12": None,
    "table5": "table5_compression_ratio",
    "fig15": "fig15_quality",
}


@dataclass(frozen=True)
class Reproduced:
    summary: ReproduceSummary
    #: Artifact name -> the result of every call of its compute.
    computed: dict[str, list]


@pytest.fixture(scope="session")
def reproduced(tmp_path_factory) -> Reproduced:
    """One ``reproduce_all(quick=True)``, recording each call of the
    computes the Observations judge, whether it came through
    :data:`ARTIFACTS`, the shared Fig 11/12 pass or the observations
    module."""
    computed: dict[str, list] = {name: [] for name in OBSERVED}

    def both(*args, **kwargs):
        fig11, fig12 = figures.fig11_fig12_throughput(*args, **kwargs)
        computed["fig11"].append(fig11)
        computed["fig12"].append(fig12)
        return fig11, fig12

    with pytest.MonkeyPatch.context() as mp:
        for name, fn_name in OBSERVED.items():
            compute, render = ARTIFACTS[name]

            def recorded(*args, _name=name, _compute=compute, **kwargs):
                result = _compute(*args, **kwargs)
                computed[_name].append(result)
                return result

            mp.setitem(ARTIFACTS, name, (recorded, render))
            if fn_name is not None:
                mp.setattr(observations, fn_name, recorded)
        for module in (observations, reproduce):
            mp.setattr(module, "fig11_fig12_throughput", both)
        summary = reproduce_all(tmp_path_factory.mktemp("repro"), quick=True)
    return Reproduced(summary=summary, computed=computed)
