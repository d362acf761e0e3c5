"""Registry of reproduced experiments (tables, figures, text claims).

Maps experiment identifiers to the callables that regenerate them, with the
paper's qualitative expectation attached.  ``python -m repro experiments``
iterates this registry, and EXPERIMENTS.md documents the measured outcome for
each entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..errors import ConfigurationError
from .fidelity_bandwidth import fidelity_bandwidth_tradeoff
from .fig10 import figure10
from .fig11 import figure11
from .fig12 import figure12
from .fig16 import figure16
from .fig8 import figure8
from .fig9 import figure9
from .service_metrics import service_load_sweep
from .tables import derived_channel_table, table1, table2


@dataclass(frozen=True)
class Experiment:
    """One reproducible artefact of the paper's evaluation."""

    identifier: str
    kind: str  # "table", "figure" or "claim"
    description: str
    expectation: str
    runner: Callable[[], object]
    heavy: bool = False

    def run(self) -> object:
        """Regenerate the artefact and return its data object."""
        return self.runner()


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        identifier="table1",
        kind="table",
        description="Ion-trap operation times",
        expectation="Matches the paper's Table 1 constants (122/122/121 us derived rows).",
        runner=table1,
    ),
    "table2": Experiment(
        identifier="table2",
        kind="table",
        description="Ion-trap error probabilities",
        expectation="Matches the paper's Table 2 constants.",
        runner=table2,
    ),
    "derived": Experiment(
        identifier="derived",
        kind="claim",
        description="Derived text claims: crossover, corner error, 392 pairs",
        expectation="~600-cell crossover, >1e-3 corner-to-corner error, 392 pairs per logical comm.",
        runner=derived_channel_table,
    ),
    "figure8": Experiment(
        identifier="figure8",
        kind="figure",
        description="Purification error vs rounds (DEJMPS vs BBPSSW)",
        expectation="DEJMPS converges in a few rounds; BBPSSW needs 5-10x more and plateaus higher.",
        runner=figure8,
    ),
    "figure9": Experiment(
        identifier="figure9",
        kind="figure",
        description="EPR error vs chained-teleportation hops",
        expectation="Roughly linear growth; ~100x amplification at 64 hops for 1e-4 initial error.",
        runner=figure9,
    ),
    "figure10": Experiment(
        identifier="figure10",
        kind="figure",
        description="Total EPR pairs vs distance per purification placement",
        expectation="After-teleport placements grow exponentially and dominate the others.",
        runner=figure10,
    ),
    "figure11": Experiment(
        identifier="figure11",
        kind="figure",
        description="Teleported EPR pairs vs distance per purification placement",
        expectation="Virtual-wire purification minimises channel traffic; after-teleport maximises it.",
        runner=figure11,
    ),
    "figure12": Experiment(
        identifier="figure12",
        kind="figure",
        description="Teleported EPR pairs vs uniform operation error rate",
        expectation="All placements become infeasible near 1e-5; ~100x spread in the working regime.",
        runner=figure12,
    ),
    "fidelity_bandwidth": Experiment(
        identifier="fidelity_bandwidth",
        kind="figure",
        description="Delivered EPR error vs raw-pair bandwidth per purification level",
        expectation=(
            "Each tree level ~doubles the raw-pair cost and cuts the delivered error "
            "until the local-operation noise floor flattens the curve."
        ),
        runner=fidelity_bandwidth_tradeoff,
    ),
    "service_metrics": Experiment(
        identifier="service_metrics",
        kind="figure",
        description="Steady-state service metrics vs offered load (open-loop traffic)",
        expectation=(
            "Delivered load saturates at the fabric's service capacity while the "
            "completion-time p99 keeps growing with offered load."
        ),
        runner=service_load_sweep,
    ),
    "figure16": Experiment(
        identifier="figure16",
        kind="figure",
        description="QFT runtime vs resource allocation (Home Base vs Mobile Qubit)",
        expectation=(
            "Home Base tolerates shrinking purifiers (teleporter-bound); Mobile Qubit "
            "degrades when t=g=8p (purifier-bound)."
        ),
        runner=lambda: figure16()[0],
        heavy=True,
    ),
}


def list_experiments(*, include_heavy: bool = True) -> List[str]:
    """Identifiers of all registered experiments."""
    return [
        name
        for name, experiment in EXPERIMENTS.items()
        if include_heavy or not experiment.heavy
    ]


def get_experiment(identifier: str) -> Experiment:
    """Look up an experiment by identifier."""
    if identifier not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {identifier!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[identifier]
