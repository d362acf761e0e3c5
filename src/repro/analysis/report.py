"""One-shot reproduction report.

Runs every (light) experiment in the registry and renders a single text
report: the regenerated tables, each figure's series, and the expectation the
paper states for it.  ``examples/reproduce_all.py`` is a thin wrapper around
:func:`reproduction_report`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .experiments import EXPERIMENTS, Experiment
from .series import FigureData, TableData


def render_artifact(artifact: object, *, max_points: int = 8) -> str:
    """Render one experiment artefact (table, figure or raw object) as text."""
    if isinstance(artifact, TableData):
        return artifact.render()
    if isinstance(artifact, FigureData):
        return artifact.render(max_points=max_points)
    return repr(artifact)


def run_experiments(
    identifiers: Optional[Sequence[str]] = None,
    *,
    include_heavy: bool = False,
) -> List[tuple]:
    """Run experiments and return (experiment, artifact) pairs."""
    if identifiers is None:
        identifiers = [
            name
            for name, experiment in EXPERIMENTS.items()
            if include_heavy or not experiment.heavy
        ]
    results = []
    for name in identifiers:
        experiment: Experiment = EXPERIMENTS[name]
        results.append((experiment, experiment.run()))
    return results


def render_report(pairs: Sequence[tuple], *, max_points: int = 8) -> str:
    """Render (experiment, artifact) pairs as the full text report."""
    lines = [
        "Reproduction report: Interconnection Networks for Scalable Quantum Computers",
        "=" * 78,
    ]
    for experiment, artifact in pairs:
        lines.append("")
        lines.append(f"[{experiment.identifier}] {experiment.description}")
        lines.append(f"paper expectation: {experiment.expectation}")
        lines.append("-" * 78)
        lines.append(render_artifact(artifact, max_points=max_points))
    lines.append("")
    lines.append(
        "See EXPERIMENTS.md for the paper-vs-measured comparison of every artefact."
    )
    return "\n".join(lines)


def reproduction_report(
    identifiers: Optional[Sequence[str]] = None,
    *,
    include_heavy: bool = False,
    max_points: int = 8,
) -> str:
    """Render the full reproduction report as text (serial, uncached).

    ``python -m repro experiments report`` produces the same report through
    the parallel, cached :class:`repro.runtime.ExperimentRunner`.
    """
    pairs = run_experiments(identifiers, include_heavy=include_heavy)
    return render_report(pairs, max_points=max_points)
