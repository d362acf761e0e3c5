"""Regeneration of every table and figure in the paper's evaluation.

Each ``figN.py`` module exposes a ``figureN()`` function that returns a
:class:`~repro.analysis.series.FigureData` (a set of named series plus axis
metadata) and the per-figure parameters match the paper's.  ``tables.py``
renders Tables 1 and 2 plus the derived quantities, and ``experiments.py``
keeps the registry behind ``python -m repro experiments``.
"""

from .series import FigureData, Series, TableData
from .sweeps import geometric_space, linear_space
from .fig8 import figure8
from .fig9 import figure9
from .fig10 import figure10
from .fig11 import figure11
from .fig12 import figure12
from .fig16 import figure16
from .fidelity_bandwidth import fidelity_bandwidth_tradeoff, scenario_fidelity_table
from .service_metrics import service_load_sweep, service_metrics_table
from .tables import table1, table2, derived_channel_table
from .experiments import EXPERIMENTS, Experiment, get_experiment, list_experiments
from .report import reproduction_report, run_experiments

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "FigureData",
    "Series",
    "TableData",
    "derived_channel_table",
    "fidelity_bandwidth_tradeoff",
    "figure10",
    "figure11",
    "figure12",
    "figure16",
    "figure8",
    "figure9",
    "geometric_space",
    "get_experiment",
    "linear_space",
    "list_experiments",
    "reproduction_report",
    "run_experiments",
    "scenario_fidelity_table",
    "service_load_sweep",
    "service_metrics_table",
    "table1",
    "table2",
]
