"""Experiment harness: one module per table/figure of the paper.

Every module exposes a ``run_*`` function returning a structured result
plus a ``format_*`` helper that renders the same rows the paper prints.
The benchmark suite (``benchmarks/``) wraps these, and EXPERIMENTS.md
records paper-versus-measured values.
"""

from repro.experiments.common import (
    DEFAULT_BACKEND,
    EnvironmentRow,
    render_table,
    run_scenario_case,
)
from repro.experiments.table1 import run_table1, format_table1
from repro.experiments.table2 import Table2Config, run_table2, format_table2
from repro.experiments.table3 import Table3Config, run_table3, format_table3
from repro.experiments.table4 import run_table4, format_table4
from repro.experiments.figures12 import (
    FlowConfig,
    run_execution_flows,
    format_flows,
)
from repro.experiments.figure3 import (
    Figure3Config,
    figure3_scenarios,
    run_figure3,
    format_figure3,
)

__all__ = [
    "DEFAULT_BACKEND",
    "EnvironmentRow",
    "render_table",
    "run_scenario_case",
    "figure3_scenarios",
    "run_table1",
    "format_table1",
    "Table2Config",
    "run_table2",
    "format_table2",
    "Table3Config",
    "run_table3",
    "format_table3",
    "run_table4",
    "format_table4",
    "FlowConfig",
    "run_execution_flows",
    "format_flows",
    "Figure3Config",
    "run_figure3",
    "format_figure3",
]
