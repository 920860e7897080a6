"""The paper's tables and figures, regenerated on the simulator.

Tables 2-3 and Figures 1-3 are the :class:`~repro.experiments.spec.Spec`
values of :mod:`repro.experiments.paper`; ``run_spec`` runs any of them
through :func:`repro.sweep.run_sweep` and judges its shape claims, and
``format_spec`` renders the outcome.  Tables 1 and 4 check static
configuration and run no scenario, so they stay plain functions.

Scaled instances.  The paper's sizes (Table 1: 2 000 000 unknowns; a
600 x 600 grid over 12 time steps) would take the simulator days, so
every spec runs a smaller instance.  Shrinking the problem alone would
change the regime the paper measured: a small block iterates
microseconds apart while per-message costs stay at milliseconds, data
exchange starves and every environment drowns in messages.  So each
spec also rescales host speeds (the clusters' ``speed_scale``) until
one local iteration costs about as long as one inter-site message wave
-- the computation/communication ratio of the paper's full-size runs.
Around that, :mod:`repro.clusters.machines` keeps the real processors'
relative speeds, the cluster presets own the network costs, and
:mod:`repro.envs.environments` carries the per-message software costs,
calibrated per problem kind for these scaled runs.  A spec therefore
claims the paper's *shape* -- who wins, orderings, crossovers -- never
its absolute times; each spec's comment names its size and where its
numbers deviate from the paper's.
"""

from repro.experiments.paper import FIGURE3, FIGURES12, TABLE2, TABLE3
from repro.experiments.spec import format_spec, render_table, run_spec
from repro.experiments.table1 import run_table1, format_table1
from repro.experiments.table4 import run_table4, format_table4

__all__ = [
    "run_spec", "format_spec", "render_table",
    "TABLE2", "TABLE3", "FIGURE3", "FIGURES12",
    "run_table1", "format_table1", "run_table4", "format_table4",
]
