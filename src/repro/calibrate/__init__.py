"""Fit the simulator to measured backends (``repro calibrate``).

The calibration loop closes the gap between the paper-shaped simulator
and what this machine actually does:

* :mod:`repro.calibrate.measure` runs a battery of scenarios on a real
  backend (threaded/process) with timelines on and distills the runs
  into an environment-fingerprinted *reference*;
* :mod:`repro.calibrate.objective` scores candidate ``calibrated``
  cluster parameters by replaying the battery on the simulator;
* :mod:`repro.calibrate.search` is the staged fit -- validate, closed
  form warm start, seeded coordinate descent;
* :mod:`repro.calibrate.presets` turns a fit into a preset file that
  registers as a named cluster (``get_cluster("calibrated_...")``)
  and re-scores it later to detect drift.

This ``__init__`` is imported during ``repro.clusters`` initialisation
(shipped presets register as built-in cluster names), so it must stay
light: it exports only the presets/errors surface.  Import the
measure/objective/search machinery from its own module.
"""

from __future__ import annotations

from repro.calibrate.errors import CalibrationError
from repro.calibrate.presets import (
    DEFAULT_MAKESPAN_TOLERANCE,
    DEFAULT_SCORE_TOLERANCE,
    PRESET_SCHEMA,
    build_preset,
    check_drift,
    load_preset,
    register_preset,
    register_shipped_presets,
    write_preset,
)

__all__ = [
    # errors
    "CalibrationError",
    # presets
    "PRESET_SCHEMA",
    "DEFAULT_MAKESPAN_TOLERANCE",
    "DEFAULT_SCORE_TOLERANCE",
    "build_preset",
    "write_preset",
    "load_preset",
    "register_preset",
    "register_shipped_presets",
    "check_drift",
]
