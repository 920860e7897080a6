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
light: only the presets/errors surface is imported eagerly; the
measure/objective/search machinery loads on first attribute access.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from repro.calibrate.errors import CalibrationDriftError, CalibrationError
from repro.calibrate.presets import (
    DEFAULT_MAKESPAN_TOLERANCE,
    DEFAULT_SCORE_TOLERANCE,
    PRESET_SCHEMA,
    assert_no_drift,
    build_preset,
    check_drift,
    load_preset,
    register_preset,
    register_shipped_presets,
    write_preset,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.calibrate.measure import (  # noqa: F401
        BATTERIES,
        REFERENCE_SCHEMA,
        default_battery,
        load_reference,
        measure_battery,
        tiny_battery,
        write_reference,
    )
    from repro.calibrate.objective import (  # noqa: F401
        DEFAULT_PARAMS,
        CalibrationObjective,
    )
    from repro.calibrate.search import (  # noqa: F401
        BOUNDS,
        FitResult,
        clamp_params,
        coordinate_descent,
        fit,
        validate_single,
        warm_start_speed,
    )

#: Lazily exposed attribute -> defining submodule (PEP 562).
_LAZY = {
    "BATTERIES": "measure",
    "REFERENCE_SCHEMA": "measure",
    "default_battery": "measure",
    "tiny_battery": "measure",
    "measure_battery": "measure",
    "write_reference": "measure",
    "load_reference": "measure",
    "DEFAULT_PARAMS": "objective",
    "CalibrationObjective": "objective",
    "BOUNDS": "search",
    "FitResult": "search",
    "clamp_params": "search",
    "validate_single": "search",
    "warm_start_speed": "search",
    "coordinate_descent": "search",
    "fit": "search",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{submodule}")
    value = getattr(module, name)
    globals()[name] = value  # cache for next access
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    # errors
    "CalibrationError",
    "CalibrationDriftError",
    # presets (eager)
    "PRESET_SCHEMA",
    "DEFAULT_MAKESPAN_TOLERANCE",
    "DEFAULT_SCORE_TOLERANCE",
    "build_preset",
    "write_preset",
    "load_preset",
    "register_preset",
    "register_shipped_presets",
    "check_drift",
    "assert_no_drift",
    # measure (lazy)
    "BATTERIES",
    "REFERENCE_SCHEMA",
    "default_battery",
    "tiny_battery",
    "measure_battery",
    "write_reference",
    "load_reference",
    # objective (lazy)
    "DEFAULT_PARAMS",
    "CalibrationObjective",
    # search (lazy)
    "BOUNDS",
    "FitResult",
    "clamp_params",
    "validate_single",
    "warm_start_speed",
    "coordinate_descent",
    "fit",
]
