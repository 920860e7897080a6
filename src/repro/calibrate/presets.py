"""Fitted cluster presets: emit, load, register, drift-check.

A preset file is self-contained: the fitted ``calibrated``-cluster
parameters *plus* the measured reference they were fitted against and
the score recorded at fit time.  That makes the drift check a pure
function of the file and the installed simulator -- CI re-scores the
shipped preset on every run and fails when the simulator's behaviour
has drifted from what the fit recorded.

This module is imported while ``repro.clusters`` is still
initialising (so shipped presets register like built-in ones); its
top-level imports are therefore restricted to the stdlib and
``repro.clusters`` itself.  Anything heavier (the objective, the
backends) is imported lazily inside the functions that need it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.calibrate.errors import CalibrationError

#: Schema tag written into every preset file.
PRESET_SCHEMA = "repro.calibration-preset/1"

#: Shipped presets live next to this module and register at import.
DATA_DIR = Path(__file__).resolve().parent / "data"

#: Default gates: per-entry makespan error the acceptance criterion
#: allows, and how far a re-score may drift from the recorded score.
DEFAULT_MAKESPAN_TOLERANCE = 0.20
DEFAULT_SCORE_TOLERANCE = 0.05


# ----------------------------------------------------------------------
# emit / load
# ----------------------------------------------------------------------
def build_preset(
    name: str,
    fit_result: Any,
    reference: Mapping[str, Any],
    util_weight: float = 0.5,
    makespan_tolerance: float = DEFAULT_MAKESPAN_TOLERANCE,
) -> Dict[str, Any]:
    """Assemble a preset payload from a fit and its reference.

    The payload records :data:`DEFAULT_SCORE_TOLERANCE` as the drift
    a later re-score may show.

    ``fit_result`` is a :class:`repro.calibrate.search.FitResult` or
    any mapping/object exposing ``params``, ``score``,
    ``max_makespan_error``, ``baseline_score`` and ``seed``.
    """
    def get(key: str, default: Any = None) -> Any:
        if isinstance(fit_result, Mapping):
            return fit_result.get(key, default)
        return getattr(fit_result, key, default)

    params = get("params")
    if not params:
        raise CalibrationError("fit result carries no params")
    return {
        "schema": PRESET_SCHEMA,
        "name": name,
        "cluster": "calibrated",
        "params": {k: float(v) for k, v in dict(params).items()},
        "score": float(get("score")),
        "max_makespan_error": float(get("max_makespan_error")),
        "baseline_score": float(get("baseline_score", 0.0)),
        "baseline_max_makespan_error": float(
            get("baseline_max_makespan_error", 0.0)
        ),
        "seed": int(get("seed", 0)),
        "util_weight": float(util_weight),
        "makespan_tolerance": float(makespan_tolerance),
        "score_tolerance": DEFAULT_SCORE_TOLERANCE,
        "reference": dict(reference),
    }


def write_preset(path: Union[str, Path], preset: Mapping[str, Any]) -> Path:
    """Write a preset payload as pretty JSON; returns the path."""
    if preset.get("schema") != PRESET_SCHEMA:
        raise CalibrationError(
            f"refusing to write a non-preset dict "
            f"(schema={preset.get('schema')!r})"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(preset), indent=2, sort_keys=True) + "\n")
    return path


def load_preset(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and schema-check a preset file."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != PRESET_SCHEMA:
        raise CalibrationError(
            f"{path}: not a calibration preset "
            f"(schema={data.get('schema')!r}, want {PRESET_SCHEMA!r})"
        )
    for key in ("name", "params", "score", "reference"):
        if key not in data:
            raise CalibrationError(f"{path}: preset is missing {key!r}")
    return data


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
def register_preset(preset: Union[str, Path, Mapping[str, Any]]) -> str:
    """Register a fitted preset as a cluster builder under its name.

    After this, ``get_cluster(name)`` (and any scenario dict naming the
    preset) builds a :func:`calibrated_cluster` with the fitted
    parameters baked in; callers may still override ``n_hosts`` or any
    individual parameter.  Registering a name again replaces it, so
    registration is idempotent across repeated imports.
    """
    from repro.clusters import register_cluster
    from repro.clusters.presets import calibrated_cluster

    if isinstance(preset, (str, Path)):
        preset = load_preset(preset)
    params = {k: float(v) for k, v in preset["params"].items()}
    preset_name = preset["name"]

    def fitted_cluster(**overrides: Any):
        merged = {**params, **overrides}
        return calibrated_cluster(**merged)

    fitted_cluster.__name__ = preset_name
    fitted_cluster.__doc__ = (
        f"Calibration preset {preset_name!r}: calibrated_cluster with "
        f"fitted parameters {params!r} (recorded score "
        f"{preset.get('score')} against backend "
        f"{preset.get('reference', {}).get('backend')!r})."
    )
    register_cluster(preset_name, overwrite=True)(fitted_cluster)
    return preset_name


def register_shipped_presets() -> List[str]:
    """Register every preset JSON shipped under ``calibrate/data/``.

    Called during ``repro.clusters`` initialisation; must never raise
    on a missing directory or an unreadable file (a broken data file
    should fail its drift check, not every ``import repro``).
    """
    names: List[str] = []
    if not DATA_DIR.is_dir():
        return names
    for path in sorted(DATA_DIR.glob("*.json")):
        try:
            names.append(register_preset(load_preset(path)))
        except (CalibrationError, OSError, ValueError, KeyError):
            continue
    return names


# ----------------------------------------------------------------------
# drift check
# ----------------------------------------------------------------------
def check_drift(
    preset: Union[str, Path, Mapping[str, Any]],
    makespan_tolerance: Optional[float] = None,
    score_tolerance: Optional[float] = None,
) -> Dict[str, Any]:
    """Re-score a preset against its embedded reference.

    Returns a report dict with ``ok`` plus the recorded/current scores;
    deterministic, since the scoring replays the battery on the
    simulator.  ``ok`` is false when the per-entry makespan error
    exceeds ``makespan_tolerance`` (the acceptance gate) or the score
    drifts from the recorded one beyond ``score_tolerance`` (the
    simulator changed under the preset).
    """
    from repro.calibrate.objective import CalibrationObjective

    if isinstance(preset, (str, Path)):
        preset = load_preset(preset)
    objective = CalibrationObjective(
        preset["reference"],
        cluster=preset.get("cluster", "calibrated"),
        util_weight=float(preset.get("util_weight", 0.5)),
    )
    current = objective.evaluate(preset["params"])

    recorded_score = float(preset["score"])
    mk_tol = (
        float(makespan_tolerance)
        if makespan_tolerance is not None
        else float(preset.get("makespan_tolerance", DEFAULT_MAKESPAN_TOLERANCE))
    )
    sc_tol = (
        float(score_tolerance)
        if score_tolerance is not None
        else float(preset.get("score_tolerance", DEFAULT_SCORE_TOLERANCE))
    )
    score_drift = abs(current["score"] - recorded_score)
    return {
        "name": preset.get("name"),
        "ok": (
            score_drift <= sc_tol
            and current["max_makespan_error"] <= mk_tol
        ),
        "score": current["score"],
        "recorded_score": recorded_score,
        "score_drift": score_drift,
        "score_tolerance": sc_tol,
        "max_makespan_error": current["max_makespan_error"],
        "makespan_tolerance": mk_tol,
        "baseline_score": preset.get("baseline_score"),
        "entries": current["entries"],
    }


__all__ = [
    "PRESET_SCHEMA",
    "DATA_DIR",
    "DEFAULT_MAKESPAN_TOLERANCE",
    "DEFAULT_SCORE_TOLERANCE",
    "build_preset",
    "write_preset",
    "load_preset",
    "register_preset",
    "register_shipped_presets",
    "check_drift",
]
