"""Staged calibration search: validate, warm start, coordinate descent.

The workflow follows the LASER calibration recipe (see SNIPPETS.md):

1. **validate** -- score the starting point once, end to end, so a
   broken reference or scenario fails fast and the uncalibrated
   baseline error is on record;
2. **warm start** -- a closed-form speed estimate: simulated makespan
   is affine in ``1/speed`` for a lockstep battery, so two probe
   evaluations solve for the speed that hits the measured makespan;
3. **descent** -- seeded coordinate descent over the (log-scale)
   parameters, deterministic for a fixed seed.

Every stage only ever perturbs *parameter values*; the battery's
scenario structure is fixed by the reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.calibrate.errors import CalibrationError
from repro.calibrate.objective import DEFAULT_PARAMS, CalibrationObjective

#: Hard search-space bounds per parameter (values are clamped, never
#: rejected): effective flop rates from hopeless to heroic, latencies
#: from 100ns to 1s, bandwidths from 1KB/s to 1TB/s.
BOUNDS: Dict[str, Tuple[float, float]] = {
    "speed": (1.0e4, 1.0e13),
    "latency": (1.0e-7, 1.0),
    "bandwidth": (1.0e3, 1.0e12),
}


def clamp_params(params: Mapping[str, float]) -> Dict[str, float]:
    """Clamp every parameter into its :data:`BOUNDS` box."""
    out = {}
    for key, value in params.items():
        lo, hi = BOUNDS.get(key, (1.0e-12, 1.0e15))
        out[key] = min(max(float(value), lo), hi)
    return out


@dataclass
class FitResult:
    """Everything a fit produced, JSON-safe via :meth:`to_dict`."""

    params: Dict[str, float]
    score: float
    max_makespan_error: float
    baseline_params: Dict[str, float]
    baseline_score: float
    baseline_max_makespan_error: float
    evaluations: int
    seed: int
    stages: List[Dict[str, Any]] = field(default_factory=list)
    report: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "params": dict(self.params),
            "score": self.score,
            "max_makespan_error": self.max_makespan_error,
            "baseline_params": dict(self.baseline_params),
            "baseline_score": self.baseline_score,
            "baseline_max_makespan_error": self.baseline_max_makespan_error,
            "evaluations": self.evaluations,
            "seed": self.seed,
            "stages": list(self.stages),
            "report": dict(self.report),
        }


# ----------------------------------------------------------------------
# stage 1: validate
# ----------------------------------------------------------------------
def validate_single(
    objective: CalibrationObjective, params: Mapping[str, float]
) -> Dict[str, Any]:
    """One full evaluation of the starting point; sanity-check it."""
    report = objective.evaluate(params)
    for detail in report["entries"]:
        if not detail["simulated_s"] > 0:
            raise CalibrationError(
                f"validation run {detail['name']!r} produced a "
                f"non-positive simulated makespan ({detail['simulated_s']}); "
                "the battery scenario does not exercise the simulator"
            )
    return report


# ----------------------------------------------------------------------
# stage 2: warm start
# ----------------------------------------------------------------------
def warm_start_speed(
    objective: CalibrationObjective,
    params: Mapping[str, float],
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Closed-form speed estimate from two probe evaluations.

    For a lockstep battery the simulated makespan decomposes as
    ``A/speed + B`` (compute + speed-independent communication), so two
    probes at ``s1`` and ``s2 = 4 * s1`` solve for ``A`` and ``B`` per entry,
    and ``A / (measured - B)`` is the speed that lands the entry
    exactly on its measured makespan.  The geometric mean over entries
    seeds the local search within a decade of the optimum.  Falls back
    to the input parameters when the solve degenerates (e.g. measured
    makespan below the communication floor ``B``).
    """
    params = clamp_params(params)
    first = objective.evaluate(params)
    s1 = params["speed"]
    s2 = clamp_params({"speed": s1 * 4.0})["speed"]
    if s2 == s1:
        return dict(params), first
    second = objective.evaluate({**params, "speed": s2})

    estimates = []
    for d1, d2, entry in zip(
        first["entries"], second["entries"], objective.entries
    ):
        measured = float(entry["makespan_s"])
        a = (d1["simulated_s"] - d2["simulated_s"]) / (1.0 / s1 - 1.0 / s2)
        b = d1["simulated_s"] - a / s1
        if a > 0 and measured > b:
            estimates.append(a / (measured - b))
    if not estimates:
        return dict(params), first

    geo = math.exp(sum(math.log(e) for e in estimates) / len(estimates))
    warmed = clamp_params({**params, "speed": geo})
    return warmed, objective.evaluate(warmed)


# ----------------------------------------------------------------------
# stage 3: coordinate descent
# ----------------------------------------------------------------------
def coordinate_descent(
    objective: CalibrationObjective,
    initial: Mapping[str, float],
    seed: int = 0,
    max_rounds: int = 12,
    step: float = 2.0,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Seeded multiplicative coordinate descent on the log scale.

    Each round tries ``x*step`` and ``x/step`` for every parameter (in
    an order shuffled by the seeded RNG, so no coordinate is
    structurally favoured); a round without improvement shrinks the
    step towards 1 until it drops below 1.02.  Deterministic
    for a fixed ``(objective, initial, seed)``.
    """
    if step <= 1.0:
        raise ValueError("step must be > 1 (multiplicative)")
    rng = random.Random(seed)
    params = clamp_params(initial)
    best = objective.evaluate(params)
    keys = sorted(params)
    step_now = step
    for round_index in range(max_rounds):
        order = keys[:]
        rng.shuffle(order)
        improved = False
        for key in order:
            for candidate_value in (params[key] * step_now, params[key] / step_now):
                candidate = clamp_params({**params, key: candidate_value})
                if candidate[key] == params[key]:
                    continue
                trial = objective.evaluate(candidate)
                if trial["score"] < best["score"] - 1e-12:
                    params, best, improved = candidate, trial, True
        if log is not None:
            log(
                f"descent round {round_index + 1}: score={best['score']:.4f} "
                f"step={step_now:.3f}"
            )
        if not improved:
            step_now = math.sqrt(step_now)
            if step_now < 1.02:
                break
    return params, best


# ----------------------------------------------------------------------
# the staged driver
# ----------------------------------------------------------------------
def fit(
    reference: Union[str, Path, Mapping[str, Any], CalibrationObjective],
    seed: int = 0,
    rounds: int = 12,
    step: float = 2.0,
    util_weight: float = 0.5,
    log: Optional[Callable[[str], None]] = None,
) -> FitResult:
    """Run the staged workflow from ``DEFAULT_PARAMS`` and return a
    :class:`FitResult`."""
    emit = log or (lambda message: None)
    if isinstance(reference, CalibrationObjective):
        objective = reference
    else:
        objective = CalibrationObjective(reference, util_weight=util_weight)

    baseline_params = clamp_params(DEFAULT_PARAMS)
    stages: List[Dict[str, Any]] = []

    baseline = validate_single(objective, baseline_params)
    stages.append({"stage": "validate", "score": baseline["score"]})
    emit(
        f"validate: baseline score={baseline['score']:.4f} "
        f"max_makespan_error={baseline['max_makespan_error']:.2%}"
    )

    params, current = warm_start_speed(objective, baseline_params)
    stages.append(
        {"stage": "warm_start", "score": current["score"], "params": dict(params)}
    )
    emit(f"warm start: speed={params['speed']:.3e} score={current['score']:.4f}")

    params, current = coordinate_descent(
        objective, params, seed=seed, max_rounds=rounds, step=step, log=log
    )
    stages.append(
        {"stage": "descent", "score": current["score"], "params": dict(params)}
    )
    emit(f"descent: score={current['score']:.4f}")

    return FitResult(
        params=dict(params),
        score=current["score"],
        max_makespan_error=current["max_makespan_error"],
        baseline_params=dict(baseline_params),
        baseline_score=baseline["score"],
        baseline_max_makespan_error=baseline["max_makespan_error"],
        evaluations=objective.evaluations,
        seed=seed,
        stages=stages,
        report=current,
    )


__all__ = [
    "BOUNDS",
    "FitResult",
    "clamp_params",
    "validate_single",
    "warm_start_speed",
    "coordinate_descent",
    "fit",
]
