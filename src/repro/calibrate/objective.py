"""Score candidate simulator parameters against a measured reference.

A candidate is a flat dict of ``calibrated`` cluster parameters
(``speed``, ``latency``, ``bandwidth`` -- see
:func:`repro.clusters.presets.calibrated_cluster`).  The objective
replays every battery scenario on :class:`SimulatedBackend` with the
candidate spliced in as ``cluster_params`` and scores the discrepancy:

    score = mean over entries of
        |sim_makespan - measured_makespan| / measured_makespan
        + util_weight * TV(sim_compute_share, measured_compute_share)

where TV is total-variation distance (half the L1 gap) between the
per-rank compute-share vectors.  The makespan term is the headline
±relative error the acceptance gate reads; the shape term keeps a fit
from matching total time with a wildly wrong per-rank split.  The
simulator is deterministic, so a given ``(reference, params)`` pair
always scores identically -- search algorithms can cache and compare
freely.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

from repro.api.backends import SimulatedBackend
from repro.api.scenario import Scenario
from repro.calibrate.errors import CalibrationError
from repro.calibrate.measure import REFERENCE_SCHEMA, load_reference
from repro.clusters.presets import LAN_LATENCY
from repro.obs.report import utilisation_table
from repro.simgrid.link import mbit

#: The ``calibrated`` cluster's own defaults -- the uncalibrated
#: baseline every fit is measured against.
DEFAULT_PARAMS: Dict[str, float] = {
    "speed": 1.0e8,
    "latency": LAN_LATENCY,
    "bandwidth": mbit(100.0),
}


class CalibrationObjective:
    """Scorer binding a reference to the simulator.

    ::

        objective = CalibrationObjective("reference.json")
        report = objective.evaluate({"speed": 2.5e7, ...})
        report["score"], report["max_makespan_error"], report["entries"]

    ``evaluations`` counts full battery replays (one per ``evaluate``),
    the currency search budgets are expressed in.
    """

    def __init__(
        self,
        reference: Union[str, Path, Mapping[str, Any]],
        cluster: str = "calibrated",
        util_weight: float = 0.5,
    ) -> None:
        if isinstance(reference, (str, Path)):
            reference = load_reference(reference)
        if reference.get("schema") != REFERENCE_SCHEMA:
            raise CalibrationError(
                f"objective needs a {REFERENCE_SCHEMA!r} reference, got "
                f"schema={reference.get('schema')!r}"
            )
        if not reference.get("entries"):
            raise CalibrationError("reference has no entries to score against")
        if util_weight < 0:
            raise ValueError("util_weight must be >= 0")
        self.reference: Dict[str, Any] = dict(reference)
        self.cluster = cluster
        self.util_weight = float(util_weight)
        self.entries: List[Dict[str, Any]] = list(reference["entries"])
        self._scenarios = [
            Scenario.from_dict(entry["scenario"]) for entry in self.entries
        ]
        self.evaluations = 0

    def scenario_for(
        self, index: int, params: Mapping[str, float]
    ) -> Scenario:
        """Battery entry ``index`` re-targeted at the candidate cluster."""
        base = self._scenarios[index]
        return base.derive(
            name=f"{base.name or f'cal-{index}'}",
            cluster=self.cluster,
            cluster_params={k: float(v) for k, v in params.items()},
        )

    def evaluate(self, params: Mapping[str, float]) -> Dict[str, Any]:
        """Replay the battery in-process and return the full report."""
        backend = SimulatedBackend(timeline=True)
        details = []
        for index, entry in enumerate(self.entries):
            result = backend.run(self.scenario_for(index, params))
            details.append(
                self._entry_detail(entry, float(result.makespan), result.timeline)
            )
        self.evaluations += 1
        return self._aggregate(params, details)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _entry_detail(
        self, entry: Mapping[str, Any], makespan: float, timeline: Any
    ) -> Dict[str, Any]:
        measured = float(entry["makespan_s"])
        if measured <= 0:
            raise CalibrationError(
                f"entry {entry.get('scenario', {}).get('name')!r} has "
                f"non-positive measured makespan {measured}"
            )
        makespan_error = abs(makespan - measured) / measured

        rows = utilisation_table(timeline)
        total = sum(row["compute_s"] for row in rows)
        sim_share = [
            row["compute_s"] / total if total > 0 else 0.0 for row in rows
        ]
        meas_share = [float(s) for s in entry.get("compute_share", [])]
        width = max(len(sim_share), len(meas_share))
        shape_error = 0.5 * sum(
            abs(
                (sim_share[i] if i < len(sim_share) else 0.0)
                - (meas_share[i] if i < len(meas_share) else 0.0)
            )
            for i in range(width)
        )
        return {
            "name": entry.get("scenario", {}).get("name"),
            "measured_s": measured,
            "simulated_s": makespan,
            "makespan_error": makespan_error,
            "shape_error": shape_error,
            "score": makespan_error + self.util_weight * shape_error,
        }

    def _aggregate(
        self, params: Mapping[str, float], details: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        return {
            "params": {k: float(v) for k, v in params.items()},
            "score": sum(d["score"] for d in details) / len(details),
            "max_makespan_error": max(d["makespan_error"] for d in details),
            "entries": details,
        }


__all__ = ["DEFAULT_PARAMS", "CalibrationObjective"]
