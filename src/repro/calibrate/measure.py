"""Measure a calibration battery on a real backend.

The battery is a small, fixed list of scenarios (lockstep ``sync_mpi``
runs by default, so iteration counts match the simulator exactly) that
gets executed ``repeats`` times per scenario on a wall-clock backend
with ``timeline=True``.  The median run of each scenario is distilled
into a *reference*: makespan plus the per-rank compute/idle/comm shape
from :func:`repro.obs.report.utilisation_table`, stamped with
:func:`environment_fingerprint` so a fit knows which machine produced
its ground truth.

Shape is recorded as ``compute_share`` -- each rank's fraction of the
total compute time -- rather than absolute utilisation, because the
threaded backend serialises compute across ranks under the GIL:
absolute per-rank utilisation collapses to ~1/n_ranks there, while the
*relative* split still reflects genuine per-rank work heterogeneity
and is directly comparable with the simulator's timelines.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy

from repro.api.backends import BACKEND_REGISTRY, get_backend
from repro.api.scenario import Scenario
from repro.calibrate.errors import CalibrationError
from repro.obs.report import utilisation_table

#: Schema tag written into every reference file.
REFERENCE_SCHEMA = "repro.calibration-reference/1"


# ----------------------------------------------------------------------
# batteries
# ----------------------------------------------------------------------
def default_battery(
    sizes: Sequence[int] = (72_000, 84_000, 96_000),
    n_ranks: int = 2,
    environment: str = "sync_mpi",
    seed: int = 0,
) -> List[Scenario]:
    """The standard calibration battery: one rank count, several sizes.

    Two deliberate choices:

    * a single ``n_ranks`` per battery -- on the threaded backend the
      GIL serialises compute, so the *effective* per-host speed a fit
      recovers scales with the rank count; mixing rank counts in one
      battery would ask one speed to satisfy several incompatible
      regimes.  Fit one preset per rank count instead.
    * *compute-dominated* sizes in a narrow (~1.3x) range -- the
      environment models charge fixed per-message software costs
      (e.g. ``sync_mpi``'s send/recv bases) that cluster parameters
      cannot reduce, a comm floor of ~0.2s over a ~46-iteration run.
      The battery only constrains the cluster parameters where compute
      dwarfs that floor, and the narrow range keeps the threaded
      backend's superlinear (cache-regime) wall-time growth locally
      affine, which is all the simulator's linear flop model can match.
    """
    if not sizes:
        raise ValueError("battery needs at least one problem size")
    return [
        Scenario(
            name=f"cal-{environment}-n{n}-r{n_ranks}",
            problem="sparse_linear",
            problem_params={"n": int(n)},
            environment=environment,
            n_ranks=n_ranks,
            seed=seed,
        )
        for n in sizes
    ]


def tiny_battery(
    sizes: Sequence[int] = (48_000, 64_000),
    n_ranks: int = 2,
    environment: str = "sync_mpi",
    seed: int = 0,
) -> List[Scenario]:
    """A seconds-scale battery for the CI smoke job.

    Small enough to measure and fit in well under a minute, large
    enough that compute is at least comparable to the environment
    model's per-message comm floor (see :func:`default_battery`); the
    smoke job pairs it with a looser makespan tolerance, since on a
    fast machine these sizes sit closer to that floor.
    """
    return default_battery(
        sizes=sizes, n_ranks=n_ranks, environment=environment, seed=seed
    )


#: Named battery factories the CLI exposes (``--battery``).
BATTERIES: Dict[str, Callable[[], List[Scenario]]] = {
    "default": default_battery,
    "tiny": tiny_battery,
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def git_revision() -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def environment_fingerprint() -> Dict[str, Any]:
    """Where a reference came from: interpreter, numpy, host, git rev."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_rev": git_revision(),
    }


def _resolve_backend(backend: Any, timeout: float):
    """Accept a backend name or instance; force ``timeline=True``."""
    if isinstance(backend, str):
        cls = BACKEND_REGISTRY.get(backend)
        fields = (
            {f.name for f in dataclasses.fields(cls)}
            if dataclasses.is_dataclass(cls)
            else set()
        )
        kwargs: Dict[str, Any] = {"timeline": True}
        if "timeout" in fields:
            kwargs["timeout"] = timeout
        return get_backend(backend, **kwargs)
    if not getattr(backend, "timeline", False):
        raise CalibrationError(
            f"backend {getattr(backend, 'name', backend)!r} was built with "
            "timeline=False; calibration needs per-rank timelines"
        )
    return backend


def measure_battery(
    battery: Union[str, Sequence[Any]],
    backend: Any = "threaded",
    repeats: int = 3,
    timeout: float = 120.0,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run the battery and distill it into a reference dict.

    ``battery`` is a name from :data:`BATTERIES`, or a list of
    :class:`Scenario` / scenario dicts.  Each scenario runs ``repeats``
    times; the median-makespan run supplies the timeline shape, and all
    makespans are kept so a reader can judge the noise floor.
    ``progress``, when given, receives each finished entry dict.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if isinstance(battery, str):
        try:
            scenarios = BATTERIES[battery]()
        except KeyError:
            raise CalibrationError(
                f"unknown battery {battery!r}; known: {sorted(BATTERIES)}"
            ) from None
    else:
        scenarios = [
            s if isinstance(s, Scenario) else Scenario.from_dict(s)
            for s in battery
        ]
    if not scenarios:
        raise CalibrationError("battery is empty")

    runner = _resolve_backend(backend, timeout)
    entries = []
    for scenario in scenarios:
        runs = []
        for _ in range(repeats):
            result = runner.run(scenario)
            if result.timeline is None:
                raise CalibrationError(
                    f"backend {runner.name!r} returned no timeline for "
                    f"{scenario.name!r}"
                )
            runs.append(result)
        runs.sort(key=lambda r: r.makespan)
        representative = runs[len(runs) // 2]
        entry = _distill(scenario, representative, [r.makespan for r in runs])
        entries.append(entry)
        if progress is not None:
            progress(entry)

    return {
        "schema": REFERENCE_SCHEMA,
        "backend": runner.name,
        "repeats": repeats,
        "environment": environment_fingerprint(),
        "entries": entries,
    }


def _distill(
    scenario: Scenario, result: Any, makespans: List[float]
) -> Dict[str, Any]:
    """One battery entry: scenario + makespan + per-rank shape."""
    rows = utilisation_table(result.timeline)
    total_compute = sum(row["compute_s"] for row in rows)
    return {
        "scenario": scenario.to_dict(),
        "makespan_s": float(result.makespan),
        "makespans_s": [float(m) for m in makespans],
        "iterations": result.max_iterations,
        "converged": bool(result.converged),
        "ranks": [
            {
                "rank": row["rank"],
                "compute_s": row["compute_s"],
                "idle_s": row["idle_s"],
                "comm_s": row["comm_s"],
                "utilisation": row["utilisation"],
            }
            for row in rows
        ],
        "compute_share": [
            row["compute_s"] / total_compute if total_compute > 0 else 0.0
            for row in rows
        ],
    }


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def write_reference(path: Union[str, Path], reference: Dict[str, Any]) -> Path:
    """Write a reference dict as pretty JSON; returns the path."""
    if reference.get("schema") != REFERENCE_SCHEMA:
        raise CalibrationError(
            f"refusing to write a non-reference dict "
            f"(schema={reference.get('schema')!r})"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return path


def load_reference(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and schema-check a reference file."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != REFERENCE_SCHEMA:
        raise CalibrationError(
            f"{path}: not a calibration reference "
            f"(schema={data.get('schema')!r}, want {REFERENCE_SCHEMA!r})"
        )
    if not data.get("entries"):
        raise CalibrationError(f"{path}: reference has no entries")
    return data


__all__ = [
    "REFERENCE_SCHEMA",
    "BATTERIES",
    "default_battery",
    "tiny_battery",
    "measure_battery",
    "write_reference",
    "load_reference",
]
