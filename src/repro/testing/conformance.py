"""The cross-backend parity driver behind ``repro conformance``.

For every generated scenario the driver:

1. runs the **simulated** backend twice and demands identical work
   counters (same-seed reproducibility -- problem setup, fault RNG and
   the event engine are all deterministic);
2. checks the :mod:`~repro.testing.invariants` on the simulated result
   and requires it to converge (the generator only emits survivable
   plans);
3. once per sweep, runs the *whole battery* through one ``run_many``
   (the ``mega`` placement's path: the worlds share one solve memo)
   and demands bit-identical work counters, event totals, makespan,
   faults and solutions of every member against its own run;
4. runs the **threaded** and **process** backends on the *same
   scenario value* (three-way parity), checks the same invariants on
   each, and -- for scenarios whose plan carries no message-level
   adversity -- requires convergence agreement with the simulator
   (all reach tolerance); a message-faulted scenario under real
   concurrency must stay *sound* (no premature halt, success implies
   tolerance) but wall-clock fault windows are allowed to change
   whether it converges before the iteration cap;
5. reaps any real-concurrency run that exceeds ``--timeout`` (threads
   poisoned, worker processes terminated) and surfaces the timeout as
   that scenario's failure instead of stalling the sweep;
6. across the sweep, requires that at least one windowed fault plan
   demonstrably degraded and recovered (non-zero ``recoveries`` in the
   fault counters) whenever the generator emitted one.

The report is a plain JSON-serializable dict; ``report["passed"]``
summarizes, ``report["failures"]`` names every offender with its
violations, and each entry carries the full scenario dict plus seed so
any failure is reproducible in isolation (``docs/testing.md``).
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import ProcessBackend, Scenario, SimulatedBackend, ThreadedBackend
from repro.api.faults import HostSlowdown, LinkDegradation, RankCrash
from repro.runtime.executor import BackendTimeoutError
from repro.testing.generator import DEFAULT_CONFIG, GeneratorConfig, generate_scenarios
from repro.testing.invariants import check_invariants, work_counters

#: The real-concurrency backends of the three-way parity battery, in
#: run order.  Each entry maps the report key to a backend factory
#: taking the per-scenario timeout.
CONCURRENT_BACKENDS: Tuple[Tuple[str, Callable[[float], Any]], ...] = (
    ("threaded", lambda timeout: ThreadedBackend(timeout=timeout)),
    ("process", lambda timeout: ProcessBackend(timeout=timeout)),
)


def _summary(result) -> Dict[str, Any]:
    return {
        "makespan": float(result.makespan),
        "converged": bool(result.converged),
        "total_iterations": int(result.total_iterations),
        "faults": {str(k): int(v) for k, v in sorted(result.faults.items())},
    }


def _parity_signature(result) -> Dict[str, Any]:
    """What ``run_many`` must reproduce bit for bit: the work counters
    plus the solution bytes."""
    signature = dict(work_counters(result))
    signature["solution"] = hashlib.sha1(result.solution().tobytes()).hexdigest()
    return signature


def _parity_diffs(reference: Dict[str, Any], other: Dict[str, Any]) -> List[str]:
    return [k for k in reference if reference[k] != other[k]]


def _has_windowed_plan(scenario: Scenario) -> bool:
    plan = scenario.faults
    if plan is None:
        return False
    return bool(plan.select(LinkDegradation, HostSlowdown, RankCrash))


def run_scenario_conformance(
    scenario: Scenario,
    threaded: bool = True,
    threaded_timeout: float = 60.0,
    process: bool = True,
) -> Dict[str, Any]:
    """Run one scenario through the full conformance battery.

    ``threaded``/``process`` select which real-concurrency backends run
    alongside the (always-on) simulated reference; ``threaded_timeout``
    is the shared per-run reap deadline for both.
    """
    record: Dict[str, Any] = {
        "name": scenario.name or "<unnamed>",
        "scenario": scenario.to_dict(),
        "has_faults": scenario.faults is not None and not scenario.faults.is_empty,
        "simulated": None,
        "parity": None,
        "mega_parity": None,
        "threaded": None,
        "process": None,
        "deterministic": None,
        "timed_out": [],
        "violations": [],
    }
    violations: List[str] = record["violations"]
    problem = scenario.build_problem()

    # The reference run rides the sweep executor's local placement --
    # the same path ``repro sweep --conformance`` takes -- so the
    # executor's record round-trip is itself under conformance test:
    # ``first`` is rebuilt from a to_record/from_record cycle and must
    # still satisfy every invariant and match the direct second run's
    # work counters.
    from repro.api.result import RunResult
    from repro.sweep import run_sweep

    try:
        outcome = run_sweep(
            [scenario],
            backend=SimulatedBackend(),
            placement="local",
            include_solution=True,
        )
        sweep_record = outcome.records[0]
        if "error" in sweep_record:
            raise RuntimeError(sweep_record["error"])
        first = RunResult.from_record(sweep_record)
        second = SimulatedBackend().run(scenario)
    except Exception as exc:  # noqa: BLE001 - reported per scenario
        violations.append(f"simulated backend raised {type(exc).__name__}: {exc}")
        record["ok"] = False
        return record
    record["simulated"] = _summary(first)
    record["deterministic"] = work_counters(first) == work_counters(second)
    if not record["deterministic"]:
        violations.append(
            "simulated backend is not reproducible: two runs of the same "
            "seeded scenario disagree on work counters"
        )

    # Kept on the record: the sweep-level mega leg compares against it.
    record["parity"] = _parity_signature(second)
    violations.extend(
        f"simulated: {v}" for v in check_invariants(scenario, first, problem)
    )
    if not first.converged:
        violations.append(
            "simulated: generated scenario failed to converge (the generator "
            "only emits survivable fault plans)"
        )

    enabled = {"threaded": threaded, "process": process}
    for name, make_backend in CONCURRENT_BACKENDS:
        if not enabled[name]:
            continue
        try:
            result = make_backend(threaded_timeout).run(scenario)
        except BackendTimeoutError as exc:
            # The run hung and was reaped (threads poisoned / worker
            # processes terminated): a per-scenario failure, never an
            # indefinite stall of the sweep.
            record["timed_out"].append(name)
            violations.append(
                f"{name} backend timed out after {threaded_timeout}s "
                f"and was reaped: {exc}"
            )
            record["ok"] = False
            continue
        except Exception as exc:  # noqa: BLE001 - reported per scenario
            violations.append(f"{name} backend raised {type(exc).__name__}: {exc}")
            record["ok"] = False
            continue
        record[name] = _summary(result)
        violations.extend(
            f"{name}: {v}" for v in check_invariants(scenario, result, problem)
        )
        # Tolerance agreement: the same scenario value must reach
        # tolerance on every interpreter.  The waiver applies only when
        # the plan carries message-level adversity (the subset the
        # channel layers honour): a plan of pure link/host windows is
        # invisible to the real-concurrency backends, so those runs are
        # effectively fault-free and must agree with the simulator.
        plan = scenario.faults
        faces_adversity = plan is not None and bool(plan.message_events())
        if not faces_adversity:
            if first.converged and not result.converged:
                violations.append(
                    f"tolerance disagreement: simulated converged but the "
                    f"{name} backend did not"
                )

    record["ok"] = not violations
    return record


def _check_mega_parity(
    scenarios: List[Scenario], records: List[Dict[str, Any]]
) -> List[str]:
    """Mark each record's ``mega_parity`` from one ``run_many`` of the
    battery; a member that disagrees with its scalar run gets the
    violation, ``run_many`` itself raising is returned for the sweep."""
    members = [(s, r) for s, r in zip(scenarios, records) if r["parity"] is not None]
    if not members:
        return []
    try:
        results = SimulatedBackend().run_many([s for s, _ in members])
    except Exception as exc:  # noqa: BLE001 - reported for the sweep
        return [f"mega run of the battery raised {type(exc).__name__}: {exc}"]
    for (_scenario, record), result in zip(members, results):
        diffs = _parity_diffs(record["parity"], _parity_signature(result))
        record["mega_parity"] = not diffs
        if diffs:
            record["violations"].append(
                "mega/scalar parity broken: the scenario inside one run_many "
                f"of the whole battery disagrees with its scalar run on {diffs}"
            )
            record["ok"] = False
    return []


def run_conformance(
    n: int = 25,
    seed: int = 0,
    filter: Optional[str] = None,
    threaded: bool = True,
    threaded_timeout: float = 60.0,
    process: bool = True,
    config: GeneratorConfig = DEFAULT_CONFIG,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Sweep ``n`` generated scenarios through the conformance battery.

    ``filter`` keeps only scenarios whose name contains the substring
    (after generation, so indices and seeds stay stable).  ``progress``
    is invoked with each per-scenario record as it completes.
    """
    started = time.perf_counter()
    scenarios = generate_scenarios(n, seed=seed, config=config)
    filtered_out = 0
    if filter:
        needle = filter.lower()
        kept = [s for s in scenarios if needle in (s.name or "").lower()]
        filtered_out = len(scenarios) - len(kept)
        scenarios = kept
    records = []
    for scenario in scenarios:
        record = run_scenario_conformance(
            scenario,
            threaded=threaded,
            threaded_timeout=threaded_timeout,
            process=process,
        )
        records.append(record)
        if progress is not None:
            progress(record)
    mega_violations = _check_mega_parity(scenarios, records)

    failures = [
        {"name": r["name"], "violations": r["violations"]}
        for r in records
        if not r["ok"]
    ]
    if mega_violations:
        failures.append({"name": "<sweep>", "violations": mega_violations})
    if not records:
        # "0 scenarios, all green" must never happen silently: a typo'd
        # --filter in the reproduce-a-failure workflow would otherwise
        # report a passing conformance run that tested nothing.
        failures.append(
            {
                "name": "<sweep>",
                "violations": [
                    f"filter {filter!r} matched none of the {filtered_out} "
                    f"generated scenario(s); nothing was tested"
                ],
            }
        )
    # The degrade-and-recover demonstration: if any windowed plan was
    # generated, at least one run must have observably recovered.
    windowed = [s for s in scenarios if _has_windowed_plan(s)]
    recovered = [
        r for r in records
        if r["simulated"] and r["simulated"]["faults"].get("recoveries", 0) > 0
    ]
    if windowed and not recovered:
        failures.append(
            {
                "name": "<sweep>",
                "violations": [
                    f"{len(windowed)} windowed fault plan(s) generated but no "
                    "run observed a recovery (fault windows missed the runs)"
                ],
            }
        )
    summary = {
        "scenarios": len(records),
        "faulty_scenarios": sum(1 for r in records if r["has_faults"]),
        "balanced_scenarios": sum(
            1 for s in scenarios
            if s.balancer is not None and not s.balancer.is_noop
        ),
        "windowed_fault_scenarios": len(windowed),
        "recovered_scenarios": len(recovered),
        "timed_out_scenarios": sum(1 for r in records if r.get("timed_out")),
        "deterministic": all(r.get("deterministic") for r in records),
        "mega_parity": all(r.get("mega_parity") for r in records),
        "elapsed_s": time.perf_counter() - started,
    }
    return {
        "n": n,
        "seed": seed,
        "filter": filter,
        "threaded": threaded,
        "process": process,
        "passed": not failures,
        "failures": failures,
        "summary": summary,
        "scenarios": records,
    }


__all__ = ["run_conformance", "run_scenario_conformance", "CONCURRENT_BACKENDS"]
