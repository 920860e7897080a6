"""Dynamic load balancing coupled with asynchronous iterations.

AIAC with and without dynamic load balancing on a heterogeneous or
perturbed grid is an extension, not a result of the paper: its Section 6
only points to balancing, and coupling it with asynchronism is the
authors' companion IPDPS'03 work.  The comparison needs three pieces,
and this package provides all of them as declarative, backend-agnostic
values:

* :class:`BalancingPlan` -- the JSON-round-trippable policy knob
  attached to :class:`repro.api.Scenario` (``balancer=...``), naming a
  registered policy (``"diffusion"``, ``"none"``, or your own via
  :func:`register_balancer`);
* :class:`~repro.balancing.estimator.RateEstimator` -- per-rank speed
  measured from observed iteration rates (virtual clock on the
  simulator, wall clock on threads);
* :class:`~repro.balancing.protocol.MigrationEngine` -- the in-band
  two-phase row handoff that keeps the skip-send rule, convergence
  detection and fault injection correct on both backends.

Quickstart::

    from repro.api import Scenario, run_scenario
    from repro.balancing import BalancingPlan

    scenario = Scenario(problem="sparse_linear",
                        cluster="local_cluster",     # heterogeneous mix
                        cluster_params={"speed_scale": 4e-4},
                        environment="pm2", n_ranks=6,
                        balancer=BalancingPlan(policy="diffusion"))
    balanced = run_scenario(scenario)
    control = run_scenario(scenario.derive(balancer__policy="none"))
    assert balanced.makespan < control.makespan   # rows moved off the Durons

Protocol walkthrough and policy vocabulary: ``docs/balancing.md``.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.balancing.estimator import RateEstimator
from repro.balancing.policy import (
    BALANCER_REGISTRY,
    BalancingPlan,
    DiffusionBalancer,
    NoopBalancer,
    RankLoad,
    get_balancer,
    list_balancers,
    register_balancer,
)
from repro.balancing.protocol import MIGRATION_TAG, MigrationEngine


def compile_plan(
    scenario,
    problem,
    make_solver: Optional[Callable] = None,
) -> Tuple[Callable, Callable]:
    """Resolve a scenario's balancing plan into backend-ready factories.

    Returns ``(solver_factory, engine_factory)`` where
    ``solver_factory(rank, size)`` builds migratable local solvers and
    ``engine_factory(rank, size)`` builds per-rank
    :class:`MigrationEngine` instances.  Raises ``ValueError`` when the
    scenario's worker or problem cannot support migration -- balancing
    needs the asynchronous single-level worker (``"aiac"``) and a
    problem exposing ``make_migratable``.
    """
    plan = scenario.balancer
    if plan is None:
        raise ValueError("scenario carries no balancing plan")
    worker = scenario.resolve_worker(problem)
    if worker != "aiac":
        raise ValueError(
            f"load balancing requires the 'aiac' worker, but this scenario "
            f"resolves to {worker!r} (synchronous and stepped workers keep "
            "their static partition)"
        )
    if make_solver is None:
        factory = getattr(problem, "make_migratable", None)
        if factory is None:
            raise ValueError(
                f"problem {scenario.problem!r} does not support row "
                "migration (no make_migratable factory)"
            )
    else:
        factory = make_solver

    def engine_factory(rank: int, size: int) -> MigrationEngine:
        return MigrationEngine(plan, rank, size)

    return factory, engine_factory


__all__ = [
    "BalancingPlan",
    "RankLoad",
    "BALANCER_REGISTRY",
    "register_balancer",
    "get_balancer",
    "list_balancers",
    "NoopBalancer",
    "DiffusionBalancer",
    "RateEstimator",
    "MigrationEngine",
    "MIGRATION_TAG",
    "compile_plan",
]
