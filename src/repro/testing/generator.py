"""Seeded random scenario generator for the conformance kit.

``generate_scenarios(n, seed)`` produces ``n`` fully-described
:class:`~repro.api.Scenario` values spanning the dimensions the paper
varies -- problem size, cluster heterogeneity, communication policy --
plus the dimension this repo adds on top: adverse grid conditions as
:class:`~repro.api.faults.FaultPlan` values.

Everything is driven by one ``random.Random(seed)`` stream, so the
same seed always yields the same scenario list (the conformance
report names scenarios ``gen<seed>-<index>-...``; regenerating with
the same seed and filtering by name reproduces any single one).

Timed fault windows need a time scale: the generator probes the
fault-free scenario once on the (deterministic) simulated backend and
sizes the window as a fraction of that makespan, which guarantees the
window actually overlaps the run -- degradation *and* recovery both
happen, observably, in the fault counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.api import Scenario
from repro.balancing import BalancingPlan
from repro.api.faults import (
    FaultEvent,
    FaultPlan,
    HostSlowdown,
    LinkDegradation,
    MessageDuplication,
    MessageLoss,
    MessageReorder,
    RankCrash,
)
from repro.core.aiac import AIACOptions


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random scenario space.

    The defaults keep every scenario small enough that a 25-scenario
    conformance sweep (two backends plus a determinism re-run each)
    finishes in CI-smoke time.
    """

    environments: Tuple[str, ...] = ("sync_mpi", "pm2", "mpimad", "omniorb")
    min_ranks: int = 2
    max_ranks: int = 5
    #: Fraction of scenarios that carry a fault plan.
    fault_fraction: float = 0.5
    #: Fraction of *faulty* scenarios whose plan has a timed window
    #: (link degradation / host slowdown / rank crash) sized by probing
    #: the fault-free makespan.
    windowed_fraction: float = 0.5
    #: Fraction of scenarios using the (slower) chemical problem.
    chemical_fraction: float = 0.1
    #: Fraction of eligible (asynchronous sparse) scenarios expanded
    #: into a balanced/unbalanced *pair*: the same base scenario once
    #: with the diffusion balancer and once with the no-op baseline,
    #: both running the migratable machinery.  Each pair consumes two
    #: of the ``n`` slots.
    balanced_fraction: float = 0.25
    sparse_sizes: Tuple[int, ...] = (120, 160, 200, 260)
    max_iterations: int = 5000

    def __post_init__(self) -> None:
        if not 1 <= self.min_ranks <= self.max_ranks:
            raise ValueError("need 1 <= min_ranks <= max_ranks")
        for name, value in [
            ("fault_fraction", self.fault_fraction),
            ("windowed_fraction", self.windowed_fraction),
            ("chemical_fraction", self.chemical_fraction),
            ("balanced_fraction", self.balanced_fraction),
        ]:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


DEFAULT_CONFIG = GeneratorConfig()


def _pick_problem(rng: random.Random, config: GeneratorConfig, n_ranks: int):
    """(problem name, problem_params, options) for one scenario."""
    if rng.random() < config.chemical_fraction and n_ranks <= 4:
        # A tiny two-step instance of the stepped chemical problem.
        params: Dict[str, Any] = {"nx": 8, "nz": 8, "t_end": 360.0, "dt": 180.0}
        return "chemical", params, None
    params = {
        "n": rng.choice(config.sparse_sizes),
        "n_diagonals": rng.choice((4, 6, 8)),
        "dominance": round(rng.uniform(0.55, 0.8), 3),
        "sign_structure": "random" if rng.random() < 0.8 else "negative",
    }
    options = AIACOptions(
        eps=1e-6,
        stability_count=rng.choice((2, 3, 4)),
        max_iterations=config.max_iterations,
    )
    return "sparse_linear", params, options


#: Reference speed of the machine-mix presets (fastest paper machine);
#: ``speed_scale`` is expressed against it.
_MIX_REFERENCE_SPEED = 1.2e8


def _flops_per_iteration(params: Dict[str, Any], n_ranks: int) -> float:
    """Rough per-rank flops of one sparse-linear iteration."""
    n = params.get("n", 2000)
    diagonals = params.get("n_diagonals", 30) + 1
    return max(1.0, 2.0 * (n / n_ranks) * diagonals)


def _pick_cluster(
    rng: random.Random,
    n_ranks: int,
    problem_params: Dict[str, Any],
):
    """(cluster name, cluster_params) -- heterogeneity axis.

    Host speeds are calibrated so one iteration of the generated
    problem costs milliseconds of virtual time, the same
    computation/communication regime the paper's full-size runs (and
    this repo's experiment calibrations, see :mod:`repro.experiments`)
    operate in.  Without this, a toy-size block iterates microseconds
    apart while per-message software costs are milliseconds: data
    exchange starves, every rank spins to the iteration cap on stale
    data, and the runs say nothing about the protocol.
    """
    # One iteration must also outlast the *receive path* of a full
    # fan-in (the slowest environment serialises ~4.5 ms per message on
    # one reception thread), or the all-to-all traffic backlogs and the
    # stop signal starves behind it.
    iteration_s = max(1, n_ranks - 1) * rng.uniform(8e-3, 2e-2)
    speed = _flops_per_iteration(problem_params, n_ranks) / iteration_s
    choice = rng.random()
    if choice < 0.4:
        return "uniform_cluster", {"speed": speed}
    if choice < 0.6:
        # Homogeneous but slow fabric: stresses the comm/compute ratio.
        return "uniform_cluster", {
            "speed": speed,
            "latency": rng.choice((5e-4, 2e-3)),
        }
    scale = speed / _MIX_REFERENCE_SPEED
    if choice < 0.8:
        return "local_cluster", {"speed_scale": scale}
    n_sites = rng.randint(2, min(3, n_ranks))
    return "ethernet_wan", {"n_sites": n_sites, "speed_scale": scale}


def _timeless_events(rng: random.Random) -> List[FaultEvent]:
    """Probability-based faults: meaningful on any time scale/backend."""
    kinds = rng.sample(["loss", "duplication", "reorder"], rng.randint(1, 2))
    events: List[FaultEvent] = []
    for kind in kinds:
        if kind == "loss":
            events.append(MessageLoss(probability=round(rng.uniform(0.05, 0.2), 3)))
        elif kind == "duplication":
            events.append(
                MessageDuplication(probability=round(rng.uniform(0.05, 0.2), 3))
            )
        else:
            events.append(
                MessageReorder(
                    probability=round(rng.uniform(0.1, 0.3), 3),
                    max_delay=rng.choice((1e-3, 5e-3)),
                )
            )
    return events


def _windowed_event(
    rng: random.Random, makespan: float, n_ranks: int, allow_crash: bool = True
) -> FaultEvent:
    """One timed fault sized as a fraction of the fault-free makespan."""
    start = rng.uniform(0.15, 0.35) * makespan
    span = rng.uniform(0.2, 0.4) * makespan
    kind = rng.choice(["link", "host", "crash"] if allow_crash else ["link", "host"])
    if kind == "link":
        return LinkDegradation(
            start=start,
            end=start + span,
            bandwidth_factor=round(rng.uniform(0.02, 0.2), 4),
            latency_add=rng.choice((0.0, 1e-3)),
        )
    if kind == "host":
        return HostSlowdown(
            start=start,
            end=start + span,
            factor=round(rng.uniform(0.2, 0.5), 3),
            steps=rng.choice((1, 3)),
        )
    # Crash a non-coordinator rank (the coordinator going dark stalls
    # global convergence detection for the whole outage, which is a
    # scenario worth testing but far slower; keep the sweep snappy).
    return RankCrash(
        rank=rng.randrange(1, n_ranks) if n_ranks > 1 else 0,
        at=start,
        downtime=span,
    )


def _probe_run(scenario: Scenario) -> Tuple[float, int]:
    """Deterministic fault-free (makespan, max per-rank iterations).

    The makespan sizes timed fault windows; the iteration count sizes
    the freshness window attached to crash plans (it must be shorter
    than the blackout, measured in iterations, to catch it).
    """
    from repro.api import SimulatedBackend

    result = SimulatedBackend().run(scenario)
    return result.makespan, result.max_iterations


def generate_scenarios(
    n: int,
    seed: int = 0,
    config: GeneratorConfig = DEFAULT_CONFIG,
) -> List[Scenario]:
    """``n`` deterministic random scenarios for seed ``seed``.

    Scenario names are ``gen<seed>-<index>-<problem>-<env>-r<ranks>``
    with a ``+faults`` suffix when a fault plan is attached and a
    ``+lb`` / ``+lb-off`` suffix on balanced/unbalanced pair members;
    the conformance CLI's ``--filter`` matches on these names.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    scenarios: List[Scenario] = []
    index = 0
    while len(scenarios) < n:
        n_ranks = rng.randint(config.min_ranks, config.max_ranks)
        problem, problem_params, options = _pick_problem(rng, config, n_ranks)
        if problem == "chemical":
            # The chemical problem's inner GMRES iterations are orders of
            # magnitude heavier; the default cluster speeds already put
            # it in a sane regime (the benchmark workloads run it as-is).
            n_ranks = min(n_ranks, 3)
            cluster, cluster_params = "uniform_cluster", {}
        else:
            cluster, cluster_params = _pick_cluster(rng, n_ranks, problem_params)
        environment = rng.choice(config.environments)
        policy_overrides: Dict[str, Any] = {}
        if rng.random() < 0.15:
            policy_overrides["fair"] = False
        scenario = Scenario(
            problem=problem,
            problem_params=problem_params,
            environment=environment,
            cluster=cluster,
            cluster_params=cluster_params,
            n_ranks=n_ranks,
            options=options,
            policy_overrides=policy_overrides,
            seed=rng.randrange(2**31),
            name=f"gen{seed}-{index:03d}-{problem}-{environment}-r{n_ranks}",
        )
        # Fault plans ride on the slimmer sparse scenarios only: the
        # chemical problem's halo tags are rendezvous exchanges, and its
        # runtime dominates the sweep as it is.  The synchronous
        # baseline's blocking exchanges model a *reliable* transport
        # (message faults never touch them -- dropping a rendezvous
        # would simply deadlock SISC), so sync scenarios draw their
        # adversity from the link/host windows the synchronous
        # algorithm does feel.
        if problem == "sparse_linear" and rng.random() < config.fault_fraction:
            asynchronous = environment != "sync_mpi"
            events = _timeless_events(rng) if asynchronous else []
            if not asynchronous or rng.random() < config.windowed_fraction:
                makespan, probe_iters = _probe_run(scenario)
                windowed = _windowed_event(
                    rng, makespan, n_ranks, allow_crash=asynchronous
                )
                events.append(windowed)
                if isinstance(windowed, RankCrash) and options is not None:
                    # A crash blackout starves providers *silently*: with
                    # only the heard-once freshness guard, the survivors
                    # can believe convergence on data frozen at crash
                    # time (split-brain -- worst with 2 ranks, where each
                    # half converges against the other's stale block).
                    # The sliding freshness window is the protocol's
                    # answer: quiet providers veto local convergence, so
                    # the run must outlast the blackout and re-converge
                    # on fresh data.  Sized in iterations *inside* the
                    # blackout (roughly half of it at the probed rate),
                    # and never so tight that ordinary message gaps trip
                    # it.
                    blackout_iters = probe_iters * (
                        (windowed.downtime or makespan) / max(makespan, 1e-9)
                    )
                    window = int(min(25, max(4, blackout_iters * 0.5)))
                    scenario = scenario.derive(
                        options=replace(options, freshness_window=window)
                    )
            plan = FaultPlan(events=tuple(events), seed=rng.randrange(2**31))
            scenario = scenario.derive(
                faults=plan, name=scenario.name + "+faults"
            )
        # Balanced/unbalanced pairs: the same scenario once with the
        # diffusion balancer and once with the no-op baseline (identical
        # migratable machinery), so the sweep exercises row migration --
        # including under whatever fault plan the scenario drew -- and
        # the "no row lost or duplicated" invariant on both backends.
        eligible_for_balancing = (
            problem == "sparse_linear"
            and environment != "sync_mpi"
            and n_ranks >= 2
            and len(scenarios) + 2 <= n
        )
        if eligible_for_balancing and rng.random() < config.balanced_fraction:
            balancing = BalancingPlan(
                policy="diffusion",
                period=rng.choice((10, 15, 20)),
                threshold=round(rng.uniform(0.05, 0.2), 3),
            )
            scenarios.append(
                scenario.derive(balancer=balancing, name=scenario.name + "+lb")
            )
            scenarios.append(
                scenario.derive(
                    balancer=BalancingPlan(policy="none", period=balancing.period),
                    name=scenario.name + "+lb-off",
                )
            )
        else:
            scenarios.append(scenario)
        index += 1
    return scenarios


__all__ = ["GeneratorConfig", "DEFAULT_CONFIG", "generate_scenarios"]
