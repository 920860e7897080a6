"""Execution backends: one :class:`Scenario`, three ways to run it.

* :class:`SimulatedBackend` binds the scenario to the discrete-event
  simulator (:mod:`repro.simgrid`);
* :class:`ThreadedBackend` interprets the same worker coroutines on
  real Python threads (:mod:`repro.runtime`), validating protocol
  correctness outside the simulation;
* :class:`ProcessBackend` interprets them on real OS processes
  (:mod:`repro.runtime.process_hub`) with picklable queue channels --
  no shared GIL, so compute-bound multi-rank scenarios get genuine
  parallel wall-clock speedups on multi-core hosts.

A scenario's :class:`~repro.api.faults.FaultPlan` is compiled here:
the simulated backend installs every fault kind on the
``World``/``Network``/``Link`` layer, the threaded and process
backends honour the loss/duplication/reorder/crash subset on their
channel layers, and all report what happened through
:attr:`RunResult.faults`.

All return the unified :class:`repro.api.result.RunResult`.  Backends
are plain picklable dataclasses, addressable by name through
``get_backend`` so sweeps can ship them across process pools.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Protocol, runtime_checkable

from repro.api.result import RunResult
from repro.api.scenario import Scenario
from repro.core.run import get_worker
from repro.registry import Registry
from repro.runtime.executor import run_threads


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a scenario into a unified result.

    Implement ``run`` plus a ``name``, register with
    :func:`register_backend`, and ``sweep``/``run_scenario``/the CLI
    pick the backend up by name::

        @register_backend("my_backend")
        class MyBackend:
            name = "my_backend"
            def run(self, scenario):
                ...
                return RunResult(makespan=..., reports=..., backend=self.name)

    Semantics of the two built-ins: ``docs/backends.md``.
    """

    name: str

    def run(self, scenario: Scenario) -> RunResult:
        ...


BACKEND_REGISTRY = Registry("backend")


def register_backend(name=None, **kwargs) -> Callable:
    """Register a backend class under a short name (decorator)::

        @register_backend("my_backend")
        class MyBackend: ...
    """
    return BACKEND_REGISTRY.register(name, **kwargs)


def get_backend(name: str, **kwargs: Any) -> Backend:
    """Instantiate a backend by name::

        backend = get_backend("threaded", timeout=60.0)
        result = backend.run(scenario)
    """
    return BACKEND_REGISTRY.get(name)(**kwargs)


def list_backends() -> List[str]:
    """Sorted names of all registered backends::

        >>> list_backends()
        ['process', 'simulated', 'threaded']
    """
    return BACKEND_REGISTRY.names()


def scenario_coroutine_factory(
    scenario: Scenario,
    make_solver: Optional[Callable] = None,
    memo: Optional[Any] = None,
) -> Callable:
    """Resolve a scenario into a ``(rank, size) -> worker generator``.

    The one resolution path shared by every in-process interpreter of
    the coroutines: the threaded backend calls it directly, and each
    worker process of the process backend calls it after rebuilding the
    scenario from its dict -- so the two real-concurrency backends can
    never drift in how they bind problems, workers, options and
    balancing plans.  ``memo`` is the solve memo
    :meth:`SimulatedBackend.run_many` hands its worlds' chemical solvers.
    """
    problem = scenario.build_problem()
    worker = get_worker(scenario.resolve_worker(problem))
    opts = scenario.resolved_options(problem)
    factory = make_solver or problem.make_local
    make_balancer = None
    if scenario.balancer is not None:
        from repro.balancing import compile_plan

        factory, make_balancer = compile_plan(scenario, problem, make_solver)
    if memo is not None:
        from repro.problems.chemical import ChemicalLocal

        build = factory

        def factory(rank: int, size: int):
            solver = build(rank, size)
            if isinstance(solver, ChemicalLocal):
                solver.memo = memo
            return solver
    if make_balancer is not None:
        def make_coroutine(rank: int, size: int):
            return worker(
                rank, size, factory(rank, size), opts,
                balancer=make_balancer(rank, size),
            )
    else:
        def make_coroutine(rank: int, size: int):
            return worker(rank, size, factory(rank, size), opts)
    return make_coroutine


def scenario_message_fault_injector(scenario: Scenario, stream: int = 0):
    """The channel-layer fault injector a scenario calls for, or ``None``.

    Only the message-level subset applies to in-process/queue channels:
    a plan holding nothing but link/host windows must not pay for a
    fault decision per message.
    ``stream`` selects a decorrelated per-rank RNG stream for the
    process backend; the threaded backend uses the default stream 0.
    """
    if scenario.faults is None or not scenario.faults.message_events():
        return None
    from repro.runtime.faults import ThreadFaultInjector

    return ThreadFaultInjector(
        scenario.faults, default_seed=scenario.seed, stream=stream
    )


def _wall_result(
    backend: str,
    scenario: Scenario,
    reports: Dict[int, Any],
    elapsed: float,
    messages_sent: int,
    faults: Dict[str, int],
    trace: Optional[Any],
) -> RunResult:
    """The result of a real-concurrency run, from what
    :func:`~repro.runtime.executor.run_threads` and
    :func:`~repro.runtime.process_hub.run_processes` return: the
    makespan is wall-clock seconds, and a traced run's ``GanttTrace``
    becomes a wall-clock :attr:`RunResult.timeline`."""
    timeline = None
    if trace is not None:
        from repro.obs.trace import Timeline

        timeline = Timeline.from_gantt(
            trace, backend=backend, clock="wall",
            meta={"elapsed": elapsed, "messages_sent": messages_sent},
        )
    return RunResult(
        makespan=elapsed,
        reports=reports,
        backend=backend,
        elapsed=elapsed,
        scenario=scenario,
        backend_stats={"messages_sent": messages_sent},
        faults=faults,
        timeline=timeline,
    )


@register_backend("simulated")
@dataclass
class SimulatedBackend:
    """Run scenarios on the discrete-event simulator.

    ``trace=True`` switches on the Gantt recorder behind
    ``result.world.trace`` (off by default; ``timeline=True`` switches
    it on itself); ``makespan`` of the produced result is in
    *simulated* seconds and is exactly reproducible run to run::

        result = SimulatedBackend().run(scenario)
        assert SimulatedBackend().run(scenario).makespan == result.makespan

    :meth:`run_many` runs a whole grid with one shared solve memo.  See
    ``docs/backends.md`` for what the simulator does and does not model.
    """

    name: ClassVar[str] = "simulated"

    trace: bool = False
    #: Attach a :class:`repro.obs.trace.Timeline` (virtual clock) built
    #: from the world's Gantt trace to :attr:`RunResult.timeline`.  The
    #: same flag name works on every backend, so ``repro trace`` and
    #: sweeps can pass ``timeline=True`` regardless of backend.
    timeline: bool = False

    def _bind(
        self,
        scenario: Scenario,
        make_solver: Optional[Callable],
        memo: Optional[Any] = None,
    ):
        """Wire ``scenario`` into a ready-to-run world; returns the world
        and the scenario's fault injector (``None`` without a plan).
        ``memo`` (``run_many`` only) reaches the world's chemical solvers."""
        from repro.simgrid.world import World

        network = scenario.build_network()
        if scenario.n_ranks > len(network.hosts):
            raise ValueError(
                f"{scenario.n_ranks} ranks but only {len(network.hosts)} "
                "hosts in the network"
            )
        policy = scenario.build_environment().comm_policy(
            scenario.kind, scenario.n_ranks
        )
        if scenario.policy_overrides:
            policy = policy.with_overrides(**scenario.policy_overrides)
        injector = None
        if scenario.faults is not None and not scenario.faults.is_empty:
            from repro.simgrid.faults import SimFaultInjector

            injector = SimFaultInjector(scenario.faults, default_seed=scenario.seed)
        make_coroutine = scenario_coroutine_factory(scenario, make_solver, memo)
        # A timeline needs the Gantt recorder even if trace=False.
        world = World(
            network, policy, trace=self.trace or self.timeline, faults=injector
        )
        for rank in range(scenario.n_ranks):
            world.spawn(make_coroutine(rank, scenario.n_ranks))
        return world, injector

    def _wrap(self, scenario, world, injector, started: float) -> RunResult:
        """The result of a finished ``world`` (``world.run()`` returned)."""
        reports = world.results
        for rank, report in reports.items():
            if hasattr(report, "busy_time"):
                report.busy_time = world.processes[rank].busy_time
        stats = world.stats()
        timeline = None
        if self.timeline:
            from repro.obs.trace import Timeline

            timeline = Timeline.from_gantt(
                world.trace, backend=self.name, clock="virtual", meta=stats,
            )
        return RunResult(
            makespan=world.makespan,
            reports=reports,
            backend=self.name,
            elapsed=time.perf_counter() - started,
            scenario=scenario,
            backend_stats=stats,
            faults={} if injector is None else dict(injector.counters),
            world=world,
            timeline=timeline,
        )

    def run(
        self,
        scenario: Scenario,
        make_solver: Optional[Callable] = None,
    ) -> RunResult:
        """Execute ``scenario``; ``make_solver`` optionally overrides the
        problem's ``(rank, size) -> LocalSolver`` factory (escape hatch
        for programmatic ablations such as load-balanced partitions)."""
        started = time.perf_counter()
        world, injector = self._bind(scenario, make_solver)
        world.run()
        return self._wrap(scenario, world, injector, started)

    def run_many(
        self,
        scenarios: List[Scenario],
        make_solver: Optional[Callable] = None,
    ) -> List[RunResult]:
        """Execute many scenarios, one after another, sharing one memo.

        The worlds' chemical solvers share a
        :class:`~repro.problems.chemical.SolveMemo`, so a grid whose
        points advance the same trajectory on differently-timed hardware
        (a cluster-parameter sweep) solves each Newton update once.
        Each returned result is bit-identical to ``run()`` of the same
        scenario, engine event total included.  A failed scenario raises
        (the first failure, after the others have still run); sweeps
        wanting per-unit isolation catch and fall back to ``run()``.
        """
        from repro.problems.chemical import SolveMemo

        memo = SolveMemo()
        results: List[RunResult] = []
        failure: Optional[Exception] = None
        for scenario in scenarios:
            started = time.perf_counter()
            try:
                world, injector = self._bind(scenario, make_solver, memo)
                world.run()
            except Exception as exc:  # noqa: BLE001 - raised after the rest
                failure = failure or exc
                continue
            results.append(self._wrap(scenario, world, injector, started))
        if failure is not None:
            raise failure
        return results


@register_backend("threaded")
@dataclass
class ThreadedBackend:
    """Run scenarios on one real Python thread per rank.

    The cluster topology and communication policy do not apply (wall
    time is real and channels are in-process); the environment still
    chooses the default algorithm, so the same scenario value runs
    unchanged.  ``makespan`` of the produced result is wall-clock
    seconds::

        result = ThreadedBackend(timeout=60.0).run(scenario)

    Iteration counts vary between runs (real concurrency); a converged
    result is still always correct.  See ``docs/backends.md``.
    """

    name: ClassVar[str] = "threaded"

    timeout: float = 120.0
    #: Record wall-clock compute/idle/comm spans per rank and attach
    #: them as :attr:`RunResult.timeline` (clock ``"wall"``).
    timeline: bool = False

    def run(
        self,
        scenario: Scenario,
        make_solver: Optional[Callable] = None,
    ) -> RunResult:
        outcome = run_threads(
            scenario_coroutine_factory(scenario, make_solver),
            scenario.n_ranks,
            timeout=self.timeout,
            faults=scenario_message_fault_injector(scenario),
            trace=self.timeline,
        )
        return _wall_result(self.name, scenario, *outcome)


@register_backend("process")
@dataclass
class ProcessBackend:
    """Run scenarios with one real OS process per rank.

    The only backend that escapes the GIL: ranks execute on separate
    cores, channels are picklable ``multiprocessing`` queues, and
    ``makespan`` is wall-clock seconds for a *genuinely parallel* run.
    The cluster topology and communication policy do not apply (as on
    the threaded backend); the loss/duplication/reorder/crash fault
    subset, dynamic load balancing and per-rank progress accounting
    all do::

        result = ProcessBackend(timeout=120.0).run(scenario)

    ``start_method`` forces a ``multiprocessing`` start method
    (``"spawn"``/``"fork"``/``"forkserver"``); the child bootstrap
    re-imports :mod:`repro.api`, so registries survive spawn.  A run
    that exceeds ``timeout`` is reaped (children terminated) and raises
    :class:`~repro.runtime.process_hub.ProcessTimeoutError`.  See
    ``docs/backends.md``.
    """

    name: ClassVar[str] = "process"

    timeout: float = 120.0
    start_method: Optional[str] = None
    #: Record wall-clock spans inside every worker process, merged in
    #: the parent and attached as :attr:`RunResult.timeline`.
    timeline: bool = False

    def run(
        self,
        scenario: Scenario,
        make_solver: Optional[Callable] = None,
    ) -> RunResult:
        if make_solver is not None:
            raise ValueError(
                "ProcessBackend rebuilds solvers from the scenario inside "
                "each worker process; a make_solver override cannot cross "
                "the process boundary (use the scenario's problem_params, "
                "or the simulated/threaded backends)"
            )
        from repro.runtime.process_hub import run_processes

        outcome = run_processes(
            scenario, timeout=self.timeout, start_method=self.start_method,
            trace=self.timeline,
        )
        return _wall_result(self.name, scenario, *outcome)


def run_scenario(
    scenario: Scenario,
    backend: Any = None,
    **backend_kwargs: Any,
) -> RunResult:
    """One-call convenience: run a scenario on a backend (by name or value)::

        result = run_scenario(scenario)                       # simulated
        result = run_scenario(scenario, backend="threaded")   # by name
        result = run_scenario(scenario, backend="threaded", timeout=30.0)

    Keyword arguments are forwarded to the backend constructor when the
    backend is given by name (or omitted).
    """
    if backend is None:
        backend = SimulatedBackend(**backend_kwargs)
    elif isinstance(backend, str):
        backend = get_backend(backend, **backend_kwargs)
    elif backend_kwargs:
        raise TypeError(
            "backend_kwargs only apply when the backend is given by name; "
            f"got an instance plus {sorted(backend_kwargs)}"
        )
    return backend.run(scenario)


__all__ = [
    "Backend",
    "BACKEND_REGISTRY",
    "register_backend",
    "get_backend",
    "list_backends",
    "SimulatedBackend",
    "ThreadedBackend",
    "ProcessBackend",
    "run_scenario",
    "scenario_coroutine_factory",
    "scenario_message_fault_injector",
]
