"""Failure-injection tests: divergence caps, starvation, broken topologies."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Scenario, SimulatedBackend
from repro.core.aiac import AIACOptions
from repro.clusters import uniform_cluster
from repro.core.effects import Iterate, Send
from repro.envs.base import CommPolicy
from repro.linalg.sparse import MultiDiagonalMatrix
from repro.problems.sparse_linear import SparseLinearConfig, SparseLinearProblem
from repro.simgrid.host import Host
from repro.simgrid.link import Link
from repro.simgrid.network import Network, NoRouteError
from repro.simgrid.world import ProcessFailure, World


def work(flops):
    """An ``Iterate`` over a stub solver whose iteration costs ``flops``."""
    done = SimpleNamespace(flops=flops)
    return Iterate(SimpleNamespace(iterate=lambda: done))


def _divergent_problem(n=60):
    """A system whose Jacobi iteration diverges (spectral radius > 1)."""
    problem = SparseLinearProblem(SparseLinearConfig(n=n, n_diagonals=6))
    diag = problem.matrix.diagonal()
    problem.matrix.set_diagonal(0, diag * 0.2)  # destroy dominance
    # Rebuild the kernel against the sabotaged matrix.
    from repro.linalg.gradient import FixedStepGradient

    problem.kernel = FixedStepGradient(problem.matrix, problem.b, 1.0)
    return problem


def _run(problem, environment, worker, opts, n_ranks=4, speed=1e7):
    """Run ``problem``'s solvers on a uniform cluster of ``n_ranks`` hosts."""
    scenario = Scenario(
        problem="sparse_linear",
        problem_params={"n": problem.n, "n_diagonals": 6},
        environment=environment,
        algorithm=worker,
        n_ranks=n_ranks,
        cluster_params={"speed": speed},
        options=opts,
    )
    return SimulatedBackend().run(scenario, make_solver=problem.make_local)


def test_divergent_system_hits_iteration_cap_not_infinite_loop():
    """The paper: "a limit is set over the number of iterations in order
    to avoid infinite execution when the process does not converge"."""
    problem = _divergent_problem()
    assert problem.spectral_bound() > 1.0
    result = _run(
        problem, "pm2", "aiac",
        AIACOptions(eps=1e-8, stability_count=3, max_iterations=80),
    )
    assert not result.converged
    assert result.max_iterations == 80


def test_divergent_system_sisc_also_capped():
    problem = _divergent_problem()
    result = _run(
        problem, "sync_mpi", "sisc", AIACOptions(eps=1e-8, max_iterations=25)
    )
    assert not result.converged
    assert all(r.iterations == 25 for r in result.reports.values())


def test_unfair_scheduler_starves_old_messages():
    """Section 6: without a fair scheduler "the communications managed by
    the latter [threads] are not performed" -- LIFO service starves the
    oldest queued receive jobs while load persists."""
    # Plenty of sending threads so the outgoing side stays in order and
    # only the single receive thread's (un)fairness shows.
    policy = CommPolicy(
        name="unfair", n_send_threads=4, n_recv_threads=1, fair=False,
        send_base=0.0, recv_base=1.0, thread_spawn_cost=0.0,
    )
    fair = policy.with_overrides(name="fair", fair=True)
    order = {}
    for label, pol in [("unfair", policy), ("fair", fair)]:
        net = uniform_cluster(2, bandwidth=1e9, latency=1e-6)
        world = World(net, pol)

        def sender(rank, size):
            for i in range(4):
                yield Send(1, "d", i, 1.0)
            yield work(1.0)

        def receiver(rank, size):
            yield work(1e12)  # wait long enough for all handling
            from repro.core.effects import Drain
            msgs = yield Drain("d")
            return [m.payload for m in sorted(msgs, key=lambda m: m.delivered_at)]

        world.spawn(sender(0, 2))
        world.spawn(receiver(1, 2))
        world.run()
        order[label] = world.results[1]
    assert order["fair"] == [0, 1, 2, 3]
    # LIFO: message 0 starts first (idle thread), the rest invert.
    assert order["unfair"] == [0, 3, 2, 1]


def test_missing_route_fails_the_run_cleanly():
    net = Network()
    a = net.add_host(Host(name="a", speed=1e6))
    b = net.add_host(Host(name="b", speed=1e6))
    link = net.add_link(Link(name="l", latency=1e-3, bandwidth=1e6))
    net.add_route(a, b, [link])  # no way back

    world = World(net, CommPolicy(name="t"))

    def talks_back(rank, size):
        if rank == 1:
            yield Send(0, "d", None, 8.0)  # b -> a has no route
        else:
            yield work(1.0)

    world.spawn(talks_back(0, 2))
    world.spawn(talks_back(1, 2))
    with pytest.raises(ProcessFailure):
        world.run()


def test_zero_stability_count_rejected_up_front():
    with pytest.raises(ValueError):
        from repro.core.convergence import LocalConvergenceTracker

        LocalConvergenceTracker(1e-6, stability_count=0)


def test_freshness_window_blocks_convergence_without_messages():
    """With a freshness window, a rank that stops hearing from its
    dependencies cannot (falsely) report convergence forever."""
    problem = SparseLinearProblem(SparseLinearConfig(n=80, dominance=0.6))
    result = _run(
        problem, "pm2", "aiac",
        AIACOptions(
            eps=1e-8, stability_count=3, max_iterations=4000, freshness_window=30,
        ),
        n_ranks=2, speed=1e6,
    )
    # Healthy network: the window never blocks a true convergence.
    assert result.converged
    assert problem.solution_error(result.solution()) < 1e-4
