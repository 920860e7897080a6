#!/usr/bin/env python
"""Run the *same* scenario value on real Python threads.

Everything else in this repository simulates time; this example shows
the worker coroutines are a genuine working implementation: one
:class:`repro.api.Scenario` executes unchanged on
:class:`repro.api.ThreadedBackend` -- a thread per rank with real
asynchronous channels, real receipts-at-any-time and the real
convergence-detection protocol -- and yields the same unified
:class:`repro.api.RunResult` as the simulator.

Run:  python examples/threads_backend.py
Illustrates:  docs/backends.md
"""

from repro.api import Scenario, ThreadedBackend
from repro.core.aiac import AIACOptions
from repro.problems import make_sparse_linear_problem


def main() -> None:
    problem = make_sparse_linear_problem(n=200, eps=1e-8, sign_structure="random")
    backend = ThreadedBackend()
    base = Scenario(
        problem="sparse_linear",
        problem_params=dict(n=200, eps=1e-8, sign_structure="random"),
        n_ranks=3,
    )

    # Synchronous run: same iterations as the sequential algorithm.
    sisc = backend.run(base.derive(
        algorithm="sisc",
        options=AIACOptions(eps=1e-8, stability_count=3, max_iterations=20_000),
    ))
    print(f"SISC on threads: wall {sisc.makespan:.3f} s, "
          f"iterations {sisc.reports[0].iterations}, "
          f"converged {sisc.converged}, "
          f"error {problem.solution_error(sisc.solution()):.2e}")

    # Asynchronous run: each thread iterates at its own pace; the
    # freshness window keeps convergence detection honest against OS
    # scheduling bursts.
    aiac = backend.run(base.derive(
        algorithm="aiac",
        options=AIACOptions(eps=1e-8, stability_count=40,
                            max_iterations=40_000, freshness_window=40),
    ))
    iters = [aiac.reports[r].iterations for r in sorted(aiac.reports)]
    print(f"AIAC on threads: wall {aiac.makespan:.3f} s, "
          f"per-rank iterations {iters}, "
          f"error {problem.solution_error(aiac.solution()):.2e}")
    print(f"messages exchanged: {aiac.backend_stats['messages_sent']}")
    print("\nNote: on one core the threads time-share, so wall times are "
          "not a performance comparison -- that is what the simulator is "
          "for.  This demonstrates protocol correctness on real threads.")


if __name__ == "__main__":
    main()
