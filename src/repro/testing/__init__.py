"""``repro.testing`` -- the cross-backend conformance kit.

The paper's claim only holds if the *same* scenario value behaves
soundly in every execution environment.  This package turns that into
an automated, randomized check:

* :mod:`repro.testing.generator` -- a seeded random scenario generator
  (problem size, cluster heterogeneity, communication policy, fault
  plan) whose output is fully deterministic per seed;
* :mod:`repro.testing.invariants` -- invariant checkers over a
  :class:`~repro.api.result.RunResult` (convergence detection is sound,
  a reported success really meets the tolerance, reports are complete);
* :mod:`repro.testing.conformance` -- the parity driver sweeping
  generated scenarios through both backends, asserting the invariants,
  the simulated backend's counter determinism, and cross-backend
  tolerance agreement; exposed as ``repro conformance``.

Quickstart::

    from repro.testing import generate_scenarios, run_conformance

    scenarios = generate_scenarios(10, seed=0)
    report = run_conformance(n=10, seed=0)
    assert report["passed"], report["failures"]

or, from a shell: ``repro conformance --n 25 --seed 0 --report out.json``.
See ``docs/testing.md`` for the fault-plan vocabulary and how to
reproduce a failing generated scenario from its seed.
"""

from repro.testing.conformance import run_conformance, run_scenario_conformance
from repro.testing.generator import generate_scenarios
from repro.testing.invariants import (
    check_invariants,
    check_row_partition,
    work_counters,
)

__all__ = [
    "generate_scenarios",
    "check_invariants",
    "check_row_partition",
    "work_counters",
    "run_conformance",
    "run_scenario_conformance",
]
