"""AIAC: Asynchronous Iterations, Asynchronous Communications.

This package is the paper's primary contribution rebuilt as a library:

* :mod:`repro.core.model` -- the formal model of Section 1.2
  (Algorithm 1): activation sets ``J(t)``, per-block delays and the
  general asynchronous iteration executor, used to verify convergence
  theory (Bertsekas-Tsitsiklis / El Tarazi conditions) with
  property-based tests;
* :mod:`repro.core.convergence` -- the termination protocol, whole: one
  effect-free ``Detector`` per rank over the paper's oscillation guard
  ("we count a specified number of iterations under local convergence
  before assuming it has actually been reached") and the centralized
  coordinator's panel;
* :mod:`repro.core.comm` -- the asynchronous send scheduler with the
  skip-send rule ("data are actually sent only if any previous sending
  of the same data to the same destination is terminated");
* :mod:`repro.core.aiac` -- the AIAC worker coroutines (single-level
  and time-stepped variants, Section 4.3): the effects around a Detector;
* :mod:`repro.core.sisc` -- the synchronous (SISC) counterparts used as
  the paper's baseline;
* :mod:`repro.core.run` -- helpers that bind workers, problems,
  environments and clusters into a simulated or threaded execution.
"""

from repro.core.model import (
    AsyncSchedule,
    BlockFixedPoint,
    run_asynchronous,
    run_synchronous,
    synchronous_schedule,
)
from repro.core.convergence import Detector
from repro.core.comm import SendScheduler
from repro.core.aiac import AIACOptions, WorkerReport, aiac_worker, aiac_stepped_worker
from repro.core.sisc import sisc_worker, sisc_stepped_worker
from repro.core.run import RunResult, simulate

__all__ = [
    "AsyncSchedule",
    "BlockFixedPoint",
    "run_asynchronous",
    "run_synchronous",
    "synchronous_schedule",
    "Detector",
    "SendScheduler",
    "AIACOptions",
    "WorkerReport",
    "aiac_worker",
    "aiac_stepped_worker",
    "sisc_worker",
    "sisc_stepped_worker",
    "RunResult",
    "simulate",
]
