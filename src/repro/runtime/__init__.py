"""Real-concurrency execution backends (threads and processes).

Runs the *same* algorithm coroutines as the simulator, but against
real concurrency and the wall clock:

* :mod:`repro.runtime.executor` -- one Python thread per rank over
  thread-safe channels.  Threads time-share the GIL, so wall-clock
  numbers are not a performance comparison; this interpreter is about
  *semantics* (asynchronous receipts, skip-send rule, centralized
  convergence detection, really executable outside the simulation);
* :mod:`repro.runtime.process_hub` -- one OS process per rank over
  picklable ``multiprocessing`` queues.  No shared GIL: compute-bound
  multi-rank scenarios run genuinely in parallel, so this interpreter
  is about both semantics *and* real multi-core wall-clock speedups.

Both receive through one :class:`~repro.runtime.channels.Mailbox` per
rank, fed under a ``Condition`` on threads and from the rank's inbox
queue in a process.  Both honour the message-level fault subset
(:mod:`repro.runtime.faults`): a delayed message waits at its
receiver's mailbox until its due time.  Both are reaped -- not leaked
-- when a run exceeds its timeout.
"""

from repro.runtime.channels import ChannelClosed, ChannelHub
from repro.runtime.executor import (
    BackendTimeoutError,
    ThreadTimeoutError,
    ThreadWorkerError,
    run_threads,
)

__all__ = [
    "ChannelHub",
    "ChannelClosed",
    "ThreadWorkerError",
    "ThreadTimeoutError",
    "BackendTimeoutError",
    "run_threads",
]
