"""``repro.serve``: the scenario submission service (the front door).

Everything before this package runs scenarios as one-off library
calls; this package makes the repo a *system*: a long-running
scheduler daemon that accepts scenario submissions over a
newline-delimited-JSON socket protocol, queues them by integer
priority, dispatches them to a pool of backend worker processes with
per-job timeout and bounded retry, caches every result on disk keyed
by scenario content-hash + seed (repeat submissions are free), and
journals accepted jobs so a killed daemon resumes its queue.

Modules
-------

==============  =====================================================
``protocol``    wire frames, verbs, job states, validation errors
``queue``       ``Job``, priority queue, journal, the ``WorkQueue`` core
``cache``       content-hash-keyed on-disk result store
``workers``     the backend worker-process pool (deadline reaping)
``daemon``      ``Scheduler`` (queue shell) + ``ServeDaemon`` (TCP)
``client``      ``ServeClient`` -- submit / status / result / cancel
==============  =====================================================

Quickstart (one process each)::

    $ repro serve --port 7341 --state-dir .repro-serve --workers 2

    from repro.api import Scenario
    from repro.serve import ServeClient

    with ServeClient(port=7341) as client:
        ack = client.submit(Scenario(problem="sparse_linear"), priority=5)
        record = client.wait(ack["id"])["record"]

User guide: ``docs/serving.md``.  Load harness:
``benchmarks/serve_load.py``.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import Scheduler, ServeDaemon
from repro.serve.protocol import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    ProtocolError,
)
from repro.serve.queue import Job, JobQueue, Journal, WorkQueue
from repro.serve.workers import WorkerPool

__all__ = [
    "ServeDaemon",
    "Scheduler",
    "ServeClient",
    "ServeError",
    "ResultCache",
    "WorkerPool",
    "Job",
    "JobQueue",
    "Journal",
    "WorkQueue",
    "ProtocolError",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
]
