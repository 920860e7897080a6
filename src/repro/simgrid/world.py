"""Top-level simulation container.

A :class:`World` wires an :class:`~repro.simgrid.engine.Engine`, a
:class:`~repro.simgrid.network.Network`, a communication policy (the
programming-environment model) and a set of processes together, runs
them, and exposes results, traces and transport statistics.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.core.trace import Timeline
from repro.envs.base import CommPolicy
from repro.simgrid.comm import Transport
from repro.simgrid.engine import Engine, SimulationError
from repro.simgrid.host import Host
from repro.simgrid.network import Network
from repro.simgrid.process import Process, ProcessState


class ProcessFailure(RuntimeError):
    """A simulated process raised; re-raised with context at run()."""


class World:
    """One simulated execution of a parallel program.

    Parameters
    ----------
    network:
        The topology (hosts, links, routes).
    policy:
        The :class:`~repro.envs.base.CommPolicy` of the programming
        environment under test.
    hosts:
        Hosts to place ranks on, in rank order.  Defaults to
        ``network.hosts`` order.
    trace:
        Record the run's :class:`~repro.core.trace.Timeline` (small
        overhead; on by default).
    faults:
        Optional :class:`~repro.simgrid.faults.SimFaultInjector`
        compiled from a scenario's fault plan; installed when the run
        starts (window events on the engine, message filter on the
        transport).
    """

    def __init__(
        self,
        network: Network,
        policy: CommPolicy,
        hosts: Optional[List[Host]] = None,
        trace: bool = True,
        faults: Optional[Any] = None,
    ) -> None:
        self.engine = Engine()
        self.network = network
        self.policy = policy
        self.hosts = list(hosts) if hosts is not None else list(network.hosts)
        if not self.hosts:
            raise ValueError("world needs at least one host")
        self.trace = Timeline("simulated", "virtual", enabled=trace)
        self.faults = faults
        self.processes: Dict[int, Process] = {}
        self.transport: Optional[Transport] = None
        self._barrier_waiting: List[Process] = []
        self._finished = 0
        self._failure: Optional[BaseException] = None
        self._failed_process: Optional[Process] = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def spawn(
        self,
        coroutine: Generator,
        rank: Optional[int] = None,
        host: Optional[Host] = None,
    ) -> Process:
        """Register a process.  Ranks default to spawn order."""
        if self.transport is not None:
            raise SimulationError("cannot spawn after run() started")
        if rank is None:
            rank = len(self.processes)
        if rank in self.processes:
            raise ValueError(f"rank {rank} already spawned")
        if host is None:
            host = self.hosts[rank % len(self.hosts)]
        proc = Process(self, rank, host, coroutine)
        self.processes[rank] = proc
        return proc

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run all processes to completion; returns final virtual time."""
        if not self.processes:
            raise SimulationError("no processes spawned")
        rank_to_host = {r: p.host.name for r, p in self.processes.items()}
        self.transport = Transport(self.engine, self.network, self.policy, rank_to_host)
        if self.faults is not None:
            self.transport.faults = self.faults
            self.faults.install(self)
        for proc in self.processes.values():
            proc.start()
        # Failures halt the loop via ``engine.halt()`` (a flag the hot
        # loop checks per event) rather than a ``stop_when`` closure,
        # which would cost a Python call per event.
        self.engine.run(until=until, max_events=max_events)
        if self._failure is not None:
            proc = self._failed_process
            raise ProcessFailure(
                f"process {proc.name if proc else '?'} failed"
            ) from self._failure
        unfinished = [p for p in self.processes.values() if p.state is not ProcessState.DONE]
        if unfinished and until is None and max_events is None:
            names = ", ".join(p.name for p in unfinished)
            raise SimulationError(f"deadlock: processes never finished: {names}")
        return self.engine.now

    @property
    def results(self) -> Dict[int, Any]:
        """Per-rank return values of the coroutines."""
        return {r: p.result for r, p in self.processes.items()}

    @property
    def makespan(self) -> float:
        """Virtual time at which the last process finished."""
        return self.engine.now

    # ------------------------------------------------------------------
    # callbacks from processes
    # ------------------------------------------------------------------
    def _process_finished(self, proc: Process) -> None:
        self._finished += 1
        if self._finished == len(self.processes) and self.faults is not None:
            # Fault windows still open when the program is done must not
            # stretch virtual time: cancelled events do not advance it.
            self.faults.cancel_pending()

    def _process_failed(self, proc: Process, exc: BaseException) -> None:
        self._failure = exc
        self._failed_process = proc
        self.engine.halt()

    def barrier_arrive(self, proc: Process) -> None:
        self._barrier_waiting.append(proc)
        if len(self._barrier_waiting) == len(self.processes):
            waiting, self._barrier_waiting = self._barrier_waiting, []
            cost = self.transport.barrier_cost(len(self.processes))
            release = self.engine.now + cost
            for p in waiting:
                p.barrier_release(release)

    def stats(self) -> dict:
        transport_stats = self.transport.stats() if self.transport else {}
        engine_stats = self.engine.stats()
        return {
            "makespan": self.makespan,
            "events": engine_stats["events"],
            "policy": self.policy.name,
            **transport_stats,
        }


__all__ = ["World", "ProcessFailure"]
