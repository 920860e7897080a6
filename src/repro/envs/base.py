"""Programming-environment model: one value per environment.

An :class:`Environment` is a frozen record of everything the paper
compares about PM2, MPICH/Madeleine and OmniORB 4 (plus the classical
synchronous MPI baseline):

* a :class:`CommPolicy` per problem kind -- the thread and
  communication management of Table 4 plus per-message software
  costs, which the simulator's transport (:mod:`repro.simgrid.comm`)
  runs;
* :class:`DeploymentTraits` -- the constraints of Section 5.3
  (connection-graph completeness, naming service, heterogeneous data
  conversion, configuration files, launch procedure);
* :class:`ErgonomicsTraits` -- the programming-model facts of
  Section 5.2.

Problem kinds are the paper's two communication regimes:
``"sparse_linear"`` (all-to-all dependency exchange) and
``"chemical"`` (nearest-neighbour halo exchange).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

PROBLEM_KINDS = ("sparse_linear", "chemical")


@dataclass(frozen=True)
class CommPolicy:
    """Communication behaviour of one environment for one problem.

    ``n_send_threads`` / ``n_recv_threads`` use ``None`` to mean
    "created on demand" (one thread per message / per peer), matching
    the wording of Table 4 in the paper.  A message of ``size`` bytes
    costs its sending thread ``send_base + send_per_byte * size`` seconds
    of software and its receiving thread ``recv_base + recv_per_byte *
    size``; the simulator's transport reads these once per run.
    """

    name: str
    n_send_threads: Optional[int] = 1
    n_recv_threads: Optional[int] = None
    send_base: float = 1e-4       # seconds of sender-side software overhead
    send_per_byte: float = 0.0    # additional packing cost per byte
    recv_base: float = 1e-4       # seconds of receive-path handling
    recv_per_byte: float = 0.0
    thread_spawn_cost: float = 5e-5
    fair: bool = True
    blocking_send: bool = False   # mono-threaded MPI semantics
    blocking_recv: bool = False
    barrier_beta: float = 2.0     # barrier cost = beta * ceil(log2 n) * max latency
    # Blocking sends of messages at least this large complete only at
    # *delivery* (MPI rendezvous protocol); smaller ones are eager
    # (buffered) and resume when the sender-side transfer finishes.
    # The paper's sparse-linear data blocks (~1.3 MB) are far above any
    # 2004 MPI rendezvous threshold.
    rendezvous_threshold: float = float("inf")

    def with_overrides(self, **kwargs) -> "CommPolicy":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ThreadPolicy:
    """Row of the paper's Table 4 for one environment and one problem.

    ``None`` means "created on demand" (the paper's wording) and, for
    sending threads, ``"N"`` is encoded by :attr:`per_peer` -- one
    sending thread per peer processor.
    """

    sending_threads: Optional[int]
    receiving_threads: Optional[int]
    per_peer_senders: bool = False

    def describe(self) -> str:
        if self.per_peer_senders:
            send = "N sending threads"
        elif self.sending_threads is None:
            send = "sending threads created on demand"
        else:
            plural = "s" if self.sending_threads != 1 else ""
            send = f"{self.sending_threads} sending thread{plural}"
        if self.receiving_threads is None:
            recv = "receiving threads created on demand"
        else:
            plural = "s" if self.receiving_threads != 1 else ""
            recv = f"{self.receiving_threads} receiving thread{plural}"
        return f"{send} / {recv}"


@dataclass(frozen=True)
class DeploymentTraits:
    """Deployment constraints and features of Section 5.3."""

    requires_complete_graph: bool
    requires_naming_service: bool
    handles_data_conversion: bool     # heterogeneous number representations
    multi_protocol: bool              # Madeleine's per-site protocols
    runtime_daemons: Tuple[str, ...] = ()
    config_files: Tuple[str, ...] = ()
    launch_command: str = ""
    portability_notes: str = ""


@dataclass(frozen=True)
class ErgonomicsTraits:
    """Programming-model facts of Section 5.2 (plus coarse metrics)."""

    communication_style: str          # "explicit message passing" | "RPC" | "object RPC"
    explicit_packing: bool            # PM2's pack-before-RPC
    thread_library: str
    needs_network_bootstrap: bool     # OmniORB's manual link establishment
    idl_required: bool                # CORBA interface definitions
    relative_verbosity: int           # 1 (terse) .. 5 (verbose), coarse ranking
    notes: str = ""


@dataclass(frozen=True)
class Environment:
    """A parallel programming environment under comparison.

    One row of the table in :mod:`repro.envs.environments`: per problem
    kind, a Table 4 :class:`ThreadPolicy` and the per-message software
    costs (seconds) of the send and receive paths; per byte, one
    packing/copy cost for both paths; per spawned thread, one cost.
    """

    #: short identifier, e.g. ``"pm2"``
    name: str
    #: display name used in tables, e.g. ``"async PM2"``
    display_name: str
    threads: Dict[str, ThreadPolicy]
    send_base: Dict[str, float]
    recv_base: Dict[str, float]
    per_byte: float
    spawn: float
    deployment: DeploymentTraits
    ergonomics: ErgonomicsTraits
    #: whether the environment provides multi-threading (Section 2's
    #: conclusion: this is *essential* for AIAC)
    multithreaded: bool = True
    #: whether the AIAC (asynchronous) workers can run on it; the
    #: classical mono-threaded MPI baseline runs SISC only.
    supports_asynchronous: bool = True
    #: per problem kind, the message size from which a blocking send
    #: waits for delivery (MPI rendezvous); absent means never
    rendezvous: Dict[str, float] = field(default_factory=dict)

    def thread_policy(self, problem: str) -> ThreadPolicy:
        """Table 4 row for ``problem`` in ``PROBLEM_KINDS``."""
        if problem not in PROBLEM_KINDS:
            raise ValueError(
                f"unknown problem kind {problem!r}; expected one of {PROBLEM_KINDS}"
            )
        return self.threads[problem]

    def comm_policy(self, problem: str, n_ranks: int) -> CommPolicy:
        """Build the simulator communication policy for a run."""
        threads = self.thread_policy(problem)
        if threads.per_peer_senders:
            n_send: Optional[int] = max(1, n_ranks - 1)  # "N sending threads"
        else:
            n_send = threads.sending_threads
        return CommPolicy(
            name=self.name,
            n_send_threads=n_send,
            n_recv_threads=threads.receiving_threads,
            send_base=self.send_base[problem],
            send_per_byte=self.per_byte,
            recv_base=self.recv_base[problem],
            recv_per_byte=self.per_byte,
            thread_spawn_cost=self.spawn,
            fair=True,  # all four are modelled fair, as Marcel (POSIX) is
            # the defining constraint of Section 2: mono-threaded
            # communications block the computation
            blocking_send=not self.multithreaded,
            blocking_recv=not self.multithreaded,
            rendezvous_threshold=self.rendezvous.get(problem, float("inf")),
        )

    def default_worker(self) -> str:
        """Worker kind this environment is benchmarked with."""
        return "aiac" if self.supports_asynchronous else "sisc"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Environment {self.name}>"


__all__ = [
    "CommPolicy",
    "Environment",
    "ThreadPolicy",
    "DeploymentTraits",
    "ErgonomicsTraits",
    "PROBLEM_KINDS",
]
