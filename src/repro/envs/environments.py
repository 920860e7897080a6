"""The four environment models, one row each, in the paper's order.

Calibration philosophy: every number below is a *software* cost (thread
spawn, message packing, RPC dispatch, ORB marshalling) of the kind the
paper blames for the inter-environment differences; network costs live
in the cluster presets.  The constants were chosen so that the scaled
experiments land in the paper's regimes (see :mod:`repro.experiments`):

* MPI-family explicit messages are the cheapest per message;
* PM2's RPC requires explicit packing (slightly dearer per byte);
* OmniORB's ORB dispatch + CORBA marshalling has the highest
  per-message cost but its generous threading (one sending thread per
  peer, reception threads on demand) wins on the all-to-all problem;
* the classical MPI baseline is mono-threaded: its sends and receives
  block the computation ("the receipts of messages must be explicitly
  localized in the sequence of the program", Section 2).

Thread counts per problem are **exactly** Table 4 of the paper.
"""

from __future__ import annotations

from repro.envs.base import (
    DeploymentTraits,
    Environment,
    ErgonomicsTraits,
    ThreadPolicy,
)

#: The rows, in the paper's order (synchronous baseline first).
PAPER_ENVIRONMENTS = (
    # Classical mono-threaded MPI running the synchronous algorithm.
    Environment(
        name="sync_mpi",
        display_name="sync MPI",
        multithreaded=False,
        supports_asynchronous=False,
        # Mono-threaded: the main thread does everything.
        threads={
            "sparse_linear": ThreadPolicy(sending_threads=1, receiving_threads=1),
            "chemical": ThreadPolicy(sending_threads=1, receiving_threads=1),
        },
        # Per-problem software costs: the paper-scale messages differ by two
        # orders of magnitude (sparse-linear data blocks ~1.3 MB, chemical
        # halo rows ~10 KB), so the per-message stand-in costs of the
        # scaled-down experiments are calibrated per problem kind (see
        # the repro.experiments package docstring).
        send_base={"sparse_linear": 3.0e-4, "chemical": 3.0e-4},
        recv_base={"sparse_linear": 1.0e-3, "chemical": 3.0e-4},
        per_byte=1.0e-9,
        spawn=0.0,
        # At paper scale the sparse-linear data blocks are ~1.3 MB -- deep
        # in MPI rendezvous territory -- while the chemical halo rows
        # (~10 KB) and the control messages stay eager.  The scaled
        # reproduction keeps that semantic split: data messages of the
        # linear problem are the only ones above the threshold.
        rendezvous={"sparse_linear": 1.0e3},
        deployment=DeploymentTraits(
            requires_complete_graph=True,
            requires_naming_service=False,
            handles_data_conversion=False,
            multi_protocol=False,
            runtime_daemons=(),
            config_files=("machines",),
            launch_command="mpirun -np <n> <prog>",
            portability_notes="single protocol per run; homogeneous data layouts",
        ),
        ergonomics=ErgonomicsTraits(
            communication_style="explicit message passing",
            explicit_packing=False,
            thread_library="none",
            needs_network_bootstrap=False,
            idl_required=False,
            relative_verbosity=2,
            notes="receipts must be explicitly localized in the program sequence",
        ),
    ),
    # PM2: Marcel threads + Madeleine RPC-based communications.
    Environment(
        name="pm2",
        display_name="async PM2",
        threads={
            "sparse_linear": ThreadPolicy(sending_threads=1, receiving_threads=None),
            "chemical": ThreadPolicy(sending_threads=2, receiving_threads=1),
        },
        # RPC with explicit data packing; receive path cheaper than
        # MPI/Mad's on the linear problem because reception threads are
        # created on demand (Table 4) and unpack concurrently.
        send_base={"sparse_linear": 4.0e-4, "chemical": 4.0e-4},
        recv_base={"sparse_linear": 1.3e-3, "chemical": 5.0e-4},
        per_byte=1.5e-9,
        spawn=2.0e-4,
        deployment=DeploymentTraits(
            requires_complete_graph=True,   # Section 5.3
            requires_naming_service=False,
            handles_data_conversion=False,  # "no auto-conversion of data"
            multi_protocol=False,
            runtime_daemons=(),
            config_files=("machine_list",),
            launch_command="pm2load <prog> (one command on one machine)",
            portability_notes="incomplete support of mixed OS/architectures",
        ),
        ergonomics=ErgonomicsTraits(
            communication_style="RPC",
            explicit_packing=True,   # "explicit data packing before the call"
            thread_library="Marcel",
            needs_network_bootstrap=False,
            idl_required=False,
            relative_verbosity=3,
            notes="RPC + pack/unpack around every remote call",
        ),
    ),
    # MPICH/Madeleine: thread-safe MPI over Marcel + Madeleine.
    Environment(
        name="mpimad",
        display_name="async MPI/Mad",
        # Table 4 of the paper.
        threads={
            "sparse_linear": ThreadPolicy(sending_threads=1, receiving_threads=1),
            "chemical": ThreadPolicy(sending_threads=2, receiving_threads=2),
        },
        # Receive-path handling (unpack + copy + handoff).  At paper scale
        # this cost is per-byte dominated (~1.3 MB data blocks for the
        # linear problem, ~10 KB halo rows for the chemical one); in the
        # scaled-down experiments it is carried by the per-message term,
        # hence the per-problem calibration.  With a single dedicated
        # receiving thread (Table 4, sparse linear problem) the all-to-all
        # receive path serialises, which is what puts MPI/Mad behind the
        # other asynchronous versions in Table 2.
        send_base={"sparse_linear": 3.0e-4, "chemical": 3.0e-4},
        recv_base={"sparse_linear": 4.5e-3, "chemical": 4.0e-4},
        per_byte=1.0e-9,
        spawn=2.0e-4,
        deployment=DeploymentTraits(
            requires_complete_graph=True,
            requires_naming_service=False,
            handles_data_conversion=False,  # "data representations must be
                                            # taken into account by the programmer"
            multi_protocol=True,            # Madeleine 3 protocol mixing
            runtime_daemons=(),
            config_files=("protocols_available", "protocols_used"),
            launch_command="mad3load <prog> (one command on one machine)",
            portability_notes="multi-protocol (TCP/Myrinet/SCI) in one application",
        ),
        ergonomics=ErgonomicsTraits(
            communication_style="explicit message passing",
            explicit_packing=False,
            thread_library="Marcel",
            needs_network_bootstrap=False,
            idl_required=False,
            relative_verbosity=1,  # "probably the easiest to program" (5.2)
            notes="well-known MPI form + easily managed Marcel threads",
        ),
    ),
    # OmniORB 4: a CORBA ORB pressed into AIAC service.
    Environment(
        name="omniorb",
        display_name="async OmniOrb 4",
        threads={
            "sparse_linear": ThreadPolicy(
                sending_threads=None, receiving_threads=None, per_peer_senders=True
            ),
            "chemical": ThreadPolicy(sending_threads=2, receiving_threads=None),
        },
        # ORB dispatch + CORBA marshalling: the per-invocation cost is
        # size-independent, so it is *relatively* heavier on the chemical
        # problem's small halo messages -- which is why OmniORB trails by
        # 5-10% there (Table 3) while leading on the all-to-all problem.
        send_base={"sparse_linear": 8.0e-4, "chemical": 1.5e-3},
        recv_base={"sparse_linear": 1.1e-3, "chemical": 1.5e-3},
        per_byte=3.0e-9,
        spawn=1.5e-4,  # omnithread pool is quick to hand out threads
        deployment=DeploymentTraits(
            requires_complete_graph=False,  # client/server: firewalls bypassed
            requires_naming_service=True,
            handles_data_conversion=True,   # CORBA marshalling is portable
            multi_protocol=False,
            runtime_daemons=("omniNames",),
            config_files=("omniORB.cfg",),
            launch_command="one instance launched per processor",
            portability_notes="wide portability; transparent on heterogeneous machines",
        ),
        ergonomics=ErgonomicsTraits(
            communication_style="object RPC (CORBA method invocation)",
            explicit_packing=False,  # data passed as arguments of the call
            thread_library="omnithread",
            needs_network_bootstrap=True,  # the initialization-phase library of 5.2
            idl_required=True,
            relative_verbosity=4,
            notes="client/server initialization phase reusable as a small library",
        ),
    ),
)

__all__ = ["PAPER_ENVIRONMENTS"]
