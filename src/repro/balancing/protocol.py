"""The in-band row-migration protocol.

Rows move between neighbouring ranks as tagged messages woven into the
ordinary AIAC message stream -- no global pause, no out-of-band
channel.  One :class:`MigrationEngine` per rank drives the exchange
from inside the worker loop (:mod:`repro.core.aiac` calls
:meth:`~MigrationEngine.pump` once per iteration), yielding the same
:mod:`repro.core.effects` vocabulary as the algorithms themselves,
so the identical protocol runs on the simulator and on real threads.

Two-phase handoff
-----------------
Migration traffic travels on the ``"mig"`` tag.  Like the ``state`` /
``stop`` / ``halo`` control tags, it models a reliable transport:
fault plans default to ``data*`` tags, so message loss/duplication/
reorder shake the asynchronous updates -- never a handoff.

1. **Negotiate.**  Every ``period`` iterations a rank samples its
   throughput and reports it to its neighbours (``load``).  On its
   parity slot (even ranks on even probe slots, odd on odd -- so two
   neighbours never propose to each other simultaneously) an
   overloaded rank sends ``offer(epoch, k)``.  The target replies
   ``accept`` or, if it is mid-migration itself, ``reject``.
2. **Transfer.**  On ``accept`` the donor detaches its ``k`` boundary
   rows facing the target (:meth:`give_rows` -- this is the commit
   point on the donor side), and ships them as ``commit(lo, hi,
   values)`` sized at the honest wire cost of rows plus their matrix/
   vector slices.  The receiver integrates them (``take_rows`` -- the
   commit point on its side) and confirms with ``ack``.

Every protocol message is a plain tuple of ints/floats plus (for
``commit``) one contiguous float64 array, so the identical handoff
travels as an in-memory reference on the simulated/threaded backends
and as a pickled payload over the process backend's queue channels --
:meth:`MigrationEngine._on_accept` normalises the donated values at
the commit point precisely so a custom solver returning a view, a
list or a float32 slice cannot produce a wire payload that integrates
differently across processes than in memory.

Rows are therefore owned by exactly one rank at every instant: the
donor until ``commit`` is sent, the receiver from the moment it is
integrated.  While a handoff is in flight both ends report
non-convergence (:meth:`holds_convergence`), which keeps the
coordinator from halting the run around a moving block; a worker that
exits anyway (iteration cap) runs :meth:`finalize`, which resolves any
in-flight transfer with bounded waits so no row is ever lost or
duplicated -- the invariant ``repro.testing`` checks at halt.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

import numpy as np

from repro.balancing.estimator import RateEstimator
from repro.balancing.policy import BalancingPlan, RankLoad, get_balancer
from repro.core.effects import Drain, Now, Recv, Send

#: Tag all migration traffic travels on.  Deliberately not a ``data``
#: prefix: fault plans scope message faults to data tags by default,
#: so handoffs ride the reliable control plane.
MIGRATION_TAG = "mig"

#: Wire size of the small control messages (load/offer/accept/...).
CTL_BYTES = 32.0

#: Per-try timeout of the finalizer's waits, on the executing
#: backend's clock (virtual seconds on the simulator, wall seconds on
#: threads).
FINALIZE_TIMEOUT = 0.25
#: Tries the finalizer spends waiting for the *ack* of a commit it
#: already sent -- pure bookkeeping, harmless to give up on.
FINALIZE_TRIES = 8
#: Safety valve on the commit-pending wait.  A receiver that accepted
#: an offer is guaranteed a commit or a cancel on the reliable tag
#: (the donor always sends exactly one of them), so this bound should
#: never be reached; it exists so a protocol bug degrades into an
#: observable counter instead of a hang.
FINALIZE_COMMIT_TRIES = 240


class MigrationEngine:
    """Per-rank runtime of the balancing subsystem.

    Wraps the declarative :class:`~repro.balancing.policy.BalancingPlan`
    with the live pieces: a rate estimator, the neighbour-load table,
    the handoff state machine and the migration counters that end up
    in the rank's :class:`~repro.core.aiac.WorkerReport` meta.
    """

    def __init__(self, plan: BalancingPlan, rank: int, size: int) -> None:
        self.plan = plan
        self.policy = get_balancer(plan.policy)(plan)
        self.rank = rank
        self.size = size
        self.neighbours = tuple(
            r for r in (rank - 1, rank + 1) if 0 <= r < size
        )
        self.estimator = RateEstimator()
        self.counters: Dict[str, int] = {
            "load_reports": 0,
            "offers_sent": 0,
            "offers_received": 0,
            "rejects_sent": 0,
            "rejects_received": 0,
            "migrations_out": 0,
            "migrations_in": 0,
            "rows_out": 0,
            "rows_in": 0,
            "commits_unmatched": 0,
        }
        self._loads: Dict[int, RankLoad] = {}
        self._out: Optional[Dict[str, Any]] = None  # my offer in flight
        self._in: Optional[Dict[str, Any]] = None   # accepted inbound offer
        self._epoch = 0
        self._cooldown_until = 0

    # ------------------------------------------------------------------
    def holds_convergence(self) -> bool:
        """True while a handoff involving this rank is unresolved.

        The worker reports an infinite residual while this holds, so
        global convergence cannot be declared around rows that are
        mid-flight.
        """
        return self._out is not None or self._in is not None

    def summary(self) -> Dict[str, int]:
        """Counter snapshot for the worker report meta."""
        return dict(self.counters)

    # ------------------------------------------------------------------
    # the per-iteration hook
    # ------------------------------------------------------------------
    def pump(self, solver, iteration: int) -> Generator:
        """One protocol round: drain, react, probe.  Yields effects.

        Returns (via StopIteration value) ``True`` when rows actually
        moved in or out during this round -- the worker then resets its
        convergence tracker, because the block it is iterating is no
        longer the block whose residual history it was trusting.
        """
        self.estimator.note(solver.n_rows)
        moved = False
        for msg in (yield Drain(MIGRATION_TAG)):
            kind = msg.payload[0]
            if kind == "load":
                # The wire also carries the sender's own iteration (for
                # trace debugging); the table is stamped with *our*
                # local iteration, because staleness is judged on the
                # observer's clock (see RankLoad).
                _, src, rows, rate, _sender_iter = msg.payload
                self._loads[src] = RankLoad(
                    rank=src, rows=rows, rate=rate, iteration=iteration
                )
            elif kind == "offer":
                yield from self._on_offer(msg)
            elif kind == "accept":
                moved = bool((yield from self._on_accept(msg, solver))) or moved
            elif kind == "reject":
                self._on_reject(msg, iteration)
            elif kind == "commit":
                moved = bool((yield from self._on_commit(msg, solver))) or moved
            elif kind == "ack":
                self._on_ack(msg, iteration)
            elif kind == "cancel":
                self._on_cancel(msg)

        if self._should_probe(iteration):
            now = yield Now()
            rate = self.estimator.sample(now)
            # An empty block measures no throughput -- its decaying EWMA
            # is noise, not a speed.  Report the rate as *unknown* (0.0)
            # so neighbours take the bootstrap branch and rows can flow
            # back onto the idle rank instead of pinning it forever.
            report_rate = rate if solver.n_rows > 0 else 0.0
            for nbr in self.neighbours:
                yield Send(
                    nbr,
                    MIGRATION_TAG,
                    ("load", self.rank, solver.n_rows, report_rate, iteration),
                    CTL_BYTES,
                )
                self.counters["load_reports"] += 1
            if self._may_propose(iteration):
                me = RankLoad(
                    rank=self.rank, rows=solver.n_rows,
                    rate=rate, iteration=iteration,
                )
                proposal = self.policy.propose(me, self._loads)
                if proposal is not None:
                    dest, k = proposal
                    if dest in self.neighbours and k >= 1:
                        self._epoch += 1
                        self._out = {
                            "dest": dest, "epoch": self._epoch,
                            "k": int(k), "state": "offered",
                        }
                        yield Send(
                            dest,
                            MIGRATION_TAG,
                            ("offer", self.rank, self._epoch, int(k)),
                            CTL_BYTES,
                        )
                        self.counters["offers_sent"] += 1
        return moved

    def _should_probe(self, iteration: int) -> bool:
        if not self.neighbours or not self.policy.needs_load_reports:
            return False
        return iteration % self.plan.period == 0

    def _may_propose(self, iteration: int) -> bool:
        if self._out is not None or self._in is not None:
            return False
        if iteration < self._cooldown_until:
            return False
        # Parity stagger: even ranks propose on even probe slots, odd
        # ranks on odd ones.  Local iteration counters drift under
        # asynchronous execution, so this only *reduces* simultaneous
        # mutual offers rather than excluding them -- a collision is
        # still safe (both sides are busy, both reject, both cool
        # down), the stagger just keeps it from being the common case.
        slot = iteration // self.plan.period
        return slot % 2 == self.rank % 2

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def _on_offer(self, msg) -> Generator:
        _, src, epoch, k = msg.payload
        self.counters["offers_received"] += 1
        if src not in self.neighbours or self._in is not None or self._out is not None:
            yield Send(
                src, MIGRATION_TAG, ("reject", self.rank, epoch), CTL_BYTES
            )
            self.counters["rejects_sent"] += 1
            return
        self._in = {"src": src, "epoch": epoch, "k": k}
        yield Send(src, MIGRATION_TAG, ("accept", self.rank, epoch), CTL_BYTES)

    def _on_accept(self, msg, solver) -> Generator:
        _, src, epoch = msg.payload
        out = self._out
        if out is None or out["state"] != "offered" or out["dest"] != src \
                or out["epoch"] != epoch:
            return False  # stale reply to a cancelled/expired offer
        k = min(out["k"], solver.n_rows - self.plan.min_rows)
        if k < 1:
            # The block shrank since the offer (should not happen with
            # one handoff in flight, but stay safe): call it off.
            yield Send(
                src, MIGRATION_TAG, ("cancel", self.rank, epoch), CTL_BYTES
            )
            self._out = None
            return False
        lo, hi, values = solver.give_rows(k, src)
        # Normalise the donated block into its wire form (owned,
        # contiguous, float64): the payload must mean the same thing
        # whether it travels by reference (simulated/threaded channels)
        # or by pickle (the process backend's queues).
        values = np.ascontiguousarray(values, dtype=float)
        out["state"] = "committed"
        size = CTL_BYTES + (hi - lo) * solver.migration_bytes_per_row()
        yield Send(
            src,
            MIGRATION_TAG,
            ("commit", self.rank, epoch, lo, hi, values),
            size,
        )
        self.counters["migrations_out"] += 1
        self.counters["rows_out"] += hi - lo
        return True

    def _on_reject(self, msg, iteration: int) -> None:
        _, src, epoch = msg.payload
        out = self._out
        if out is not None and out["state"] == "offered" \
                and out["dest"] == src and out["epoch"] == epoch:
            self._out = None
            self.counters["rejects_received"] += 1
            self._cooldown_until = iteration + self.plan.period

    def _on_commit(self, msg, solver) -> Generator:
        _, src, epoch, lo, hi, values = msg.payload
        # A commit is integrated unconditionally: the donor already
        # detached these rows, so dropping the message would lose them.
        solver.take_rows(lo, hi, values)
        self.counters["migrations_in"] += 1
        self.counters["rows_in"] += hi - lo
        yield Send(src, MIGRATION_TAG, ("ack", self.rank, epoch), CTL_BYTES)
        pending = self._in
        if pending is not None and pending["src"] == src \
                and pending["epoch"] == epoch:
            self._in = None
        else:
            self.counters["commits_unmatched"] += 1
        return True

    def _on_ack(self, msg, iteration: int) -> None:
        _, src, epoch = msg.payload
        out = self._out
        if out is not None and out["state"] == "committed" \
                and out["dest"] == src and out["epoch"] == epoch:
            self._out = None
            self._cooldown_until = iteration + self.plan.period

    def _on_cancel(self, msg) -> None:
        _, src, epoch = msg.payload
        pending = self._in
        if pending is not None and pending["src"] == src \
                and pending["epoch"] == epoch:
            self._in = None

    # ------------------------------------------------------------------
    # exit-path resolution
    # ------------------------------------------------------------------
    def finalize(self, solver) -> Generator:
        """Resolve in-flight handoffs before the worker returns.

        A worker normally cannot exit mid-handoff (both ends hold
        convergence), but the iteration cap is unconditional.  The
        finalizer withdraws an unanswered offer, then waits for the
        resolution of anything still in flight:

        * an *accepted inbound offer* is waited out until its
          ``commit`` or ``cancel`` arrives -- the donor is guaranteed
          to send exactly one of them on the reliable tag, and the
          rows of a commit must land here or they are lost (even a
          fault-degraded link only delays delivery; the wait outlasts
          it, with :data:`FINALIZE_COMMIT_TRIES` as a bug safety
          valve that surfaces as the ``finalize_abandoned`` counter);
        * the ``ack`` of a commit already sent is bookkeeping only, so
          that wait is short (:data:`FINALIZE_TRIES`) and giving up is
          harmless.
        """
        out = self._out
        if out is not None and out["state"] == "offered":
            yield Send(
                out["dest"], MIGRATION_TAG,
                ("cancel", self.rank, out["epoch"]), CTL_BYTES,
            )
            self._out = None
        tries = 0
        ack_tries = 0
        while self._in is not None or self._out is not None:
            if self._in is not None:
                if tries >= FINALIZE_COMMIT_TRIES:
                    self.counters["finalize_abandoned"] = (
                        self.counters.get("finalize_abandoned", 0) + 1
                    )
                    break
                tries += 1
            else:
                if ack_tries >= FINALIZE_TRIES:
                    break
                ack_tries += 1
            messages = yield Recv(
                MIGRATION_TAG, count=1, timeout=FINALIZE_TIMEOUT
            )
            for msg in messages:
                kind = msg.payload[0]
                if kind == "commit":
                    yield from self._on_commit(msg, solver)
                elif kind == "ack":
                    self._on_ack(msg, 0)
                elif kind == "cancel":
                    self._on_cancel(msg)
                elif kind == "offer":
                    # Too late to take rows on: decline so the donor's
                    # own finalizer is not left waiting on us.
                    yield Send(
                        msg.payload[1], MIGRATION_TAG,
                        ("reject", self.rank, msg.payload[2]), CTL_BYTES,
                    )
                    self.counters["rejects_sent"] += 1
        self._in = None
        self._out = None
        # Commits may still be sitting in the mailbox (they arrived
        # while we were processing): one last sweep keeps them owned.
        for msg in (yield Drain(MIGRATION_TAG)):
            if msg.payload[0] == "commit":
                yield from self._on_commit(msg, solver)


__all__ = [
    "MigrationEngine",
    "MIGRATION_TAG",
    "CTL_BYTES",
    "FINALIZE_TIMEOUT",
    "FINALIZE_TRIES",
]
