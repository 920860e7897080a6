"""Batched tick mode: stacked evaluation of same-tick solver iterations.

The scalar simulator interprets an :class:`~repro.simgrid.effects.
Iterate` effect by calling ``solver.iterate()`` inline -- one numpy
kernel invocation per rank per iteration.  This module provides the
batched alternative:

* :class:`ComputeBatcher` -- attached to a single
  :class:`~repro.simgrid.world.World`: a process yielding ``Iterate``
  *parks* if a sibling can still join it at this virtual tick
  (:meth:`ComputeBatcher.park`), else iterates inline as in scalar
  mode; a flush event scheduled at the same tick (after all sibling
  same-tick events, so every lockstep rank has parked) groups the
  parked solvers by ``batch_key`` and advances each group through one
  ``iterate_batch`` call with the per-member RHS evaluations stacked
  into single numpy operations.

* :func:`run_worlds_batched` -- the sweep "mega-run" coordinator: many
  worlds run side by side, each halting its engine at its flush ticks;
  the coordinator collects the parked solvers of *all* worlds, stacks
  compatible ones across worlds (a 32-point sweep of 4-rank lockstep
  scenarios becomes one 128-member kernel call), resumes everyone and
  pumps the engines again.  The last live world finishes in-world:
  there is nothing left to stack across.

Correctness contract: ``iterate_batch`` is bit-identical per member to
``iterate`` (the chemical solver guarantees this via its generator
drivers), parked processes resume in park order at an unchanged
virtual time, and the flush event fires after every same-tick sibling
event -- so batched and scalar runs produce identical iteration
counts, message counts, makespans, solutions and fault outcomes.  Only
the engine's event total differs (one flush event per tick that
parked).

Solvers without a hashable ``batch_key`` or a class-level
``iterate_batch`` can never stack, so they never park: any scenario
runs in batched mode unchanged.  ``batch_key`` is read once per solver.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.simgrid.process import Process
    from repro.simgrid.world import World

#: One parked iteration: the process to resume, its solver and the
#: solver's interned stacking group.
_Entry = Tuple["Process", Any, int]

#: Per-entry outcome of a stacked evaluation: ``("ok", LocalIteration,
#: width)`` or ``("err", exception, width)``, ``width`` being the size
#: of the group the entry was evaluated in.
_Result = Tuple[str, Any, int]

#: Intern table of stacking groups, ``(solver class, batch_key)`` -> int:
#: a tick groups by int instead of re-hashing a 17-field config.  The
#: class rides inside the key so two solver types can never be stacked
#: together by key collision.
_Groups = Dict[Tuple[type, Any], int]


def _intern_group(groups: _Groups, solver: Any) -> Optional[int]:
    """The stacking group of ``solver``; ``None`` without a *hashable*
    ``batch_key`` and a class-level ``iterate_batch``."""
    key = getattr(solver, "batch_key", None)
    if key is None or getattr(type(solver), "iterate_batch", None) is None:
        return None
    try:
        return groups.setdefault((type(solver), key), len(groups))
    except TypeError:
        return None


def evaluate_stacked(entries: Sequence[_Entry]) -> List[_Result]:
    """Advance every parked solver one iteration, one call per group.

    Results come back in input order.  A group whose ``iterate_batch``
    raises fails *every* member with that exception (group members
    advance as one; per-member attribution is not recoverable after a
    partial batch), mirroring the scalar path where the exception
    belongs to the iterating process.
    """
    members_of: Dict[int, List[int]] = {}
    for i, (_proc, _solver, group) in enumerate(entries):
        members_of.setdefault(group, []).append(i)
    results: List[Optional[_Result]] = [None] * len(entries)
    for indices in members_of.values():
        members = [entries[i][1] for i in indices]
        width = len(indices)
        try:
            iterations = type(members[0]).iterate_batch(members)
            for i, iteration in zip(indices, iterations):
                results[i] = ("ok", iteration, width)
        except Exception as exc:  # noqa: BLE001 - settled per group
            for i in indices:
                results[i] = ("err", exc, width)
    return results  # type: ignore[return-value]


class ComputeBatcher:
    """Parks the ``Iterate`` effects of one world that can stack and
    evaluates each tick's parked set in stacked groups.

    In the default (in-world) mode the batcher schedules a flush event
    at the current virtual tick on first park; the engine dispatches it
    after every already-queued same-tick event, so all lockstep ranks
    have parked by flush time.  In ``external`` mode (set by
    :func:`run_worlds_batched` while another world is live) the flush
    event instead *halts* the engine, handing the ready batch to the
    cross-world coordinator.

    ``stats``: ``inline`` (iterations nothing could join, evaluated on
    the scalar path), ``parked`` (those that went through the batcher),
    ``ticks`` (flush events: the whole event-count difference to a
    scalar run), ``stacked`` / ``scalar`` (parked members evaluated in
    groups of >= 2 / alone) and ``max_width`` (largest group a member
    rode in, cross-world members included).  ``parked == stacked +
    scalar``; ``inline + parked`` counts the ``Iterate`` effects.
    """

    def __init__(self, world: "World", external: bool = False) -> None:
        self.world = world
        self.external = external
        #: The cross-world coordinator shares one table among its worlds.
        self.groups: _Groups = {}
        self.pending: List[_Entry] = []
        self._flush_scheduled = False
        # The last solver each process iterated, with its group.
        self._group_of: Dict["Process", Tuple[Any, Optional[int]]] = {}
        self.stats: Dict[str, int] = {
            "inline": 0,
            "ticks": 0,
            "parked": 0,
            "stacked": 0,
            "scalar": 0,
            "max_width": 0,
        }

    # ------------------------------------------------------------------
    def park(self, proc: "Process", solver: Any) -> bool:
        """Park ``proc`` for this tick's stacked evaluation; ``False``
        means no sibling can join it and the caller iterates inline.

        A sibling can join if another world is live under the
        coordinator, a process is already parked, or an event is queued
        at ``now``.  This is exact: a process reaches ``Iterate`` at
        tick *t* only through an event at *t*, so with nothing parked
        and nothing queued at *t* nobody can arrive before this process
        moves on -- inline evaluation *is* the scalar order.
        """
        known = self._group_of.get(proc)
        if known is None or known[0] is not solver:
            known = self._group_of[proc] = (
                solver, _intern_group(self.groups, solver)
            )
        group = known[1]
        if group is None or not (
            self.external or self.pending or self.world.engine.event_due_now()
        ):
            self.stats["inline"] += 1
            return False
        self.pending.append((proc, solver, group))
        self.stats["parked"] += 1
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.world.engine.post_at(self.world.engine.now, self._tick)
        return True

    def take(self) -> List[_Entry]:
        """Remove and return the ready batch (coordinator use)."""
        entries, self.pending = self.pending, []
        return entries

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._flush_scheduled = False
        self.stats["ticks"] += 1
        if self.external:
            # Hand control to the cross-world coordinator with the
            # batch ready and virtual time still at the park tick.
            self.world.engine.halt()
            return
        self.deliver(self.take())

    def deliver(
        self, entries: List[_Entry], results: Optional[Sequence[_Result]] = None
    ) -> None:
        """Evaluate (unless given) and resume ``entries`` in park order."""
        if results is None:
            results = evaluate_stacked(entries)
        stats = self.stats
        for (proc, _solver, _group), (kind, payload, width) in zip(entries, results):
            stats["stacked" if width >= 2 else "scalar"] += 1
            if width > stats["max_width"]:
                stats["max_width"] = width
            if kind == "ok":
                proc.iterate_resume(payload)
            else:
                proc.iterate_failed(payload)


def run_worlds_batched(worlds: Sequence["World"]) -> int:
    """Run many fresh worlds with cross-world stacked ticks.

    Each world gets an ``external`` :class:`ComputeBatcher` (reusing an
    attached one), is started, and its engine is pumped until it either
    finishes, fails, or halts with a batch of parked iterations.  All
    ready batches are then evaluated in one stacked pass -- grouping by
    ``batch_key`` *across* worlds -- and every parked process resumes
    at its own world's (unchanged) virtual tick, its batcher counting
    the widths its members rode in.  A world that cannot stack never
    parks, so its first pump finishes it; the last live world goes back
    to in-world mode and finishes in one pump too.

    Failures stay isolated: a failed world stops being pumped, the
    others run on, and :meth:`World.finish` re-raises per world when
    the caller collects results.  Returns the number of rounds.
    """
    groups: _Groups = {}
    for world in worlds:
        batcher = world.compute_batcher
        if batcher is None:
            world.compute_batcher = batcher = ComputeBatcher(world)
        batcher.external = True
        batcher.groups = groups
        world.start()

    rounds = 0
    live = list(worlds)
    while live:
        if len(live) == 1:
            live[0].compute_batcher.external = False
        ready: List[Tuple["World", List[_Entry]]] = []
        for world in live:
            world.engine.run()
            if world._failure is not None:
                continue  # isolated: the others keep running
            entries = world.compute_batcher.take()
            if entries:
                ready.append((world, entries))
            # else: queue drained -> the world finished (or deadlocked;
            # World.finish reports it when results are collected).
        if not ready:
            break
        rounds += 1
        results = evaluate_stacked(
            [entry for _world, entries in ready for entry in entries]
        )
        start = 0
        for world, entries in ready:
            stop = start + len(entries)
            world.compute_batcher.deliver(entries, results[start:stop])
            start = stop
        live = [world for world, _entries in ready if world._failure is None]
    return rounds


__all__ = ["ComputeBatcher", "evaluate_stacked", "run_worlds_batched"]
