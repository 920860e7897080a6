"""Batched tick mode: stacked evaluation of same-tick solver iterations.

The scalar simulator interprets an :class:`~repro.simgrid.effects.
Iterate` effect by calling ``solver.iterate()`` inline -- one numpy
kernel invocation per rank per iteration.  This module provides the
batched alternative:

* :class:`ComputeBatcher` -- attached to a single
  :class:`~repro.simgrid.world.World`: processes yielding ``Iterate``
  *park*; a flush event scheduled at the same virtual tick (after all
  sibling same-tick events, so every lockstep rank has parked) groups
  the parked solvers by ``batch_key`` and advances each group through
  one ``iterate_batch`` call with the per-member RHS evaluations
  stacked into single numpy operations.

* :func:`run_worlds_batched` -- the sweep "mega-run" coordinator: many
  worlds run side by side, each halting its engine at its flush ticks;
  the coordinator collects the parked solvers of *all* worlds, stacks
  compatible ones across worlds (a 32-point sweep of 4-rank lockstep
  scenarios becomes one 128-member kernel call), resumes everyone and
  pumps the engines again.

Correctness contract: ``iterate_batch`` is bit-identical per member to
``iterate`` (the chemical solver guarantees this via its generator
drivers), parked processes resume in park order at an unchanged
virtual time, and the flush event fires after every same-tick sibling
event -- so batched and scalar runs produce identical iteration
counts, message counts, makespans, solutions and fault outcomes.  Only
the engine's event total differs (one flush event per tick).

Solvers without a hashable ``batch_key`` or an ``iterate_batch`` fall
back to scalar evaluation inside the flush, so any scenario runs in
batched mode unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.simgrid.process import Process
    from repro.simgrid.world import World

#: One parked iteration: the process to resume and its solver.
_Entry = Tuple["Process", Any]

#: Per-solver outcome of a stacked evaluation: ``("ok", LocalIteration)``
#: or ``("err", exception)``.
_Outcome = Tuple[str, Any]


def _group_key(solver: Any) -> Optional[Tuple[type, Any]]:
    """The stacking group of ``solver``, or ``None`` for scalar-only.

    Grouping requires a *hashable* ``batch_key`` and a class-level
    ``iterate_batch``; the class rides inside the key so two solver
    types can never be stacked together by key collision.
    """
    key = getattr(solver, "batch_key", None)
    if key is None or getattr(type(solver), "iterate_batch", None) is None:
        return None
    try:
        hash(key)
    except TypeError:
        return None
    return (type(solver), key)


def evaluate_stacked(solvers: Sequence[Any]) -> List[_Outcome]:
    """Advance every solver one iteration, stacking compatible ones.

    Results come back in input order.  A group whose ``iterate_batch``
    raises fails *every* member with that exception (group members
    advance as one; per-member attribution is not recoverable after a
    partial batch), mirroring the scalar path where the exception
    belongs to the iterating process.
    """
    outcomes: List[Optional[_Outcome]] = [None] * len(solvers)
    groups: Dict[Tuple[type, Any], List[int]] = {}
    for i, solver in enumerate(solvers):
        gkey = _group_key(solver)
        if gkey is None:
            try:
                outcomes[i] = ("ok", solver.iterate())
            except Exception as exc:  # noqa: BLE001 - settled per solver
                outcomes[i] = ("err", exc)
        else:
            groups.setdefault(gkey, []).append(i)
    for (cls, _key), indices in groups.items():
        members = [solvers[i] for i in indices]
        try:
            results = cls.iterate_batch(members)
            for i, result in zip(indices, results):
                outcomes[i] = ("ok", result)
        except Exception as exc:  # noqa: BLE001 - settled per group
            for i in indices:
                outcomes[i] = ("err", exc)
    return outcomes  # type: ignore[return-value]


class ComputeBatcher:
    """Collects same-tick ``Iterate`` parks of one world and evaluates
    them stacked.

    In the default (in-world) mode the batcher schedules a flush event
    at the current virtual tick on first park; the engine dispatches it
    after every already-queued same-tick event, so all lockstep ranks
    have parked by flush time.  In ``external`` mode (set by
    :func:`run_worlds_batched`) the flush event instead *halts* the
    engine, handing the ready batch to the cross-world coordinator.

    ``stats`` counts what the batching achieved: ``ticks`` (flushes),
    ``parked`` (iterations that went through the batcher),
    ``stacked`` (members evaluated in groups of >= 2), ``scalar``
    (members evaluated alone) and ``max_width`` (largest group seen by
    this world's flushes; cross-world widths are reported by the
    coordinator).
    """

    def __init__(self, world: "World", external: bool = False) -> None:
        self.world = world
        self.external = external
        self.pending: List[_Entry] = []
        self._flush_scheduled = False
        self.stats: Dict[str, int] = {
            "ticks": 0,
            "parked": 0,
            "stacked": 0,
            "scalar": 0,
            "max_width": 0,
        }

    # ------------------------------------------------------------------
    def enqueue(self, proc: "Process", solver: Any) -> None:
        """Park ``proc`` until its iteration result is available."""
        self.pending.append((proc, solver))
        self.stats["parked"] += 1
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.world.engine.post_at(self.world.engine.now, self._tick)

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
        self, entries: List[_Entry], outcomes: Optional[List[_Outcome]] = None
    ) -> None:
        """Evaluate (unless given) and resume ``entries`` in park order."""
        if outcomes is None:
            outcomes = evaluate_stacked([solver for _, solver in entries])
        self._account(entries)
        for (proc, _solver), (kind, payload) in zip(entries, outcomes):
            if kind == "ok":
                proc.iterate_resume(payload)
            else:
                proc.iterate_failed(payload)

    def _account(self, entries: List[_Entry]) -> None:
        widths: Dict[Any, int] = {}
        scalar = 0
        for _proc, solver in entries:
            gkey = _group_key(solver)
            if gkey is None:
                scalar += 1
            else:
                widths[gkey] = widths.get(gkey, 0) + 1
        for width in widths.values():
            if width >= 2:
                self.stats["stacked"] += width
            else:
                scalar += width
            if width > self.stats["max_width"]:
                self.stats["max_width"] = width
        if scalar:
            self.stats["scalar"] += scalar
            if self.stats["max_width"] < 1:
                self.stats["max_width"] = 1


def run_worlds_batched(worlds: Sequence["World"]) -> Dict[str, int]:
    """Run many started-or-fresh worlds with cross-world stacked ticks.

    Each world gets an ``external`` :class:`ComputeBatcher` (reusing an
    attached one), is started, and its engine is pumped until it either
    finishes, fails, or halts with a batch of parked iterations.  All
    ready batches are then evaluated in one stacked pass -- grouping by
    ``batch_key`` *across* worlds -- and every parked process resumes
    at its own world's (unchanged) virtual tick.

    Failures stay isolated: a failed world stops being pumped, the
    others run on, and :meth:`World.finish` re-raises per world when
    the caller collects results.  Returns coordinator-level stats
    (``rounds``, ``stacked``, ``scalar``, ``max_width``).
    """
    stats = {"rounds": 0, "stacked": 0, "scalar": 0, "max_width": 0}
    for world in worlds:
        batcher = world.compute_batcher
        if batcher is None:
            world.compute_batcher = batcher = ComputeBatcher(world)
        batcher.external = True
        world.start()

    live = list(worlds)
    while live:
        ready: List[Tuple["World", List[_Entry]]] = []
        next_live: List["World"] = []
        for world in live:
            world.engine.run()
            if world._failure is not None:
                continue  # isolated: the others keep running
            entries = world.compute_batcher.take()
            if entries:
                ready.append((world, entries))
                next_live.append(world)
            # else: queue drained -> the world finished (or deadlocked;
            # World.finish reports it when results are collected).
        if not ready:
            break
        stats["rounds"] += 1
        flat = [
            (world, proc, solver)
            for world, entries in ready
            for proc, solver in entries
        ]
        outcomes = evaluate_stacked([solver for _, _, solver in flat])
        widths: Dict[Any, int] = {}
        for (_w, _p, solver) in flat:
            gkey = _group_key(solver)
            if gkey is None:
                stats["scalar"] += 1
            else:
                widths[gkey] = widths.get(gkey, 0) + 1
        for width in widths.values():
            if width >= 2:
                stats["stacked"] += width
            else:
                stats["scalar"] += width
            if width > stats["max_width"]:
                stats["max_width"] = width
        for (_world, proc, _solver), (kind, payload) in zip(flat, outcomes):
            if kind == "ok":
                proc.iterate_resume(payload)
            else:
                proc.iterate_failed(payload)
        live = next_live
    return stats


__all__ = ["ComputeBatcher", "evaluate_stacked", "run_worlds_batched"]
