"""Declarative fault plans: adverse grid conditions as values.

The paper's argument is that asynchronous iterations shine exactly when
the grid is *hostile* -- heterogeneous machines, degraded links,
volatile nodes.  A :class:`FaultPlan` makes that hostility a
first-class, JSON-round-trippable part of a
:class:`~repro.api.scenario.Scenario`:

* :class:`LinkDegradation` -- a timed window during which matching
  links lose bandwidth and/or gain latency;
* :class:`HostSlowdown` -- a timed window during which matching hosts
  run slower (or faster), optionally ramped in steps;
* :class:`MessageLoss` / :class:`MessageDuplication` /
  :class:`MessageReorder` -- per-message seeded-RNG misbehaviour of the
  transport (drop, deliver twice, deliver late);
* :class:`RankCrash` -- a rank goes dark at a given time (all its
  eligible traffic is dropped) and optionally recovers after
  ``downtime`` (crash-restart of a volatile node that kept its state).

The per-message rule is one class, :class:`MessageFates`, so every
interpreter faces the same adversity.  The backends subclass it:
:class:`~repro.simgrid.faults.SimFaultInjector` also compiles the
topology windows onto the simulator's ``World``/``Network``/``Link``
layer (all six kinds), and
:class:`~repro.runtime.faults.ThreadFaultInjector` applies the
loss/duplication/reorder/crash subset on the channels of the threaded
and process backends (a delayed message waits at its receiver's
mailbox).  Times are expressed on the executing backend's clock:
virtual seconds on the simulator, wall seconds since run start on
threads and processes.

Message-level events apply only to tags matching the event's ``tags``
prefixes (default ``("data",)``): the startup/halo exchanges and the
convergence-protocol control messages model a reliable (retrying)
transport, while the asynchronous data updates are exactly what the
paper allows to be late or lost.

JSON vocabulary and examples: ``docs/testing.md``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import (
    Any, ClassVar, Dict, List, Mapping, NamedTuple, Optional, Tuple, Type,
)

from repro.registry import Registry

#: Registry of event kinds for (de)serialization.
_EVENT_KINDS = Registry("fault kind")

#: Default tag prefixes message-level faults apply to.
DATA_TAGS: Tuple[str, ...] = ("data",)


class FaultEvent:
    """Base class for all fault-plan entries."""

    kind: ClassVar[str] = ""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form including the ``kind`` discriminator."""
        data = {"kind": self.kind}
        for f in fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return data


def _event(kind: str):
    """Class decorator registering a fault-event kind."""

    def add(cls: Type[FaultEvent]) -> Type[FaultEvent]:
        cls.kind = kind
        return _EVENT_KINDS.register(kind)(cls)

    return add


def _check_window(
    start: float, end: Optional[float], what: str, end_required: bool = False
) -> None:
    if not math.isfinite(start) or start < 0:
        raise ValueError(f"{what}: start must be finite and >= 0, got {start}")
    if end is None:
        if end_required:
            raise ValueError(
                f"{what}: end is required (this window mutates topology "
                "state and must be scheduled as a concrete engine event)"
            )
        return
    if not math.isfinite(end):
        raise ValueError(f"{what}: end must be finite, got {end}")
    if end <= start:
        raise ValueError(f"{what}: end ({end}) must be after start ({start})")


def _check_probability(p: float, what: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what}: probability must be in [0, 1], got {p}")


def in_window(start: float, end: Optional[float], now: float) -> bool:
    """True when ``now`` falls inside ``[start, end)`` (``end=None`` = open)."""
    return now >= start and (end is None or now < end)


def matches_tag(tags: Optional[Tuple[str, ...]], tag: str) -> bool:
    """True when ``tag`` starts with one of the prefixes (``None`` = all)."""
    if tags is None:
        return True
    return any(tag.startswith(prefix) for prefix in tags)


# ----------------------------------------------------------------------
# topology-level events (simulated backend only)
# ----------------------------------------------------------------------
@_event("link_degradation")
@dataclass(frozen=True)
class LinkDegradation(FaultEvent):
    """During ``[start, end)`` matching links degrade.

    ``links`` holds ``fnmatch`` patterns over link names (``"up-*"``
    hits every uplink of the cluster presets); ``None`` degrades every
    link.  ``bandwidth_factor`` multiplies the link bandwidth (0.1 =
    ten times slower) and ``latency_add`` adds one-way latency seconds.
    """

    start: float
    end: float
    bandwidth_factor: float = 1.0
    latency_add: float = 0.0
    links: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "link_degradation", end_required=True)
        if self.bandwidth_factor <= 0:
            raise ValueError("link_degradation: bandwidth_factor must be > 0")
        if self.latency_add < 0:
            raise ValueError("link_degradation: latency_add must be >= 0")
        if isinstance(self.links, list):
            object.__setattr__(self, "links", tuple(self.links))


@_event("host_slowdown")
@dataclass(frozen=True)
class HostSlowdown(FaultEvent):
    """During ``[start, end)`` matching hosts run at ``factor`` x speed.

    ``factor`` below 1 slows the host (overload, thermal throttling),
    above 1 speeds it up (load going away).  ``steps > 1`` ramps the
    speed geometrically from nominal to ``factor`` across the window
    instead of switching at once.  ``hosts`` holds ``fnmatch`` patterns
    over host names; ``None`` matches every host.
    """

    start: float
    end: float
    factor: float
    hosts: Optional[Tuple[str, ...]] = None
    steps: int = 1

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "host_slowdown", end_required=True)
        if self.factor <= 0:
            raise ValueError("host_slowdown: factor must be > 0")
        if self.steps < 1:
            raise ValueError("host_slowdown: steps must be >= 1")
        if isinstance(self.hosts, list):
            object.__setattr__(self, "hosts", tuple(self.hosts))


# ----------------------------------------------------------------------
# message-level events (both backends)
# ----------------------------------------------------------------------
@_event("message_loss")
@dataclass(frozen=True)
class MessageLoss(FaultEvent):
    """Drop each eligible message with ``probability`` (seeded RNG)."""

    probability: float
    start: float = 0.0
    end: Optional[float] = None
    tags: Optional[Tuple[str, ...]] = DATA_TAGS

    def __post_init__(self) -> None:
        _check_probability(self.probability, "message_loss")
        _check_window(self.start, self.end, "message_loss")
        if isinstance(self.tags, list):
            object.__setattr__(self, "tags", tuple(self.tags))


@_event("message_duplication")
@dataclass(frozen=True)
class MessageDuplication(FaultEvent):
    """Deliver each eligible message twice with ``probability``."""

    probability: float
    start: float = 0.0
    end: Optional[float] = None
    tags: Optional[Tuple[str, ...]] = DATA_TAGS

    def __post_init__(self) -> None:
        _check_probability(self.probability, "message_duplication")
        _check_window(self.start, self.end, "message_duplication")
        if isinstance(self.tags, list):
            object.__setattr__(self, "tags", tuple(self.tags))


@_event("message_reorder")
@dataclass(frozen=True)
class MessageReorder(FaultEvent):
    """Delay each eligible message by up to ``max_delay`` with ``probability``.

    Randomly delayed messages overtake each other, which is how
    reordering manifests to the receiver.
    """

    probability: float
    max_delay: float
    start: float = 0.0
    end: Optional[float] = None
    tags: Optional[Tuple[str, ...]] = DATA_TAGS

    def __post_init__(self) -> None:
        _check_probability(self.probability, "message_reorder")
        _check_window(self.start, self.end, "message_reorder")
        if self.max_delay <= 0:
            raise ValueError("message_reorder: max_delay must be > 0")
        if isinstance(self.tags, list):
            object.__setattr__(self, "tags", tuple(self.tags))


@_event("rank_crash")
@dataclass(frozen=True)
class RankCrash(FaultEvent):
    """Rank ``rank`` goes dark at ``at``; recovers after ``downtime``.

    While dark, every eligible message from or to the rank is dropped
    (the channel-layer view of a crash).  ``downtime=None`` means the
    rank never recovers.  The modelled node keeps its local state
    across the outage -- a crash-restart from checkpoint, or a network
    partition isolating a volatile node.
    """

    rank: int
    at: float
    downtime: Optional[float] = None
    tags: Optional[Tuple[str, ...]] = DATA_TAGS

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank_crash: rank must be >= 0")
        if not math.isfinite(self.at) or self.at < 0:
            raise ValueError("rank_crash: at must be finite and >= 0")
        if self.downtime is not None and (
            not math.isfinite(self.downtime) or self.downtime <= 0
        ):
            raise ValueError(
                "rank_crash: downtime must be finite and > 0 "
                "(None = never recovers)"
            )
        if isinstance(self.tags, list):
            object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def end(self) -> Optional[float]:
        """Time at which the rank is back (``None`` = never)."""
        return None if self.downtime is None else self.at + self.downtime

    def dark(self, now: float) -> bool:
        """True while the rank is crashed at ``now``."""
        return in_window(self.at, self.end, now)


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault events plus the fault RNG seed.

    ``seed`` drives every probabilistic decision (loss, duplication,
    reorder); ``None`` falls back to the scenario's seed, so a seeded
    scenario is fully deterministic on the simulated backend, fault
    decisions included.

    Example
    -------
    ::

        plan = FaultPlan(events=(
            MessageLoss(probability=0.1),
            LinkDegradation(start=0.5, end=1.5, bandwidth_factor=0.1,
                            links=("up-*",)),
        ), seed=7)
        scenario = Scenario(problem="sparse_linear", faults=plan)

    JSON forms: ``docs/testing.md``.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.events, list):
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"not a fault event: {event!r}")

    @property
    def is_empty(self) -> bool:
        return not self.events

    def select(self, *kinds: Type[FaultEvent]) -> List[FaultEvent]:
        """Events that are instances of any of ``kinds``, in plan order."""
        return [e for e in self.events if isinstance(e, kinds)]

    def message_events(self) -> List[FaultEvent]:
        """The message-level subset (the part the thread backend honours)."""
        return self.select(MessageLoss, MessageDuplication, MessageReorder,
                           RankCrash)

    def rng_seed(self, fallback: Optional[int] = None) -> int:
        """The seed the fault RNG should use for this plan."""
        if self.seed is not None:
            return self.seed
        return fallback if fallback is not None else 0

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (or hand-written JSON)."""
        known = {"seed", "events"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown fault-plan field(s) {unknown}; known: {sorted(known)}"
            )
        events = []
        for raw in data.get("events", []):
            payload = dict(raw)
            kind = payload.pop("kind", None)
            if kind not in _EVENT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; known: {_EVENT_KINDS.names()}"
                )
            events.append(_EVENT_KINDS.get(kind)(**payload))
        return cls(events=tuple(events), seed=data.get("seed"))


# ----------------------------------------------------------------------
# the per-message fate rule (every backend)
# ----------------------------------------------------------------------
class FaultDecision(NamedTuple):
    """Outcome of consulting :meth:`MessageFates.decide` for one message."""

    drop: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0


#: Shared "nothing happens" decision.
NO_FAULT = FaultDecision()


class MessageFates:
    """The message-level events of one plan, decided message by message.

    Owns the fault RNG (seeded with ``seed``), the plan's message events
    and crashes, and the counters that end up in
    :attr:`repro.api.result.RunResult.faults`.  :meth:`decide` consumes
    exactly one RNG draw per *eligible* probabilistic event, in plan
    order (plus one per granted reorder delay), so on the simulator
    (deterministic event order) the decision stream -- and therefore
    every counter -- is reproducible for a fixed seed.
    """

    def __init__(self, plan: FaultPlan, seed: int) -> None:
        self.plan = plan
        self._rng = random.Random(seed)
        self.counters: Dict[str, int] = {}
        self._message_events = plan.select(
            MessageLoss, MessageDuplication, MessageReorder
        )
        self._crashes: List[RankCrash] = plan.select(RankCrash)

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def decide(self, message: Any, now: float) -> FaultDecision:
        """The fate of ``message`` (``src``, ``dst``, ``tag``) sent at ``now``."""
        for crash in self._crashes:
            if not crash.dark(now):
                continue
            if message.src != crash.rank and message.dst != crash.rank:
                continue
            if not matches_tag(crash.tags, message.tag):
                continue
            self._count("messages_dropped")
            self._count("crash_dropped")
            return FaultDecision(drop=True)

        drop = False
        duplicate = False
        extra_delay = 0.0
        for event in self._message_events:
            if not in_window(event.start, event.end, now):
                continue
            if not matches_tag(event.tags, message.tag):
                continue
            if self._rng.random() >= event.probability:
                continue
            if isinstance(event, MessageLoss):
                drop = True
            elif isinstance(event, MessageDuplication):
                duplicate = True
            else:  # MessageReorder
                extra_delay += self._rng.random() * event.max_delay
        if drop:
            self._count("messages_dropped")
            return FaultDecision(drop=True)
        if duplicate:
            self._count("messages_duplicated")
        if extra_delay > 0.0:
            self._count("messages_delayed")
        if duplicate or extra_delay > 0.0:
            return FaultDecision(duplicate=duplicate, extra_delay=extra_delay)
        return NO_FAULT


__all__ = [
    "FaultPlan",
    "FaultEvent",
    "LinkDegradation",
    "HostSlowdown",
    "MessageLoss",
    "MessageDuplication",
    "MessageReorder",
    "RankCrash",
    "MessageFates",
    "FaultDecision",
    "NO_FAULT",
    "DATA_TAGS",
    "in_window",
    "matches_tag",
]
