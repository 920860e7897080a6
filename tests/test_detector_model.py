"""The AIAC termination protocol, searched as a model.

:class:`Protocol` is N :class:`repro.core.convergence.Detector` objects
(a chain: rank ``r`` depends on ``r - 1`` and ``r + 1``, rank 0
coordinates) and a bag of messages in flight between them.  A
hypothesis state machine drives it: any rank iterates under or over the
threshold, is held, released or migrated at any time, and any message
in the bag -- data, state report, stop -- is delivered in any order,
late, or twice.  It runs derandomized with a fixed example budget, so
tier-1 sees the same examples every time.

What holds today is asserted after every step; what does not is pinned
as ``xfail(strict=True)`` at both levels -- the nine-step model trace
and three end-to-end runs -- so the fix (ROADMAP item 1(c)) has to flip
them.  DESIGN.md, "Termination detection", has the argument.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import Scenario, SimulatedBackend
from repro.core.aiac import AIACOptions
from repro.core.convergence import COORDINATOR, Detector

UNDER, OVER = 1e-9, 1.0
MAX_RANKS = 4


class Protocol:
    """N detectors, the messages in flight, and what an observer who
    sees every wire and every clock would write down."""

    def __init__(self, size, opts=AIACOptions()):
        self.size = size
        self.opts = opts
        self.coord = COORDINATOR
        self.providers = [
            {p for p in (r - 1, r + 1) if 0 <= p < size} for r in range(size)
        ]
        self.detectors = [
            Detector(r, size, self.providers[r], opts) for r in range(size)
        ]
        #: ("data", src, dst, stamp) | ("state", report) | ("stop", dst)
        self.bag = []
        self.held = [False] * size
        #: per rank: provider -> stamp of the data it last integrated
        self.heard = [{} for _ in range(size)]
        #: per rank: every (stamp, flag) it reported, in order
        self.emitted = [[] for _ in range(size)]
        #: per rank: the highest-stamped report the coordinator was given
        self.delivered = {}
        #: per rank: (own iterate, heard-stamps) when its flag last rose
        self.raised = [None] * size
        self.broadcasts = 0

    def running(self, rank):
        return not self.detectors[rank].stopped

    # -- what a rank does ------------------------------------------------
    def produce(self, src, dst):
        """``src`` sends its block to ``dst``, stamped with its iterate."""
        assert src in self.providers[dst]
        self.bag.append(("data", src, dst, self.detectors[src].iterations))

    def iterate(self, rank, under, times=1):
        for _ in range(times):
            self._step(rank, lambda d: d.iterated(UNDER if under else OVER, self.held[rank]))

    def migrate(self, rank):
        self._step(rank, Detector.migrated)

    def _step(self, rank, action):
        detector = self.detectors[rank]
        before = detector.converged
        report = action(detector)
        after = detector.converged
        if rank == self.coord:
            assert report is None, "the coordinator's report never goes on the wire"
            if after != before:  # straight into the panel: emitted is delivered
                self.delivered[rank] = (len(self.emitted[rank]) + 1, after)
                self.emitted[rank].append(self.delivered[rank])
        else:
            assert (report is not None) == (after != before), \
                "a report is emitted iff the believed flag changed"
            if report is not None:
                assert report[0] == rank and report[2] == after
                self.bag.append(("state", report))
                self.emitted[rank].append(report[1:])
        if after and not before:
            assert not self.held[rank], "a held rank raised its flag"
            assert self.providers[rank] <= self.heard[rank].keys(), \
                "a rank raised its flag before hearing every provider"
            self.raised[rank] = (detector.iterations, dict(self.heard[rank]))

    # -- what the network does -------------------------------------------
    def deliver(self, index, keep=False):
        """Hand over message ``index`` of the bag; ``keep`` leaves a
        copy in flight (a duplicate, delivered again later or never)."""
        message = self.bag[index] if keep else self.bag.pop(index)
        kind = message[0]
        if kind == "data":
            _, src, dst, stamp = message
            if self.running(dst):
                self.detectors[dst].data(src)
                self.heard[dst][src] = stamp
        elif kind == "state":
            rank, stamp, flag = message[1]
            if self.running(self.coord):
                self.detectors[self.coord].state(rank, stamp, flag)
                if stamp > self.delivered.get(rank, (0, False))[0]:
                    self.delivered[rank] = (stamp, flag)
        else:
            self.detectors[message[1]].stop()

    # -- what the coordinator decides --------------------------------------
    def halt(self):
        """The coordinator's check; broadcasts the stop when it fires."""
        newest = [self.delivered.get(r, (0, False))[1] for r in range(self.size)]
        fired = self.detectors[self.coord].halt()
        assert fired == all(newest), \
            f"halt() is {fired} with newest delivered reports {newest}"
        if fired:
            self.broadcasts += 1
            self.bag += [("stop", r) for r in range(self.size) if r != self.coord]
        return fired

    # -- checked after every step -------------------------------------------
    def check(self):
        assert self.broadcasts <= 1, "the stop was broadcast twice"
        for rank, reports in enumerate(self.emitted):
            stamps = [stamp for stamp, _ in reports]
            assert stamps == sorted(set(stamps)), f"rank {rank} stamps {stamps}"
            flags = [flag for _, flag in reports]
            assert flags == [i % 2 == 0 for i in range(len(flags))], \
                f"rank {rank} reported {flags}: not alternating from True"
            if rank != self.coord:
                assert self.detectors[rank].reports == len(reports)
        for detector in self.detectors:
            if detector.stopped:
                assert detector.converged and math.isfinite(detector.residual), \
                    f"rank {detector.rank} halted with residual {detector.residual}"

    def flags_verified(self):
        """The invariant the protocol does *not* have: at halt, every
        rank's flag was raised against data at least as new as each
        provider's own flag-raising iterate."""
        return [
            f"rank {rank} flagged against rank {p}'s iterate {seen[p]}, "
            f"rank {p} flagged at its iterate {self.raised[p][0]}"
            for rank, (_, seen) in enumerate(self.raised)
            for p in sorted(self.providers[rank])
            if seen[p] < self.raised[p][0]
        ]


# ----------------------------------------------------------------------
# the state machine
# ----------------------------------------------------------------------
ranks = st.integers(0, MAX_RANKS - 1)


class DetectorMachine(RuleBasedStateMachine):
    @initialize(size=st.integers(2, MAX_RANKS), stability=st.integers(1, 3))
    def build(self, size, stability):
        self.p = Protocol(size, AIACOptions(stability_count=stability))

    def rank(self, r):
        return r % self.p.size

    @rule(r=ranks, under=st.booleans(), times=st.integers(1, 3))
    def iterate(self, r, under, times):
        if self.p.running(self.rank(r)):
            self.p.iterate(self.rank(r), under, times)

    @rule(r=ranks, toward=st.booleans())
    def produce(self, r, toward):
        src = self.rank(r)
        dst = src + 1 if toward else src - 1
        if 0 <= dst < self.p.size:
            self.p.produce(src, dst)

    @rule(r=ranks)
    def settle(self, r):
        """The shortcut to the deep states: hear everyone, then sit
        under the threshold for a whole stability streak."""
        rank = self.rank(r)
        if self.p.running(rank):
            for src in sorted(self.p.providers[rank]):
                self.p.produce(src, rank)
                self.p.deliver(len(self.p.bag) - 1)
            self.p.iterate(rank, True, self.p.opts.stability_count)

    @rule()
    def quiesce(self):
        """Everyone settles and every report in flight arrives: the
        state a halt fires from, left for the other rules to disturb."""
        self.p.held = [False] * self.p.size
        for r in range(self.p.size):
            self.settle(r)
        for index in reversed(range(len(self.p.bag))):
            if self.p.bag[index][0] == "state":
                self.p.deliver(index)

    @rule(r=ranks, held=st.booleans())
    def hold(self, r, held):
        self.p.held[self.rank(r)] = held

    @rule(r=ranks)
    def migrate(self, r):
        if self.p.running(self.rank(r)):
            self.p.migrate(self.rank(r))

    @precondition(lambda self: self.p.bag)
    @rule(index=st.integers(0, 10**6), keep=st.booleans())
    def deliver(self, index, keep):
        self.p.deliver(index % len(self.p.bag), keep)

    @precondition(lambda self: self.p.running(self.p.coord))
    @rule()
    def halt(self):
        self.p.halt()

    @invariant()
    def holds_today(self):
        self.p.check()


MACHINE_SETTINGS = settings(
    derandomize=True, max_examples=150, stateful_step_count=40,
    deadline=None, database=None,
)

TestDetectorModel = DetectorMachine.TestCase
TestDetectorModel.settings = MACHINE_SETTINGS


# ----------------------------------------------------------------------
# fixed traces
# ----------------------------------------------------------------------
def test_reordered_or_duplicated_report_cannot_re_raise_a_retracted_flag():
    """Report and retraction used to carry the same stamp (the iteration
    count), so the coordinator took whichever came last."""
    p = Protocol(2)
    p.produce(0, 1)
    p.deliver(0)
    p.iterate(1, under=True, times=3)        # rank 1 reports True ...
    p.migrate(1)                             # ... and takes it back at once
    (_, report), (_, retraction) = p.bag
    assert report[2] is True and retraction[2] is False
    assert retraction[1] > report[1]
    p.produce(1, 0)
    p.deliver(2)
    p.iterate(0, under=True, times=3)        # the coordinator is converged
    p.deliver(1)                             # the retraction overtakes ...
    p.deliver(0, keep=True)                  # ... the report, which also
    p.deliver(0)                             # arrives twice
    assert not p.halt()
    p.check()


def false_halt_trace():
    """Nine steps, two ranks: each hears the other's iterate 0 once,
    then sits at the fixed point of its own block."""
    p = Protocol(2)
    p.produce(0, 1)
    p.produce(1, 0)
    p.deliver(0)                                          # 1
    p.deliver(0)                                          # 2
    p.iterate(1, under=True, times=p.opts.stability_count)  # 3-5
    p.iterate(0, under=True, times=p.opts.stability_count)  # 6-8
    p.deliver(0)                                          # 9: rank 1's report
    return p


def test_false_halt_trace_halts_and_breaks_nothing_asserted_today():
    p = false_halt_trace()
    assert p.halt()
    p.check()


@pytest.mark.xfail(strict=True, reason="ROADMAP 1(c): a flag is a belief about "
                   "frozen foreign data; nothing ties it to the data it was raised against")
def test_at_halt_every_flag_was_raised_against_its_providers_converged_data():
    p = false_halt_trace()
    assert p.halt()
    assert p.flags_verified() == []


# ----------------------------------------------------------------------
# end to end: "converged" must mean converged
# ----------------------------------------------------------------------
EPS = 1e-6
FALSE_HALT = pytest.mark.xfail(
    strict=True, reason="ROADMAP 1(c): the run halts converged=True far from the solution")


@pytest.mark.parametrize("environment, n, n_ranks", [
    pytest.param("pm2", 150, 2, marks=FALSE_HALT),
    pytest.param("pm2", 600, 8, marks=FALSE_HALT),
    pytest.param("omniorb", 600, 8, marks=FALSE_HALT),
    ("sync_mpi", 600, 8),  # the sound reference: an allreduce every iteration
])
def test_converged_means_converged(environment, n, n_ranks):
    scenario = Scenario(
        problem="sparse_linear",
        problem_params={"n": n, "dominance": 0.8, "eps": EPS},
        environment=environment, n_ranks=n_ranks, seed=42,
    )
    result = SimulatedBackend().run(scenario)
    assert result.converged
    error = scenario.build_problem().solution_error(result.solution())
    assert error <= 1e3 * EPS, f"converged=True with solution error {error:.3g}"
