"""The simulator's event path, pinned end to end.

``backend_stats["events"]`` is a property of the implementation: the
literals below are the cost of *this* engine / transport / process
design (four events per message, three for a rendezvous-blocked
sender, no same-timestamp bounce events) and
are expected to change -- knowingly -- when that design does.  What a
scenario *computes* must not: iterations, messages, makespan, spans.
"""

import hashlib
import importlib.util
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

import repro.core.run as run_module
import repro.simgrid.world as world_module
from repro.api import Scenario, SimulatedBackend
from repro.simgrid.engine import Engine


def tiny_sparse(environment: str) -> Scenario:
    # Host speed puts one iteration at ~20 ms of virtual time, the
    # regime the conformance generator calibrates to (see
    # repro.testing.generator._pick_cluster).
    return Scenario.from_dict({
        "problem": "sparse_linear",
        "problem_params": {
            "n": 120, "n_diagonals": 6, "sign_structure": "random", "eps": 1e-6,
        },
        "environment": environment,
        "cluster": "uniform_cluster",
        "cluster_params": {"speed": 3e4},
        "n_ranks": 3,
        "seed": 5,
    })


def tiny_chemical(environment: str) -> Scenario:
    return Scenario.from_dict({
        "problem": "chemical",
        "problem_params": {"nx": 8, "nz": 8, "t_end": 360.0, "dt": 180.0},
        "environment": environment,
        "cluster": "uniform_cluster",
        "n_ranks": 3,
        "seed": 5,
    })


# ----------------------------------------------------------------------
# (a) event totals
# ----------------------------------------------------------------------
#: environment -> (events, messages, iterations, makespan).  Only the
#: first column may move with the implementation.
PINNED = {
    "sync_mpi": (1277, 296, 87, 0.5982642879999995),
    "pm2": (1360, 302, 146, 0.7272898133333336),
    "mpimad": (1504, 334, 162, 0.8220713066666675),
    "omniorb": (1441, 320, 155, 0.7710419733333337),
}


@pytest.mark.parametrize("environment", sorted(PINNED))
def test_event_totals_are_pinned_per_environment(environment):
    result = SimulatedBackend().run(tiny_sparse(environment))
    stats = result.backend_stats
    assert (
        stats["events"], stats["messages_sent"],
        result.total_iterations, result.makespan,
    ) == PINNED[environment]


def test_sync_run_costs_four_events_per_message():
    """4 per message (software done, sender released, arrival, visible)
    plus the per-iteration compute events and the start/barrier wake-ups;
    one bounce event per blocking send or per Recv wake would break it."""
    result = SimulatedBackend().run(tiny_sparse("sync_mpi"))
    stats = result.backend_stats
    floor = 4 * stats["messages_sent"]
    assert floor <= stats["events"] <= floor + 2 * result.total_iterations


def benchmark_sparse(environment: str, n: int, n_ranks: int, **params) -> Scenario:
    # The shape of benchmarks/perf's sim_sync_sparse / sim_async_sparse.
    return Scenario.from_dict({
        "problem": "sparse_linear", "problem_params": {"n": n, **params},
        "environment": environment, "n_ranks": n_ranks, "seed": 1,
    })


#: (scenario, events, messages, makespan).  sync_mpi's sparse data
#: messages are rendezvous sends: three events each, the sender release
#: unobserved.  pm2 never blocks its sender and keeps all four.
BENCHMARK_PINNED = [
    (benchmark_sparse("sync_mpi", 2400, 16, dominance=0.6),
     20440, 6450, 0.9868836519999542),
    (benchmark_sparse("pm2", 1200, 8, dominance=0.6, eps=1e-3),
     6584, 572, 0.04925038399999992),
]


@pytest.mark.parametrize("scenario, events, messages, makespan", BENCHMARK_PINNED,
                         ids=["sync_mpi", "pm2"])
def test_benchmark_event_budget_is_pinned(scenario, events, messages, makespan):
    result = SimulatedBackend().run(scenario)
    stats = result.backend_stats
    assert (stats["events"], stats["messages_sent"], result.makespan) == (
        events, messages, makespan
    )


# ----------------------------------------------------------------------
# (d) a lone wake skips the queue
# ----------------------------------------------------------------------
def count_posts(monkeypatch):
    """Count ``Engine.post_after`` calls -- the queued form of a compute
    completion, which nothing else in the simulator uses."""
    calls = []
    post_after = Engine.post_after

    def counting(self, delay, callback):
        calls.append(delay)
        return post_after(self, delay, callback)

    monkeypatch.setattr(Engine, "post_after", counting)
    return calls


def test_a_lone_rank_never_queues_its_compute_completions(monkeypatch):
    """One rank, nothing else scheduled: every ``Iterate`` completes in
    place, and still counts its event (start + barrier + one each)."""
    posts = count_posts(monkeypatch)
    result = SimulatedBackend().run(Scenario.from_dict({
        "problem": "sparse_linear", "problem_params": {"n": 40},
        "environment": "sync_mpi", "n_ranks": 1, "seed": 71,
    }))
    assert result.converged and result.total_iterations == 41
    assert posts == []
    assert result.backend_stats["events"] == result.total_iterations + 2


def test_compute_completions_that_tie_take_the_queue(monkeypatch):
    """Two ranks whose completions fall on the same instants: a tie is
    never fired in place, so the ranks keep alternating in the order
    their events were queued."""
    from types import SimpleNamespace

    from repro.clusters import uniform_cluster
    from repro.core.effects import Iterate, Now
    from repro.envs.base import CommPolicy
    from repro.simgrid.world import World

    posts = count_posts(monkeypatch)
    log = []
    done = SimpleNamespace(flops=1e6)  # one second per iteration
    work = Iterate(SimpleNamespace(iterate=lambda: done))

    def proc(rank, size):
        for _ in range(3):
            yield work
            log.append((rank, (yield Now())))

    world = World(uniform_cluster(n_hosts=2, speed=1e6), CommPolicy(name="test"))
    world.spawn(proc(0, 2))
    world.spawn(proc(1, 2))
    world.run()
    assert log == [(0, 1.0), (1, 1.0), (0, 2.0), (1, 2.0), (0, 3.0), (1, 3.0)]
    assert len(posts) == 6 and world.engine.stats()["events"] == 2 + 6


# ----------------------------------------------------------------------
# (e) SISC does not depend on the order of same-timestamp events
# ----------------------------------------------------------------------
def block_shuffled(seed: int, block: int = 8):
    """0, 1, 2, ... with every run of ``block`` numbers shuffled: unique
    tie-breakers in an order the scheduling order does not determine."""
    rng = random.Random(seed)
    for base in itertools.count(0, block):
        chunk = list(range(base, base + block))
        rng.shuffle(chunk)
        yield from chunk


def run_with_shuffled_ties(scenario: Scenario, seed: int, monkeypatch):
    class ShuffledEngine(Engine):
        def __init__(self) -> None:
            super().__init__()
            self._seq = block_shuffled(seed)

    with monkeypatch.context() as patch:
        patch.setattr(world_module, "Engine", ShuffledEngine)
        return SimulatedBackend().run(scenario)


@pytest.mark.parametrize("make", [tiny_sparse, tiny_chemical])
def test_sisc_results_do_not_depend_on_tie_order(make, monkeypatch):
    """The synchronous half of ROADMAP item 4's schedule fuzz.  Which
    of two same-instant events fires first decides who books a shared
    link first, so the *makespan* may move; what SISC computes may not.
    (Asynchronous environments are order sensitive by nature -- a rank
    iterates on whatever has arrived -- and are deliberately not
    asserted here.)"""
    scenario = make("sync_mpi")
    reference = SimulatedBackend().run(scenario)
    event_deltas = set()
    for seed in range(8):
        shuffled = run_with_shuffled_ties(scenario, seed, monkeypatch)
        event_deltas.add(shuffled.backend_stats["events"] - reference.backend_stats["events"])
        assert shuffled.total_iterations == reference.total_iterations
        assert shuffled.backend_stats["messages_sent"] == reference.backend_stats["messages_sent"]
        assert np.array_equal(shuffled.solution(), reference.solution())
        assert shuffled.makespan == pytest.approx(reference.makespan, rel=1e-2)
    assert event_deltas == {0}


# ----------------------------------------------------------------------
# (f) the timeline still shows the waits
# ----------------------------------------------------------------------
def test_timeline_wait_spans_are_unchanged():
    """Direct resume moved *when the coroutine continues* inside an
    instant, not what the Gantt shows: the blocking-send / recv-wait /
    barrier spans of this run are the ones recorded before the event
    path was rebuilt (count, total length and a digest of all of them)."""
    result = SimulatedBackend(timeline=True).run(tiny_sparse("sync_mpi"))
    spans = result.timeline.to_dict()["spans"]
    waits = sorted(s for s in spans if s[4] in ("blocking-send", "recv-wait", "barrier"))
    summary = {}
    for _rank, start, end, kind, label in waits:
        count, total = summary.get((kind, label), (0, 0.0))
        summary[(kind, label)] = (count + 1, total + (end - start))
    assert summary == {
        ("comm", "blocking-send"): (296, 0.09371833600000021),
        ("comm", "recv-wait"): (178, 0.41798030933333186),
        ("idle", "barrier"): (3, 0.0018262399999999998),
    }
    digest = hashlib.sha1(json.dumps(waits).encode()).hexdigest()
    assert digest == "97f39c8bb9b37534d46758d05bd5a6488140ed50"


#: environment -> (count, total length, digest) of the compute spans,
#: recorded when the coroutines still charged an iteration with a
#: separate ``Compute`` effect after ``Iterate``.
COMPUTE_SPANS = {
    "pm2": (146, 2.1478, "8ad8b53d12fa8ed2399d82f7caaf1af176c49539"),
    "sync_mpi": (87, 1.279866666667, "e56040b41694a1de48adc6710880ae1f56093b61"),
}


@pytest.mark.parametrize("environment", sorted(COMPUTE_SPANS))
def test_timeline_compute_spans_are_unchanged(environment):
    """``Iterate`` charges its own flops: the compute spans are where,
    and as long as, the separate ``Compute`` effect used to put them."""
    result = SimulatedBackend(timeline=True).run(tiny_sparse(environment))
    spans = result.timeline.to_dict()["spans"]
    compute = sorted(s for s in spans if s[3] == "compute")
    count, total, digest = COMPUTE_SPANS[environment]
    assert len(compute) == count
    assert sum(end - start for _r, start, end, _k, _l in compute) == pytest.approx(total)
    assert hashlib.sha1(json.dumps(compute).encode()).hexdigest() == digest


# ----------------------------------------------------------------------
# (g) the worker loop's effect budget
# ----------------------------------------------------------------------
def run_counting_effects(scenario: Scenario, worker: str, monkeypatch):
    """Run ``scenario`` with every rank's coroutine wrapped to log
    ``(rank, effect type)`` per yield."""
    log = []
    registry = run_module.WORKER_REGISTRY
    inner = registry.get(worker)
    lookup = registry.get

    def counting(rank, size, solver, opts, **kwargs):
        coroutine = inner(rank, size, solver, opts, **kwargs)
        value = None
        while True:
            try:
                effect = coroutine.send(value)
            except StopIteration as stop:
                return stop.value
            log.append((rank, type(effect).__name__))
            value = yield effect

    monkeypatch.setattr(
        registry, "get", lambda name: counting if name == worker else lookup(name)
    )
    return SimulatedBackend().run(scenario), log


def test_aiac_iteration_that_sends_nothing_yields_three_effects(monkeypatch):
    """Data drain, ``Iterate`` (flops charged), control drain: the
    separate ``Compute`` made it four.  Hosts 100x faster than
    ``tiny_sparse``'s make most offers find their gate closed."""
    scenario = tiny_sparse("pm2").to_dict()
    scenario["cluster_params"] = {"speed": 3e6}
    result, log = run_counting_effects(Scenario.from_dict(scenario), "aiac", monkeypatch)
    assert sum(r.skipped_sends for r in result.reports.values()) == 1912
    silent = []
    for rank in result.reports:
        kinds = [kind for r, kind in log if r == rank]
        starts = [i for i, kind in enumerate(kinds) if kind == "Iterate"]
        # One window per iteration, Iterate to Iterate; the last one
        # runs into the worker's exit and is left out.
        windows = [kinds[a:b] for a, b in zip(starts, starts[1:])]
        silent += [w for w in windows if "Send" not in w]
    assert len(silent) > 700 and all(w == ["Iterate", "Drain", "Drain"] for w in silent)
    # 5006 effects with the separate Compute: one per iteration fewer.
    assert len(log) == 5006 - result.total_iterations == 3863


def test_sisc_iteration_yields_one_effect_fewer(monkeypatch):
    result, log = run_counting_effects(tiny_sparse("sync_mpi"), "sisc", monkeypatch)
    assert "Compute" not in {kind for _rank, kind in log}
    assert len(log) == 685 - result.total_iterations == 598


# ----------------------------------------------------------------------
# tools/sim_identity.py
# ----------------------------------------------------------------------
def _sim_identity():
    path = Path(__file__).resolve().parent.parent / "tools" / "sim_identity.py"
    spec = importlib.util.spec_from_file_location("sim_identity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sim_identity_reports_one_line_per_differing_scenario():
    tool = _sim_identity()
    parent = {"a": {"makespan": 1.0, "solution_sha1": "x"}, "b": {"makespan": 2.0}}
    change = {"a": {"makespan": 1.5, "solution_sha1": "x"}, "b": {"makespan": 2.0}, "c": {}}
    assert tool.diff(parent, parent) == []
    assert tool.diff(parent, change) == [
        "a: makespan 1.0 -> 1.5",
        "c: only in change",
    ]


def test_sim_identity_passes_a_tree_against_itself(capsys):
    tool = _sim_identity()
    assert tool.main(["--parent", str(tool.ROOT), "--n", "2", "--seeds", "3"]) == 0
    total = 2 + len(tool.CHEMICAL_BATTERY) + len(tool.SPARSE_BATTERY)  # generated + fixed
    out = capsys.readouterr().out
    assert f"{total} scenarios (n=2, seeds=3), 0 differ" in out
    assert "battery repeats: 0 differ on the parent, 0 on the change" in out
    fingerprints, events = tool.fingerprints(1, [3])
    # Engine events are printed parent -> change, never compared; the
    # n=2 run is one generated scenario more than this n=1 one.
    (line,) = [line for line in out.splitlines() if "engine events" in line]
    before, after = line.split("engine events ")[1].split(" (")[0].split(" -> ")
    assert before == after and int(after) > events > 0
    assert set(tool.CHEMICAL_BATTERY) | set(tool.SPARSE_BATTERY) < set(fingerprints)
    fingerprint = next(iter(fingerprints.values()))
    assert "events" not in fingerprint and len(fingerprint["solution_sha1"]) == 40
    # The Gantt output (a non-empty one) is part of what must match.
    assert fingerprint["timeline_sha1"] != hashlib.sha1(b"[[], []]").hexdigest()
    assert len(fingerprint["timeline_sha1"]) == 40
