"""In-memory spans recorded from outside the program, and the solver proxy.

Nothing here touches ``src/``: a span is recorded by this benchmark
around a call *into* a layer.  One root span per timed operation
(id ``workload/pass/op``); the proxy installed through the public
``Backend.run(scenario, make_solver=...)`` hook adds one child span per
``iterate`` / ``integrate`` / ``local_solution`` call, each naming the
root as its parent.  A layer's self time is its span minus the part of
it its children cover -- for a simulator run that is the root minus
the solver spans: binding, worker coroutine, effect interpreter and
engine, which cannot be told apart from outside.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: Child spans of only the first operations of a pass are written to
#: ``trace.json``; every operation keeps its root span and its totals.
DETAILED_OPS = 2

_TIMED = ("iterate", "integrate", "local_solution")


class OpSpans:
    """The spans of one operation: a root plus solver children."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.start = 0.0
        self.end = 0.0
        #: (layer.call name, rank, start, duration), appended by proxies.
        self.children: List[Tuple[str, int, float, float]] = []
        self.make_local_s = 0.0

    def busy(self, call: str) -> float:
        return sum(c[3] for c in self.children if c[0] == call)

    def calls(self, call: str) -> int:
        return sum(1 for c in self.children if c[0] == call)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def solver_s(self) -> float:
        """Time inside the problem's solver objects, all ranks summed."""
        return sum(c[3] for c in self.children)


class _SolverProxy:
    """Delegating timer around one rank's local solver.

    Everything except the three timed calls resolves on the real
    solver, so workers and interpreters see the same attributes
    (``providers``, ``begin_step``, ``batch_key``...) and results stay
    bit-identical; the proxy only reads the clock.
    """

    def __init__(self, solver: Any, rank: int, sink: List) -> None:
        self._solver = solver
        self._rank = rank
        self._sink = sink

    def __getattr__(self, name: str) -> Any:
        return getattr(self._solver, name)

    def iterate(self):
        started = time.perf_counter()
        out = self._solver.iterate()
        self._sink.append(
            ("problems.iterate", self._rank, started, time.perf_counter() - started)
        )
        return out

    def integrate(self, src, payload):
        started = time.perf_counter()
        self._solver.integrate(src, payload)
        self._sink.append(
            ("problems.integrate", self._rank, started, time.perf_counter() - started)
        )

    def local_solution(self):
        started = time.perf_counter()
        out = self._solver.local_solution()
        self._sink.append(
            ("problems.local_solution", self._rank, started,
             time.perf_counter() - started)
        )
        return out


def traced_solver_factory(problem: Any, op: OpSpans) -> Callable:
    """A ``make_solver`` that wraps ``problem.make_local`` in proxies.

    ``list.append`` is atomic under the interpreter lock, so the ranks
    of a threaded run share one sink; ``make_local`` time is summed
    under a lock because ranks may be built concurrently.
    """
    lock = threading.Lock()

    def make_solver(rank: int, size: int):
        started = time.perf_counter()
        solver = problem.make_local(rank, size)
        elapsed = time.perf_counter() - started
        with lock:
            op.make_local_s += elapsed
        return _SolverProxy(solver, rank, op.children)

    return make_solver


class Recorder:
    """All spans of one pass, kept in memory until the pass ends."""

    def __init__(self, workload: str, pass_index: int) -> None:
        self.workload = workload
        self.pass_index = pass_index
        self.ops: List[OpSpans] = []

    def begin(self) -> OpSpans:
        op = OpSpans(f"{self.workload}/{self.pass_index}/{len(self.ops)}")
        self.ops.append(op)
        return op

    def events(self) -> List[Dict[str, Any]]:
        """Chrome trace events (``ph: X``); times in microseconds."""
        out: List[Dict[str, Any]] = []
        for index, op in enumerate(self.ops):
            out.append({
                "name": self.workload, "cat": "op", "ph": "X", "pid": 0, "tid": 0,
                "ts": op.start * 1e6, "dur": op.wall * 1e6, "id": op.op_id,
                "args": {
                    "id": op.op_id, "parent": None,
                    "solver_s": op.solver_s, "self_s": op.wall - op.solver_s,
                    "children": len(op.children),
                },
            })
            if index >= DETAILED_OPS:
                continue
            for name, rank, start, duration in op.children:
                out.append({
                    "name": name, "cat": name.split(".")[0], "ph": "X",
                    "pid": 0, "tid": rank + 1,
                    "ts": start * 1e6, "dur": duration * 1e6,
                    "args": {"id": op.op_id, "parent": op.op_id, "rank": rank},
                })
        return out


def write_chrome_trace(path: str, events: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

