"""The benchmark's workloads: inputs, one timed operation, checks, probes.

Every workload is measured **from outside** the program: by timing
calls into public functions (R, *replay*), by the public
``Backend.run(scenario, make_solver=...)`` hook (P, *proxy*, see
:mod:`spans`) and by reading public result fields (F, *field*).  The
program only ever sees scenario dicts generated here from ``--seed``.

Metric names, units, directions and bounds are declared once, in
``BENCHMARK.json``, next to why each workload exists; what each layer
metric means is in ``README.md``.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import ProcessBackend, Scenario, SimulatedBackend, ThreadedBackend
from repro.linalg import gmres, max_norm_diff
from repro.linalg.sparse import MultiDiagonalMatrix
from repro.obs import utilisation_table
from repro.serve import DONE, ResultCache, ServeClient, TERMINAL_STATES
from repro.sweep import SweepState, run_sweep

import env
from spans import OpSpans, traced_solver_factory

#: Percentile metrics taken over per-request samples pooled across ops
#: and passes: metric -> (sample list, percentile).
SAMPLE_METRICS: Dict[str, Tuple[str, float]] = {
    "serve.rtt_miss_ms_p50": ("serve.rtt_miss_ms", 50),
    "serve.rtt_miss_ms_p90": ("serve.rtt_miss_ms", 90),
    "serve.rtt_hit_ms_p50": ("serve.rtt_hit_ms", 50),
    "serve.rtt_hit_ms_p95": ("serve.rtt_hit_ms", 95),
    "serve.submit_ack_ms_p50": ("serve.submit_ack_ms", 50),
    "serve.polls_per_job": ("serve.polls_per_job", 50),
    "sweep.resume_units_per_s": ("sweep.resume_units_per_s", 50),
}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
@dataclass
class Op:
    """What one timed operation did."""

    work: float                  # iterations, sweep units or jobs completed
    wall: float                  # seconds
    ok: bool
    start: float = 0.0           # perf_counter at the start (root span)
    #: Quantities that must repeat exactly across ops and passes.
    counts: Optional[Tuple] = None
    #: Layer numbers read from public result fields (median over ops).
    facts: Dict[str, float] = field(default_factory=dict)
    #: Per-request samples, pooled over ops and passes for percentiles.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    error: str = ""


def failed_op(start: float, error: str) -> Op:
    return Op(work=0.0, wall=time.perf_counter() - start, ok=False, start=start,
              error=error)


def per_call_s(fn: Callable[[], Any], budget_s: float, min_calls: int = 5) -> float:
    """Median seconds per call of ``fn`` over a time slice."""
    samples: List[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_calls or (
        time.perf_counter() < deadline and len(samples) < 20_000
    ):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def json_equal(left: Any, right: Any) -> bool:
    return json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True)


def tiny_unit(seed: int, n_ranks: int = 1) -> Dict[str, Any]:
    """The smallest useful run (~2-4 ms): harness cost dominates around it."""
    return {
        "problem": "sparse_linear",
        "problem_params": {"n": 40},
        "environment": "sync_mpi",
        "n_ranks": n_ranks,
        "seed": seed,
    }


TINY_ACCURACY = 1e-4


def api_probes(scenario: Scenario, result: Any, budget_s: float) -> Dict[str, float]:
    """(R) the scenario-pipeline functions every harness layer calls."""
    as_dict = scenario.to_dict()

    def bind() -> None:
        problem = scenario.build_problem()
        scenario.build_environment()
        scenario.build_network()
        scenario.resolved_options(problem)

    bind()  # warm: registries resolved, allocator primed
    slice_s = budget_s / 4
    return {
        "api.from_dict_us": per_call_s(lambda: Scenario.from_dict(as_dict), slice_s) * 1e6,
        "api.content_hash_us": per_call_s(lambda: ResultCache.key_for(scenario), slice_s) * 1e6,
        "api.to_record_us": per_call_s(result.to_record, slice_s) * 1e6,
        "api.bind_ms": per_call_s(bind, slice_s, min_calls=3) * 1e3,
    }


def cache_probes(record: Dict[str, Any], key: str, budget_s: float) -> Dict[str, float]:
    """(R) ``ResultCache.put`` / ``get_checked`` on the workload's own record."""
    root = tempfile.mkdtemp(prefix="cache-probe-")
    try:
        cache = ResultCache(root)
        put = per_call_s(lambda: cache.put(key, record), budget_s / 2)
        get = per_call_s(lambda: cache.get_checked(key, backend="simulated"), budget_s / 2)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"serve.cache_put_us": put * 1e6, "serve.cache_get_us": get * 1e6}


# ----------------------------------------------------------------------
# base classes
# ----------------------------------------------------------------------
class Workload:
    """One set of inputs the benchmark runs.  Subclasses fill the hooks."""

    name = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""
    #: Reference loop that normalises this workload's rate (``hostref``),
    #: or ``None`` when the operation mostly waits and host speed does
    #: not set its duration.
    ref: Optional[str] = "py"
    min_ops = 3

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        if quick:
            self.min_ops = 1

    def setup(self) -> None:
        """Generate inputs from the seed; create state; start helpers."""

    def op(self, spans: Optional[OpSpans] = None) -> Op:
        """One operation; traced from outside when ``spans`` is given."""
        raise NotImplementedError

    def begin(self) -> None:
        """Called after the discarded warm-up op, before the timed ones."""

    def end(self) -> Optional[Op]:
        """An untimed closing phase, after the last timed op: its facts
        and samples feed the layer metrics, its ``ok`` the failure count,
        its wall no rate."""
        return None

    def layers(self, budget_s: float) -> Dict[str, float]:
        """(R) replay probes and diagnostics of the layers pass."""
        return {}

    def teardown(self) -> None:
        """Remove state dirs; stop and reap every helper process."""


class ScenarioWorkload(Workload):
    """One ``Backend.run`` of one scenario."""

    work_unit = "solver iterations"
    #: Max-norm error against the known true solution that an operation
    #: must reach to count (``None``: bit-identity to the warm-up run).
    accuracy: Optional[float] = None
    simulated = True

    def scenario_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def backend(self, **kwargs: Any) -> Any:
        return SimulatedBackend(**kwargs)

    def setup(self) -> None:
        self.scenario = Scenario.from_dict(self.scenario_dict())
        self.problem = self.scenario.build_problem()
        self.reference_solution: Optional[np.ndarray] = None
        self.last_result: Any = None

    def solution_error(self, solution: np.ndarray) -> float:
        return float(self.problem.solution_error(solution))

    def op(self, spans: Optional[OpSpans] = None) -> Op:
        backend = self.backend()
        make_solver = None
        if spans is not None:
            # A fresh problem per traced op: the proxies must wrap
            # solvers no earlier run has touched.
            make_solver = traced_solver_factory(self.scenario.build_problem(), spans)
        start = time.perf_counter()
        try:
            result = backend.run(self.scenario, make_solver=make_solver)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            return failed_op(start, traceback.format_exc())
        wall = time.perf_counter() - start
        self.last_result = result
        solution = result.solution()
        error = self.solution_error(solution)
        if self.accuracy is None:
            if self.reference_solution is None:
                self.reference_solution = solution
            accurate = np.array_equal(solution, self.reference_solution)
        else:
            accurate = error <= self.accuracy
        stats = result.backend_stats
        skipped = sum(rep.skipped_sends for rep in result.reports.values())
        sent = int(stats.get("messages_sent", 0))
        facts = {
            "core.iterations": result.total_iterations,
            "core.skipped_sends": skipped,
            "core.send_skip_ratio": skipped / (skipped + sent) if skipped + sent else 0.0,
            "core.solution_error": error,
        }
        counts = None
        if self.simulated:
            facts["simgrid.events"] = stats["events"]
            facts["simgrid.messages_sent"] = sent
            facts["simgrid.virtual_makespan_s"] = result.makespan
            counts = (result.total_iterations, stats["events"], sent,
                      result.makespan, error)
        else:
            facts["runtime.messages_sent"] = sent
        if spans is not None:
            facts.update(self.span_facts(spans, wall, result))
        return Op(
            work=float(result.total_iterations), wall=wall,
            ok=bool(result.converged and accurate), start=start,
            counts=counts, facts=facts,
            error="" if result.converged and accurate else (
                f"converged={result.converged} solution_error={error:.3g}"
            ),
        )

    def span_facts(self, spans: OpSpans, wall: float, result: Any) -> Dict[str, float]:
        """(P) what the solver proxies saw during one traced op."""
        iterate_busy = spans.busy("problems.iterate")
        iterate_calls = spans.calls("problems.iterate")
        facts = {
            "problems.iterate_calls": iterate_calls,
            "problems.iterate_busy_s": iterate_busy,
            "problems.iterate_us": iterate_busy / iterate_calls * 1e6 if iterate_calls else 0.0,
            "problems.integrate_calls": spans.calls("problems.integrate"),
            "problems.integrate_busy_s": spans.busy("problems.integrate"),
            "problems.make_local_ms": spans.make_local_s * 1e3,
        }
        if self.simulated:
            self_s = wall - spans.solver_s
            events = result.backend_stats["events"]
            facts["problems.iterate_share"] = iterate_busy / wall
            facts["simgrid.self_s"] = self_s
            facts["simgrid.self_us_per_event"] = self_s / events * 1e6
            facts["simgrid.self_us_per_iter"] = self_s / result.total_iterations * 1e6
        else:
            # 1.0 = the ranks' solver calls were serialised (one core,
            # or the interpreter lock); n_ranks = fully parallel.
            facts["runtime.solver_concurrency"] = iterate_busy / wall
        return facts

    def virtual_shares(self) -> Dict[str, float]:
        """(F) where *simulated* time goes, from the public timeline."""
        result = SimulatedBackend(timeline=True).run(self.scenario)
        rows = utilisation_table(result.timeline)
        span = result.timeline.makespan() or 1.0
        return {
            "simgrid.virtual_idle_share": statistics.fmean(r["idle_s"] for r in rows) / span,
            "simgrid.virtual_comm_share": statistics.fmean(r["comm_s"] for r in rows) / span,
        }


def sparse(n: int, environment: str, n_ranks: int, seed: int, **params: Any) -> Dict[str, Any]:
    return {
        "problem": "sparse_linear",
        "problem_params": {"n": n, **params},
        "environment": environment,
        "n_ranks": n_ranks,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# the three simulator workloads
# ----------------------------------------------------------------------
class SimAsyncSparse(ScenarioWorkload):
    name = "sim_async_sparse"
    #: Loose on purpose: it is what HEAD delivers (every rank reports
    #: converged at eps=1e-6 while the assembled solution is ~1e-1
    #: off).  Tightening it is a correctness issue, not this one.
    accuracy = 0.25

    def scenario_dict(self) -> Dict[str, Any]:
        if self.quick:
            return sparse(150, "pm2", 2, self.seed)
        # The ledger's sparse_pm2_n1200_r8 with dominance 0.6 and eps
        # 1e-3 instead of 0.8 and 1e-6: the same per-iteration mix in a
        # third of the iterations, so that a pass fits ~10 ops.
        return sparse(1200, "pm2", 8, self.seed, dominance=0.6, eps=1e-3)

    def layers(self, budget_s: float) -> Dict[str, float]:
        slice_s = budget_s / 6
        out = api_probes(self.scenario, self.last_result, slice_s)
        matrix = self.problem.matrix
        x = np.random.default_rng(self.seed).random(matrix.n)
        hi = max(1, matrix.n // 8)
        out["linalg.dia_row_block_matvec_small_us"] = per_call_s(
            lambda: matrix.row_block_matvec(0, hi, x), slice_s) * 1e6
        a, b = x[:150].copy(), x[-150:].copy()
        out["linalg.max_norm_diff_small_us"] = per_call_s(
            lambda: max_norm_diff(a, b), slice_s) * 1e6
        out.update(self.virtual_shares())
        out["obs.timeline_overhead_ratio"] = self.timeline_overhead(slice_s * 2)
        out.update(self.adverse_probe(slice_s))
        return out

    def timeline_overhead(self, budget_s: float) -> float:
        """(R) the same op with ``timeline=True`` over without, alternated."""
        off: List[float] = []
        on: List[float] = []
        deadline = time.perf_counter() + budget_s
        while len(off) < 2 or time.perf_counter() < deadline:
            for samples, flag in ((off, False), (on, True)):
                started = time.perf_counter()
                SimulatedBackend(timeline=flag).run(self.scenario)
                samples.append(time.perf_counter() - started)
        return statistics.median(on) / statistics.median(off)

    def adverse_probe(self, budget_s: float) -> Dict[str, float]:
        """(R/F) balancing + fault-applier visibility: the ledger's
        heterogeneous diffusion scenario under 8 % seeded message loss."""
        scenario = Scenario.from_dict({
            "problem": "sparse_linear",
            "problem_params": {"n": 150 if self.quick else 400, "dominance": 0.9},
            "environment": "pm2",
            "cluster": "local_cluster",
            "cluster_params": {"speed_scale": 4e-4},
            "n_ranks": 6,
            "seed": self.seed,
            "balancer": {"policy": "diffusion", "period": 10},
            "faults": {"seed": self.seed,
                       "events": [{"kind": "message_loss", "probability": 0.08}]},
        })
        results: List[Any] = []
        wall = per_call_s(lambda: results.append(SimulatedBackend().run(scenario)),
                          budget_s, min_calls=1 if self.quick else 3)
        last = results[-1]
        return {
            "balancing.adverse_run_ms_p50": wall * 1e3,
            "balancing.rows_migrated": last.balancing.get("rows_out", 0),
            "simgrid.faults_dropped": last.faults.get("messages_dropped", 0),
        }


class SimSyncSparse(ScenarioWorkload):
    name = "sim_sync_sparse"
    accuracy = 1e-4

    def scenario_dict(self) -> Dict[str, Any]:
        if self.quick:
            return sparse(240, "sync_mpi", 4, self.seed)
        return sparse(2400, "sync_mpi", 16, self.seed, dominance=0.6)

    def layers(self, budget_s: float) -> Dict[str, float]:
        out = api_probes(self.scenario, self.last_result, budget_s / 3)
        out["simgrid.engine_dispatch_us"] = self.engine_dispatch(budget_s / 3)
        out.update(self.virtual_shares())
        return out

    def engine_dispatch(self, budget_s: float) -> float:
        """(R) ``Engine.at/after/run`` per event: a 100-wide cascade of
        self-rescheduling callbacks (the ledger's ``engine_dispatch``)."""
        from repro.simgrid.engine import Engine

        total = 500 if self.quick else 5000

        def cascade() -> None:
            engine = Engine()
            fired = [0]

            def callback() -> None:
                fired[0] += 1
                if fired[0] < total:
                    engine.after(0.001 * (fired[0] % 7), callback)

            for _ in range(100):
                engine.at(0.0, callback)
            engine.run()

        return per_call_s(cascade, budget_s, min_calls=3) / (total + 99) * 1e6


class SimLockstepChem(ScenarioWorkload):
    name = "sim_lockstep_chem"
    accuracy = None  # no closed-form solution: bit-identity to the warm-up

    def scenario_dict(self) -> Dict[str, Any]:
        params = (
            {"nx": 8, "nz": 12, "t_end": 360.0} if self.quick else
            {"nx": 24, "nz": 24, "t_end": 1080.0, "gmres_tol": 1e-12, "newton_tol": 1e-10}
        )
        return {"problem": "chemical", "problem_params": params,
                "environment": "sync_mpi", "n_ranks": 4, "seed": self.seed}

    def solution_error(self, solution: np.ndarray) -> float:
        if self.reference_solution is None:
            return 0.0
        return float(np.max(np.abs(solution - self.reference_solution)))

    def layers(self, budget_s: float) -> Dict[str, float]:
        out = api_probes(self.scenario, self.last_result, budget_s / 3)
        out["linalg.gmres_solve_us"] = self.gmres_solve(budget_s / 3)
        out.update(self.virtual_shares())
        return out

    def gmres_solve(self, budget_s: float) -> float:
        """(R) one ``linalg.gmres`` solve at this scenario's per-rank block size."""
        n = max(8, self.problem.n_unknowns // self.scenario.n_ranks)
        rng = np.random.default_rng(self.seed)
        operator = MultiDiagonalMatrix(n, [0, 1, -1, 2, -2])
        for offset in (1, -1, 2, -2):
            operator.set_diagonal(offset, -rng.uniform(0.2, 1.0))
        operator.set_diagonal(0, 4.5)
        b = rng.standard_normal(n)
        solved = gmres(operator.matvec, b, tol=1e-10)
        if not solved.converged:
            raise RuntimeError("gmres probe did not converge")
        return per_call_s(lambda: gmres(operator.matvec, b, tol=1e-10), budget_s) * 1e6


# ----------------------------------------------------------------------
# real threads
# ----------------------------------------------------------------------
class ThreadsComputeSparse(ScenarioWorkload):
    name = "threads_compute_sparse"
    ref = "mem"
    simulated = False
    accuracy = 1e-4

    def scenario_dict(self) -> Dict[str, Any]:
        if self.quick:
            return sparse(2000, "pm2", 2, self.seed, n_diagonals=30, dominance=0.85)
        # Per-rank block: 101 diagonals x 5000 rows = 4 MB of values plus
        # as much gather index -- past the private caches.  Half the
        # ledger's n=40 000 so that a pass fits >= 4 ops.
        return sparse(20_000, "pm2", 4, self.seed, n_diagonals=100, dominance=0.85,
                      sign_structure="negative")

    def backend(self, **kwargs: Any) -> Any:
        return ThreadedBackend(timeout=120.0, **kwargs)

    def layers(self, budget_s: float) -> Dict[str, float]:
        slice_s = budget_s / 8
        out = api_probes(self.scenario, self.last_result, slice_s)
        out.update(self.dia_kernel(slice_s))
        big = np.random.default_rng(self.seed).random((2, 10_000))
        out["linalg.max_norm_diff_large_us"] = per_call_s(
            lambda: max_norm_diff(big[0], big[1]), slice_s) * 1e6
        out["runtime.channel_post_drain_us"] = self.channel_post_drain(slice_s)
        out.update(self.wall_shares())
        out.update(self.process_pair(slice_s))
        return out

    def dia_kernel(self, budget_s: float) -> Dict[str, float]:
        """(R) the per-rank product, with flops and *computed* bytes.

        Bytes are computed from array sizes (values + gather index read,
        gathered operand written and read back, result written), not
        measured; the host's shared L3 is far larger than any array
        here, so no achieved-vs-peak bandwidth ratio is claimed.
        """
        matrix = self.problem.matrix
        x = np.random.default_rng(self.seed).random(matrix.n)
        rows = matrix.n // 4
        entries = len(matrix.offsets) * rows
        seconds = per_call_s(lambda: matrix.row_block_matvec(0, rows, x), budget_s)
        flops = 2.0 * entries
        computed_bytes = 8.0 * (5 * entries + rows)
        return {
            "linalg.dia_row_block_matvec_us": seconds * 1e6,
            "linalg.dia_row_block_matvec_gflops": flops / seconds / 1e9,
            "linalg.dia_row_block_computed_gbs": computed_bytes / seconds / 1e9,
            "linalg.dia_flops_per_byte": flops / computed_bytes,
        }

    def channel_post_drain(self, budget_s: float) -> float:
        """(R) ``ChannelHub.post`` + ``drain`` per message across 4 ranks."""
        from repro.runtime.channels import ChannelHub
        from repro.simgrid.message import Message

        messages = 200 if self.quick else 2000

        def traffic() -> None:
            hub = ChannelHub(4)
            for i in range(messages):
                hub.post(Message(src=i % 4, dst=(i + 1) % 4, tag="data", payload=i))
                if i % 16 == 15:
                    hub.drain((i + 1) % 4)
            for rank in range(4):
                hub.drain(rank)

        return per_call_s(traffic, budget_s, min_calls=3) / messages * 1e6

    def wall_shares(self) -> Dict[str, float]:
        """(F) where the ranks' *wall* time goes, from the public timeline."""
        result = self.backend(timeline=True).run(self.scenario)
        rows = utilisation_table(result.timeline)
        span = result.timeline.makespan() or 1.0
        return {
            f"runtime.{kind}_share": statistics.fmean(r[f"{kind}_s"] for r in rows) / span
            for kind in ("compute", "idle", "comm")
        }

    def process_pair(self, budget_s: float) -> Dict[str, float]:
        """(R) the interpreter-lock escape as a diagnostic: this scenario
        on ``ProcessBackend`` (one run: spawn + cold problem builds make
        it seconds long and too noisy to gate), and the spawn/bootstrap
        floor on a trivial 2-rank scenario.

        The run is read from ``result.elapsed`` (process start to the
        last rank's report) and held to a 30 s timeout (it takes 1-8 s):
        about one run in ten of this scenario, a rank process blocks in
        its exit drain (``process_hub.discard_inbox`` reading a message
        whose sender has already gone) after every report is in, and the
        backend then sits in ``join`` until its timeout before it reaps
        the rank and returns the -- complete -- result.  The timeout
        must stay under the pass's watchdog (``run.spawn_pass``).
        """
        backend = ProcessBackend(timeout=30.0)
        result = backend.run(self.scenario)
        if not result.converged:
            raise RuntimeError("process-backend diagnostic run did not converge")
        trivial = Scenario.from_dict(tiny_unit(self.seed, n_ranks=2))
        spawn_s = per_call_s(lambda: backend.run(trivial), budget_s, min_calls=3)
        return {"runtime.process_run_s": result.elapsed,
                "runtime.process_spawn_ms_p50": spawn_s * 1e3}


# ----------------------------------------------------------------------
# the batched engine on an asynchronous grid
# ----------------------------------------------------------------------
class MegaAsyncGrid(Workload):
    name = "mega_async_grid"
    work_unit = "solver iterations summed over the grid"

    def grid(self) -> List[Dict[str, Any]]:
        if self.quick:
            chem, n_sparse, n = {"nx": 8, "nz": 12, "t_end": 180.0}, 1, 100
        else:
            chem, n_sparse, n = {"nx": 8, "nz": 12, "t_end": 360.0}, 4, 400
        points = []
        for i in range(1 + n_sparse):
            point = {
                "environment": "pm2",
                "n_ranks": 4,
                "cluster": "local_cluster",
                "cluster_params": {"speed_scale": 0.8 + 0.05 * i, "n_hosts": 4},
                "seed": self.seed + i,
            }
            if i == 0:
                point.update(problem="chemical", problem_params=dict(chem))
            else:
                point.update(problem="sparse_linear", problem_params={"n": n})
            points.append(point)
        return points

    @staticmethod
    def _signature(record: Dict[str, Any]) -> Tuple:
        return (record["makespan"], record["total_iterations"],
                record["backend_stats"]["messages_sent"])

    def setup(self) -> None:
        self.points = self.grid()
        reference = run_sweep(self.points, placement="local")
        if reference.errors:
            raise RuntimeError(f"parity reference failed: {reference.errors[0]['error']}")
        self.reference = [self._signature(r) for r in reference.records]

    def op(self, spans: Optional[OpSpans] = None) -> Op:
        start = time.perf_counter()
        try:
            outcome = run_sweep(self.points, placement="mega")
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            return failed_op(start, traceback.format_exc())
        wall = time.perf_counter() - start
        if outcome.errors:
            return failed_op(start, outcome.errors[0]["error"])
        records = outcome.records
        parity = [self._signature(r) for r in records] == self.reference
        converged = all(r["converged"] for r in records)
        iterations = sum(r["total_iterations"] for r in records)
        events = sum(r["backend_stats"]["events"] for r in records)
        messages = sum(r["backend_stats"]["messages_sent"] for r in records)
        makespan = sum(r["makespan"] for r in records)
        batched = records[0]["backend_stats"].get("batched", {})
        stacked, scalar = batched.get("stacked", 0), batched.get("scalar", 0)
        facts = {
            "core.iterations": iterations,
            "simgrid.events": events,
            "simgrid.messages_sent": messages,
            "simgrid.virtual_makespan_s": makespan,
            "simgrid.batch_stacked": stacked,
            "simgrid.batch_scalar": scalar,
            "simgrid.batch_max_width": batched.get("max_width", 0),
            "simgrid.batch_stacked_ratio": stacked / (stacked + scalar) if stacked + scalar else 0.0,
            **{f"sweep.{k}": outcome.counters[k]
               for k in ("executed", "resumed", "cache_hits", "coalesced", "retries", "failed")},
        }
        return Op(work=float(iterations), wall=wall, ok=parity and converged, start=start,
                  counts=(iterations, events, messages, makespan), facts=facts,
                  error="" if parity and converged else f"parity={parity} converged={converged}")

    def layers(self, budget_s: float) -> Dict[str, float]:
        """(R) the same grid one scenario at a time, and each family alone."""
        min_calls = 1 if self.quick else 3
        chem = [p for p in self.points if p["problem"] == "chemical"]
        rest = [p for p in self.points if p["problem"] != "chemical"]
        mega_s = per_call_s(lambda: run_sweep(self.points, placement="mega"),
                            budget_s / 4, min_calls)
        local_s = per_call_s(lambda: run_sweep(self.points, placement="local"),
                             budget_s / 4, min_calls)
        return {
            "sweep.local_grid_s": local_s,
            "sweep.mega_chem_s": per_call_s(lambda: run_sweep(chem, placement="mega"),
                                            budget_s / 4, min_calls),
            "sweep.mega_sparse_s": per_call_s(lambda: run_sweep(rest, placement="mega"),
                                              budget_s / 4, min_calls),
            "sweep.mega_speedup": local_s / mega_s,
        }


# ----------------------------------------------------------------------
# the durable sweep harness around tiny units
# ----------------------------------------------------------------------
class SweepDurableTiny(Workload):
    name = "sweep_durable_tiny"
    work_unit = "sweep units settled (fresh durable sweep)"

    def setup(self) -> None:
        self.n_units = 6 if self.quick else 100
        self.units = [tiny_unit(self.seed + i) for i in range(self.n_units)]
        first = Scenario.from_dict(self.units[0])
        self.first_result = SimulatedBackend().run(first)
        error = first.build_problem().solution_error(self.first_result.solution())
        if not (self.first_result.converged and error <= TINY_ACCURACY):
            raise RuntimeError(f"tiny unit misses its stated accuracy: {error:.3g}")

    def op(self, spans: Optional[OpSpans] = None) -> Op:
        n = self.n_units
        state_dir = tempfile.mkdtemp(prefix="sweep-")
        try:
            start = time.perf_counter()
            try:
                fresh = run_sweep(self.units, state_dir=state_dir)
                wall = time.perf_counter() - start
                resume_start = time.perf_counter()
                resumed = run_sweep(self.units, state_dir=state_dir, resume=True)
                resume_wall = time.perf_counter() - resume_start
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                return failed_op(start, traceback.format_exc())
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        checks = {
            "fresh executed all": fresh.counters["executed"] == n,
            "fresh none failed": fresh.counters["failed"] == 0 and not fresh.errors,
            "fresh all converged": all(r.get("converged") for r in fresh.records),
            "resume resumed all": resumed.counters["resumed"] == n,
            "resume executed none": resumed.counters["executed"] == 0,
            "resumed records equal fresh": json_equal(resumed.records, fresh.records),
        }
        broken = [label for label, passed in checks.items() if not passed]
        latency = fresh.metrics["histograms"].get("unit_latency_s", {})
        facts = {
            "sweep.executed": fresh.counters["executed"],
            "sweep.resumed": resumed.counters["resumed"],
            "sweep.cache_hits": fresh.counters["cache_hits"],
            "sweep.coalesced": fresh.counters["coalesced"],
            "sweep.retries": fresh.counters["retries"],
            "sweep.failed": fresh.counters["failed"],
            "sweep.unit_latency_ms_mean": latency.get("mean", 0.0) * 1e3,
        }
        return Op(work=float(n), wall=wall, ok=not broken, start=start, facts=facts,
                  samples={"sweep.resume_units_per_s": [n / resume_wall]},
                  error="; ".join(broken))

    def layers(self, budget_s: float) -> Dict[str, float]:
        n = self.n_units
        slice_s = budget_s / 8
        min_calls = 1 if self.quick else 2
        first = Scenario.from_dict(self.units[0])
        out = api_probes(first, self.first_result, slice_s)
        out.update(cache_probes(self.first_result.to_record(),
                                ResultCache.key_for(first), slice_s))
        backend = SimulatedBackend()

        def bare() -> None:
            # The single-threaded baseline: no validation, hashing,
            # cache or journal.
            for unit in self.units:
                backend.run(Scenario.from_dict(unit)).to_record()

        def durable(**kwargs: Any) -> None:
            state_dir = tempfile.mkdtemp(prefix="sweep-")
            try:
                outcome = run_sweep(self.units, state_dir=state_dir, **kwargs)
            finally:
                shutil.rmtree(state_dir, ignore_errors=True)
            if outcome.errors:
                raise RuntimeError(outcome.errors[0]["error"])

        bare_s = per_call_s(bare, slice_s, min_calls)
        durable_s = per_call_s(durable, slice_s, min_calls)
        out["sweep.bare_units_per_s"] = n / bare_s
        out["sweep.memory_units_per_s"] = n / per_call_s(
            lambda: run_sweep(self.units), slice_s, min_calls)
        out["sweep.pool_units_per_s"] = n / per_call_s(
            lambda: durable(placement="pool", processes=2), slice_s, 1)
        out["sweep.overhead_us_per_unit"] = (durable_s - bare_s) / n * 1e6
        out["sweep.journal_append_us"] = self.journal_append(slice_s)
        return out

    def journal_append(self, budget_s: float) -> float:
        """(R) ``SweepState.record_done``: one flushed NDJSON line."""
        state_dir = tempfile.mkdtemp(prefix="journal-probe-")
        try:
            state = SweepState(state_dir, "f" * 64, items=1, distinct=1)
            try:
                key = ResultCache.key_for(Scenario.from_dict(self.units[0]))
                return per_call_s(lambda: state.record_done(key), budget_s) * 1e6
            finally:
                state.close()
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# the daemon, closed loop, one client
# ----------------------------------------------------------------------
class Daemon:
    """A real ``repro serve --workers 1`` subprocess on a private state dir."""

    def __init__(self) -> None:
        self.state_dir = tempfile.mkdtemp(prefix="serve-")
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServeClient] = None
        try:
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                self.port = probe.getsockname()[1]
            self.log = open(os.path.join(self.state_dir, "daemon.log"), "w")
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--workers", "1",
                 "--state-dir", self.state_dir, "--port", str(self.port)],
                stdout=self.log, stderr=subprocess.STDOUT, env=env.child_env(),
            )
            deadline = time.monotonic() + 30.0
            while self.client is None:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
                try:
                    self.client = ServeClient(port=self.port, timeout=30.0)
                except OSError:
                    if time.monotonic() > deadline:
                        raise RuntimeError("repro serve did not come up in 30 s") from None
                    time.sleep(0.02)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Shut down cleanly; terminate, then kill, if it does not."""
        try:
            if self.client is not None:
                try:
                    self.client.shutdown()
                except (OSError, ConnectionError):
                    pass
                self.client.close()
            if self.proc is not None:
                for stop in (None, self.proc.terminate, self.proc.kill):
                    if stop is not None:
                        stop()
                    try:
                        self.proc.wait(timeout=10.0)
                        break
                    except subprocess.TimeoutExpired:
                        continue
        finally:
            if getattr(self, "log", None) is not None:
                self.log.close()
            shutil.rmtree(self.state_dir, ignore_errors=True)


class ServeClosedLoop(Workload):
    name = "serve_closed_loop"
    work_unit = "never-seen jobs answered (submit -> done)"
    #: Most of a miss is the dispatcher's timer wait: host speed does
    #: not set its duration, and work between ops would shift the tick
    #: phase, so no reference loop runs between operations.
    ref = None

    def setup(self) -> None:
        self.daemon = Daemon()
        self.client = self.daemon.client
        self._next_seed = self.seed
        self._before: Dict[str, Any] = {}
        self._rtts: List[float] = []
        self._acks: List[float] = []
        #: (unit, record) of finished misses: what the hit phase replays.
        self._answered: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []

    def submit_and_wait(self, unit: Dict[str, Any]) -> Tuple[Dict, Dict, float, int]:
        """Submit, then poll ``result`` every 1 ms: the number is the
        service's latency, not the client's default 50 ms poll."""
        started = time.perf_counter()
        ack = self.client.submit(unit)
        ack_s = time.perf_counter() - started
        polls = 0
        while True:
            frame = self.client.result(ack["id"])
            polls += 1
            if frame["state"] in TERMINAL_STATES:
                return ack, frame, ack_s, polls
            if time.perf_counter() - started > 60.0:
                raise TimeoutError(f"job {ack['id']} still {frame['state']} after 60 s")
            time.sleep(0.001)

    def op(self, spans: Optional[OpSpans] = None) -> Op:
        """One miss: a scenario this daemon has never seen."""
        self._next_seed += 1
        unit = tiny_unit(self._next_seed)
        start = time.perf_counter()
        try:
            ack, frame, ack_s, polls = self.submit_and_wait(unit)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            return failed_op(start, traceback.format_exc())
        wall = time.perf_counter() - start
        record = frame.get("record") or {}
        ok = (frame["state"] == DONE and not ack["cached"]
              and bool(record.get("converged")))
        if ok:
            self._answered.append((unit, record))
        self._rtts.append(wall * 1e3)
        self._acks.append(ack_s * 1e3)
        return Op(work=1.0, wall=wall, ok=ok, start=start,
                  samples={"serve.rtt_miss_ms": [wall * 1e3],
                           "serve.submit_ack_ms": [ack_s * 1e3],
                           "serve.polls_per_job": [float(polls)]},
                  error="" if ok else f"state={frame['state']} cached={ack['cached']}")

    def begin(self) -> None:
        self._before = self.client.metrics()
        self._rtts.clear()
        self._acks.clear()

    def _histogram_mean_ms(self, after: Dict[str, Any], name: str) -> float:
        now = after["histograms"].get(name, {"sum": 0.0, "count": 0})
        was = self._before["histograms"].get(name, {"sum": 0.0, "count": 0})
        count = now["count"] - was["count"]
        return (now["sum"] - was["sum"]) / count * 1e3 if count else 0.0

    def end(self) -> Optional[Op]:
        """(F) the scheduler's own accounting of the misses, then the hot
        side of the same scheduler: every answered scenario submitted
        again (cache read, born-terminal job).

        Hits are reported per layer only: a hit is two socket round
        trips between two processes, and on this host its rate moved
        40 % between identical runs with the hypervisor's wake-up
        latency -- too unsteady to gate.
        """
        after = self.client.metrics()
        counters, was = after["counters"], self._before["counters"]
        facts = {
            "serve.queue_wait_ms_mean": self._histogram_mean_ms(after, "queue_latency_s"),
            "serve.exec_ms_mean": self._histogram_mean_ms(after, "run_latency_s"),
            "serve.retries": counters["jobs.retries"] - was["jobs.retries"],
            "serve.failed": counters["jobs.failed"] - was["jobs.failed"],
        }
        if self._rtts:
            # How long a finished result waits to be seen: what is left
            # of a round trip after ack, queue wait and execution.
            facts["serve.collect_gap_ms"] = (
                statistics.median(self._rtts) - statistics.median(self._acks)
                - facts["serve.queue_wait_ms_mean"] - facts["serve.exec_ms_mean"])
        hits = 4 if self.quick else 150
        rtts: List[float] = []
        wrong = 0
        start = time.perf_counter()
        try:
            for i in range(hits if self._answered else 0):
                unit, expected = self._answered[i % len(self._answered)]
                sent = time.perf_counter()
                ack = self.client.submit(unit)
                frame = self.client.result(ack["id"])
                rtts.append((time.perf_counter() - sent) * 1e3)
                wrong += not (ack["cached"] and frame["state"] == DONE
                              and json_equal(frame.get("record"), expected))
        except Exception:  # noqa: BLE001 - a raising phase is a failed op
            return failed_op(start, traceback.format_exc())
        wall = time.perf_counter() - start
        final = self.client.metrics()["counters"]
        submitted = final["jobs.submitted"] - counters["jobs.submitted"]
        cached = final["jobs.cache_hits"] - counters["jobs.cache_hits"]
        facts["serve.cache_hit_rate"] = cached / submitted if submitted else 0.0
        return Op(work=float(len(rtts)), wall=wall, ok=wrong == 0, start=start,
                  facts=facts, samples={"serve.rtt_hit_ms": rtts},
                  error="" if wrong == 0 else f"{wrong} of {len(rtts)} hits wrong")

    def layers(self, budget_s: float) -> Dict[str, float]:
        unit = Scenario.from_dict(tiny_unit(self.seed))
        backend = SimulatedBackend()
        result = backend.run(unit)
        error = unit.build_problem().solution_error(result.solution())
        if not (result.converged and error <= TINY_ACCURACY):
            raise RuntimeError(f"tiny unit misses its stated accuracy: {error:.3g}")
        as_dict = unit.to_dict()
        out = cache_probes(result.to_record(), ResultCache.key_for(unit), budget_s / 3)
        out["api.from_dict_us"] = per_call_s(
            lambda: Scenario.from_dict(as_dict), budget_s / 6) * 1e6
        # The floor under a miss: the same scenario through a bare run.
        out["serve.direct_run_ms_p50"] = per_call_s(
            lambda: backend.run(unit).to_record(), budget_s / 3) * 1e3
        return out

    def teardown(self) -> None:
        self.daemon.stop()


WORKLOADS = {
    cls.name: cls
    for cls in (
        SimAsyncSparse,
        SimSyncSparse,
        SimLockstepChem,
        ThreadsComputeSparse,
        MegaAsyncGrid,
        SweepDurableTiny,
        ServeClosedLoop,
    )
}
