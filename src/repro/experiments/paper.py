"""Tables 2-3 and Figures 1-3 of the paper, one :class:`Spec` each, at
the one size named in the comment above it (see :mod:`repro.experiments`)."""

import numpy as np

from repro.api import RunResult, Scenario, SimulatedBackend, scenario_matrix
from repro.core.aiac import AIACOptions
from repro.experiments.spec import ASYNC, ENVIRONMENTS, SYNC, Claim, Spec, speed_ratio, version
from repro.obs import format_utilisation, utilisation_table


def _table_row(record, error):
    return (record["scenario"]["name"], version(record)), {
        "time": record["makespan"],
        "iterations": record["max_iterations"],
        "converged": record["converged"],
        "error": float(error),
    }


def _paper_table(case, times, ratios):
    return {
        (case, name): {"paper time (s)": time, "paper ratio": ratio}
        for name, time, ratio in zip((SYNC, *ASYNC), times, ratios)
    }


def _time(rows, case, name):
    return rows[(case, name)]["time"]


_SOLVED = (
    Claim("every run converges", lambda rows: all(r["converged"] for r in rows.values())),
    Claim("every run's solution error is below 1e-3",
          lambda rows: all(r["error"] < 1e-3 for r in rows.values())),
)


# Table 2, the sparse linear problem on the Ethernet-WAN cluster: the
# paper's 2 000 000 unknowns become 1 200 on 6 ranks over three sites.
# OmniORB's per-peer sending threads lead on this all-to-all exchange.
def _sparse_row(record):
    result = RunResult.from_record(record)
    return _table_row(record, result.scenario.build_problem().solution_error(result.solution()))


TABLE2 = Spec(
    title="Table 2 -- sparse linear problem, Ethernet-WAN cluster (simulated s)",
    grid=tuple(scenario_matrix(
        Scenario(
            problem="sparse_linear",
            problem_params=dict(n=1200, eps=1.0e-6, dominance=0.90, seed=12004),
            cluster="ethernet_wan",
            cluster_params=dict(n_sites=3, speed_scale=0.003, wan_latency=1.5e-2),
            n_ranks=6,
            options=AIACOptions(eps=1.0e-6, stability_count=10, max_iterations=20_000),
            name="Ethernet",
        ),
        environment=ENVIRONMENTS,
    )),
    backend=SimulatedBackend(),
    measure=_sparse_row,
    paper=_paper_table("Ethernet", (914.0, 551.0, 672.0, 507.0), (1.0, 1.66, 1.36, 1.80)),
    claims=_SOLVED + (
        Claim("every asynchronous version beats sync MPI",
              lambda rows: all(_time(rows, "Ethernet", v) < _time(rows, "Ethernet", SYNC)
                               for v in ASYNC)),
        Claim("async OmniOrb 4 leads the asynchronous versions (within 0.1 %)",
              lambda rows: _time(rows, "Ethernet", "async OmniOrb 4")
              <= min(_time(rows, "Ethernet", v) for v in ASYNC) * 1.001),
    ),
)


# Table 3, the chemical problem on two clusters.  The paper integrated a
# 600 x 600 grid over 12 steps; this is 24 x 36 for 540 s (3 steps) on 6
# ranks, keeping the paper's strong vertical diffusion coupling
# (dt*Kv/dz^2 >> 0.1 needs a fine dz) so the inner multisplitting iterates
# long enough per step for synchronisation to matter.  Known deviation:
# the paper's asynchronous ratios are *better* behind ADSL than on
# Ethernet; ours are worse (3.41-3.54 on Ethernet, 2.87-2.96 behind
# ADSL), by 0.58-0.59 at 3, 6 and 12 steps alike, so unamortised per-step
# costs do not explain it.  The cause is open (ROADMAP item 13); no claim
# asserts the ADSL trend either way.
CLUSTERS = {"Ethernet": ("ethernet_wan", 3), "Ethernet+ADSL": ("ethernet_adsl", 4)}


def _chemical_row(record):
    result = RunResult.from_record(record)
    reference, _ = result.scenario.build_problem().solve_sequential()
    nx = reference.shape[-1]
    solution = np.concatenate(
        [result.reports[r].solution.reshape(2, -1, nx) for r in sorted(result.reports)],
        axis=1,
    )
    return _table_row(record, np.max(np.abs(solution - reference) / (np.abs(reference) + 1.0)))


TABLE3 = Spec(
    title="Table 3 -- non-linear problem, Ethernet and Ethernet+ADSL clusters (simulated s)",
    grid=tuple(
        scenario
        for label, (cluster, n_sites) in CLUSTERS.items()
        for scenario in scenario_matrix(
            Scenario(
                problem="chemical",
                problem_params=dict(nx=24, nz=36, t_end=540.0),
                cluster=cluster,
                cluster_params=dict(n_sites=n_sites, speed_scale=1.0, wan_latency=1.8e-2),
                n_ranks=6,
                options=AIACOptions(eps=1.0e-6, stability_count=2, max_iterations=6_000),
                name=label,
            ),
            environment=ENVIRONMENTS,
        )
    ),
    backend=SimulatedBackend(),
    measure=_chemical_row,
    paper={
        **_paper_table("Ethernet", (2510.0, 563.0, 565.0, 595.0), (1.0, 4.46, 4.44, 4.22)),
        **_paper_table("Ethernet+ADSL", (3042.0, 612.0, 605.0, 664.0), (1.0, 4.97, 5.03, 4.58)),
    },
    claims=_SOLVED + (
        Claim("every asynchronous speed ratio exceeds 1.5 on both clusters",
              lambda rows: all(speed_ratio(rows, (c, v)) > 1.5 for c in CLUSTERS for v in ASYNC)),
        Claim("on Ethernet, async OmniOrb 4 is no faster than the faster of "
              "async PM2 and async MPI/Mad",
              lambda rows: _time(rows, "Ethernet", "async OmniOrb 4")
              >= min(_time(rows, "Ethernet", v) for v in ("async PM2", "async MPI/Mad"))),
        Claim("every version is slower on Ethernet+ADSL than on Ethernet",
              lambda rows: all(_time(rows, "Ethernet+ADSL", v) > _time(rows, "Ethernet", v)
                               for v in (SYNC, *ASYNC))),
    ),
)


# Figure 3, times against processor count on the local heterogeneous
# cluster.  The paper ran a 1000 x 1000 chemical problem on 10 to 40
# machines; this is 20 x 40 for 360 s (2 steps) on 4 to 40.  The curves
# do *not* tighten at the largest count: the max/min spread is 1.05,
# 1.20, 1.38, 1.63 and 1.53 at 4/8/12/20/40, so only the compute-bound
# start is claimed.
COUNTS = (4, 8, 12, 20, 40)
_PM2_MAD = ("async PM2", "async MPI/Mad")


def _times(rows, name):
    return [_time(rows, n, name) for n in COUNTS]


def _spread(rows, n):
    times = [_time(rows, n, name) for name in (SYNC, *ASYNC)]
    return max(times) / min(times)


FIGURE3 = Spec(
    title="Figure 3 -- times (simulated s) vs processors, local heterogeneous cluster",
    grid=tuple(scenario_matrix(
        Scenario(
            problem="chemical",
            problem_params=dict(nx=20, nz=40, t_end=360.0),
            cluster="local_cluster",
            cluster_params=dict(speed_scale=0.1),
            options=AIACOptions(eps=1.0e-6, stability_count=2, max_iterations=2_000),
            name="figure3",
        ),
        environment=ENVIRONMENTS,
        n_ranks=COUNTS,
    )),
    backend=SimulatedBackend(),
    measure=lambda record: ((record["scenario"]["n_ranks"], version(record)),
                            {"time": record["makespan"]}),
    paper={},
    claims=(
        Claim("async PM2 and async MPI/Mad never slow down by more than 5 % "
              "from one count to the next, up to 20 processors",
              lambda rows: all(b <= a * 1.05 for v in _PM2_MAD
                               for a, b in zip(_times(rows, v)[:-1], _times(rows, v)[1:-1]))),
        Claim("async PM2 and async MPI/Mad at 40 processors take under half "
              "their 4-processor time",
              lambda rows: all(_times(rows, v)[-1] < _times(rows, v)[0] / 2 for v in _PM2_MAD)),
        Claim("sync MPI is slower than async PM2 and async MPI/Mad from 12 processors on",
              lambda rows: all(_time(rows, n, SYNC) > _time(rows, n, v)
                               for n in COUNTS if n >= 12 for v in _PM2_MAD)),
        Claim("async OmniOrb 4 is no faster than the faster of async PM2 and "
              "async MPI/Mad at the three largest counts",
              lambda rows: all(_time(rows, n, "async OmniOrb 4")
                               >= min(_time(rows, n, v) for v in _PM2_MAD)
                               for n in COUNTS[-3:])),
        Claim("at 4 processors the four versions are within 20 % of each other "
              "(max/min < 1.2)", lambda rows: _spread(rows, 4) < 1.2),
    ),
)


# Figures 1-2, the execution flows of SISC and AIAC, read from each run's
# recorded timeline: two machines of different speeds on two distant
# sites (the heterogeneity makes Figure 1's idle gaps visible).
SISC, AIAC = ("Figure 1 (SISC)", SYNC), ("Figure 2 (AIAC)", "async PM2")
FIGURE = {"sync_mpi": SISC[0], "pm2": AIAC[0]}


def _flow_row(record):
    trace = RunResult.from_record(record).timeline
    util = utilisation_table(trace)
    return (FIGURE[record["scenario"]["environment"]], version(record)), {
        "makespan": record["makespan"],
        "utilisation": tuple(row["utilisation"] for row in util),
        "idle gaps": tuple(len(trace.idle_gaps(r, min_gap=1e-6)) for r in trace.ranks()),
        "flow": trace.ascii_gantt(width=72) + "\n" + format_utilisation(util),
        "trace": trace,
    }


FIGURES12 = Spec(
    title="Figures 1-2 -- execution flows of SISC (sync MPI) and AIAC (PM2)",
    grid=tuple(scenario_matrix(
        Scenario(
            problem="sparse_linear",
            problem_params=dict(n=600, eps=1.0e-6),
            cluster="ethernet_wan",
            cluster_params=dict(n_sites=2, machine_mix=["duron_800", "p4_2400"],
                                speed_scale=0.05),
            n_ranks=2,
            options=AIACOptions(eps=1.0e-6, stability_count=3, max_iterations=5_000),
            name="figures12",
        ),
        environment=list(FIGURE),
    )),
    backend=SimulatedBackend(timeline=True),
    measure=_flow_row,
    paper={},
    claims=(
        Claim("SISC: every processor idles between iterations (more than 3 gaps each)",
              lambda rows: all(g > 3 for g in rows[SISC]["idle gaps"])),
        Claim("AIAC: no processor idles between iterations",
              lambda rows: all(g == 0 for g in rows[AIAC]["idle gaps"])),
        Claim("AIAC: every processor computes more than 85 % of the time",
              lambda rows: min(rows[AIAC]["utilisation"]) > 0.85),
        Claim("SISC: no processor computes 60 % of the time or more",
              lambda rows: max(rows[SISC]["utilisation"]) < 0.60),
    ),
)

__all__ = ["COUNTS", "FIGURE3", "FIGURES12", "TABLE2", "TABLE3"]
