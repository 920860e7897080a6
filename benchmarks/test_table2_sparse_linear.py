"""Benchmark regenerating Table 2 (sparse linear problem).

Paper: sync MPI 914 s (1.00) / async PM2 551 s (1.66) /
async MPI/Mad 672 s (1.36) / async OmniORB 507 s (1.80).
The shape claims (every asynchronous environment beats the synchronous
baseline; OmniORB leads the asynchronous pack; all runs converge to
the true solution) are rows of :data:`repro.experiments.paper.TABLE2`.
"""

import hashlib

import pytest

from repro.experiments import TABLE2, format_spec, run_spec

#: SHA-1 over every row's makespan, max iterations, convergence flag and
#: solution error, in the table's row order: any change to a simulated
#: number of Table 2 fails it.
TABLE2_PIN = "156b5bc16e323afed32a8b615cad556f3d3b0555"


def test_table2_benchmark(benchmark):
    outcome = benchmark.pedantic(run_spec, args=(TABLE2,), rounds=1, iterations=1)
    assert not outcome.false_claims, outcome.false_claims
    pinned = [
        (version, float(row["time"]), int(row["iterations"]),
         bool(row["converged"]), float(row["error"]))
        for (_, version), row in outcome.rows.items()
    ]
    assert hashlib.sha1(repr(pinned).encode()).hexdigest() == TABLE2_PIN
    benchmark.extra_info["table2"] = {
        version: round(row["time"], 3) for (_, version), row in outcome.rows.items()
    }
    benchmark.extra_info["claims"] = outcome.verdicts
    print()
    print(format_spec(outcome))
