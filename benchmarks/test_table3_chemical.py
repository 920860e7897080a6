"""Benchmark regenerating Table 3 (non-linear chemical problem).

Paper (Ethernet): sync 2510 s vs async 563-595 s (ratios 4.22-4.46),
OmniORB slowest of the asynchronous trio.
Paper (Ethernet+ADSL): sync 3042 s vs async 605-664 s (4.58-5.03).
The shape claims (async >> sync on both clusters; OmniORB trails PM2
and MPI/Mad on the Ethernet cluster; everything slows down behind
ADSL) are rows of :data:`repro.experiments.paper.TABLE3`.
"""

import hashlib

import pytest

from repro.experiments import TABLE3, format_spec, run_spec

#: SHA-1 over every (cluster, version) row's makespan, max iterations,
#: convergence flag and solution error, in the table's row order.
TABLE3_PIN = "867f9a4b2fcea4ddd29f9450a359b512a35c0488"


def test_table3_benchmark(benchmark):
    outcome = benchmark.pedantic(run_spec, args=(TABLE3,), rounds=1, iterations=1)
    assert not outcome.false_claims, outcome.false_claims
    pinned = [
        (cluster, version, float(row["time"]), int(row["iterations"]),
         bool(row["converged"]), float(row["error"]))
        for (cluster, version), row in outcome.rows.items()
    ]
    assert hashlib.sha1(repr(pinned).encode()).hexdigest() == TABLE3_PIN
    benchmark.extra_info["table3"] = {
        f"{cluster}/{version}": round(row["time"], 3)
        for (cluster, version), row in outcome.rows.items()
    }
    benchmark.extra_info["claims"] = outcome.verdicts
    print()
    print(format_spec(outcome))
