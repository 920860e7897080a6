"""Benchmark regenerating Figure 3 (times vs number of processors).

Paper shape: all curves decrease on the local heterogeneous cluster;
the synchronous curve sits above the asynchronous ones; PM2 and
MPI/Mad nearly coincide; OmniORB is slightly higher than them.  The
claims asserted are the rows of
:data:`repro.experiments.paper.FIGURE3`; at 4 processors
(compute-bound) the four curves start within 20 % of each other.
"""

import hashlib

import pytest

from repro.experiments import FIGURE3, format_spec, run_spec

#: SHA-1 over the 20 (version, processor count, makespan) samples of
#: the four series, environment-major.
FIGURE3_PIN = "8ccde1ab77ef0bb1a966646dd35100b80308d8c0"


def test_figure3_benchmark(benchmark):
    outcome = benchmark.pedantic(run_spec, args=(FIGURE3,), rounds=1, iterations=1)
    assert not outcome.false_claims, outcome.false_claims
    pinned = [(version, n, float(row["time"])) for (n, version), row in outcome.rows.items()]
    assert hashlib.sha1(repr(pinned).encode()).hexdigest() == FIGURE3_PIN
    benchmark.extra_info["figure3"] = {
        f"{version}/{n}": round(row["time"], 4) for (n, version), row in outcome.rows.items()
    }
    benchmark.extra_info["claims"] = outcome.verdicts
    print()
    print(format_spec(outcome))
