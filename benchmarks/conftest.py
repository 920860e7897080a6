"""Benchmark suite configuration.

Each paper benchmark runs one spec of :mod:`repro.experiments` (one
scaled instance; the package docstring explains the scaling), records
its rows and claim verdicts in ``benchmark.extra_info`` and fails on
any false shape claim (who wins, ordering, crossovers), naming it.
Run with::

    pytest benchmarks/ --benchmark-only
"""
