"""Discrete-event simulation substrate for grid-computing experiments.

This package is the synthetic stand-in for the physical testbeds of the
paper (heterogeneous machines on 10/100 Mb Ethernet and ADSL links).  It
provides:

* :mod:`repro.simgrid.engine` -- a deterministic event-queue engine with
  virtual time,
* :mod:`repro.simgrid.host` / :mod:`repro.simgrid.link` /
  :mod:`repro.simgrid.network` -- resource models (CPU speed, latency,
  bandwidth, FIFO link contention, multi-hop routes),
* :mod:`repro.simgrid.process` -- the coroutine interpreter binding
  processes to hosts; it runs the effect vocabulary of
  :mod:`repro.core.effects`,
* :mod:`repro.simgrid.comm` -- the message transport pipeline
  (sending-thread pools, link transfers, receive-path handling modelled
  after the environments of the paper),
* :mod:`repro.simgrid.faults` -- a fault plan compiled onto the engine,
* :mod:`repro.simgrid.world` -- the top-level ``World`` tying
  everything together; it records a :class:`repro.core.trace.Timeline`.

Numerical work performed by the algorithms is *real*; only time and
message transport are simulated.  The package root is empty: name the
submodule you need, so a wall-clock run that only builds a cluster
topology loads ``host``, ``link`` and ``network`` and no more.
"""
