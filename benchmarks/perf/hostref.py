"""Host-speed reference loops (the control, not a layer).

The benchmark host is a shared VM whose speed moves by tens of percent
for seconds to minutes at a time, so a raw wall time cannot tell a slow
phase of the host from a slow program.  Each timed operation is
therefore bracketed by a short reference loop made of code this
benchmark owns -- nothing below imports ``repro`` -- and the
operation's rate is scaled by how much slower than nominal the bracket
ran.  A change to the program cannot move the reference, so a real
speed-up still shows in full; a slow phase of the host slows both and
cancels.

Two loops, because a slow phase does not hit all code alike:

* ``py``  -- heap pushes/pops, dict churn, generator sends and small
  numpy calls: the instruction mix of the simulator, sweep and serve
  layers (interpreter-bound, pointer-chasing);
* ``mem`` -- one gather + ``einsum`` over arrays larger than the
  private caches: the mix of the big-array DIA kernel.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: What each loop takes on this host in its undisturbed state.  Only a
#: scale: it makes a normalised rate read like a real one.  Changing a
#: value rescales every normalised metric by the same factor.
NOMINAL_MS = {"py": 5.0, "mem": 4.0}

_rng = np.random.default_rng(20040426)
_SMALL_A = np.linspace(0.0, 1.0, 300)
_SMALL_B = _SMALL_A[::-1].copy()
_SMALL_M = _rng.random((30, 300))
_BIG = _rng.random((100, 10_000))
_BIG_INDEX = _rng.integers(0, 40_000, (100, 10_000))
_BIG_X = _rng.random(40_001)


def _echo():
    value = 0
    while True:
        value = (yield value) + 1


def _ref_py() -> None:
    heap: list = []
    table: dict = {}
    for i in range(2000):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.001, i, (i, None)))
        table[i] = (i, str(i))
    gen = _echo()
    next(gen)
    while heap:
        _, key, _ = heapq.heappop(heap)
        gen.send(key)
        del table[key]
    for _ in range(120):
        np.einsum("ij,ij->j", _SMALL_M, _SMALL_M)
        diff = _SMALL_A - _SMALL_B
        float(max(np.max(diff), -np.min(diff)))


def _ref_mem() -> None:
    np.einsum("ij,ij->j", _BIG, _BIG_X[_BIG_INDEX])


_LOOPS = {"py": _ref_py, "mem": _ref_mem}
KINDS = tuple(_LOOPS)


#: Back-to-back runs per reading.  One run is as exposed to a
#: millisecond-scale hiccup as it is short; the median of three is not.
READINGS = 3


def measure(kind: str) -> float:
    """One reading of a reference loop: median wall time, milliseconds."""
    loop = _LOOPS[kind]
    times = []
    for _ in range(READINGS):
        started = time.perf_counter()
        loop()
        times.append(time.perf_counter() - started)
    return sorted(times)[READINGS // 2] * 1e3


def slowdown(kind: str, before_ms: float, after_ms: float) -> float:
    """Host slowdown factor over a bracket (1.0 = nominal, 1.3 = 30 % slow)."""
    return 0.5 * (before_ms + after_ms) / NOMINAL_MS[kind]
