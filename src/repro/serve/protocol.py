"""Wire protocol of the scenario submission service.

One frame per line, each line one JSON object (newline-delimited
JSON): a client writes a request frame, the daemon answers with
exactly one response frame on the same connection, and the connection
stays open for the next request.  The protocol is deliberately small
enough to speak with ``nc``::

    {"verb": "submit", "scenario": {"problem": "sparse_linear"}, "priority": 5}
    {"ok": true, "id": "j000001", "state": "queued", "key": "9f0c...-s0"}

Request verbs
-------------

``submit``
    ``scenario`` (a :meth:`repro.api.Scenario.to_dict` object, the
    same form ``repro run`` consumes) plus an optional integer
    ``priority`` (higher runs first, default 0).  The ack carries the
    job ``id``, its ``state``, the cache ``key`` and two flags:
    ``cached`` (the result was already in the on-disk cache -- the
    job is born terminal) and ``coalesced`` (an identical scenario is
    already queued or running -- the ack names *that* job instead of
    creating a new one).
``status``
    ``id`` -> state, priority, attempts, coalesced count, error.
``result``
    ``id`` -> the state, plus the full run record once ``done``
    (or the error string once ``failed``/``cancelled``).

    Both ``status`` and ``result`` take an optional ``wait_s`` (a
    non-negative number): the daemon holds the request until the job
    is terminal or ``wait_s`` seconds have passed -- whichever comes
    first, and never longer than :data:`MAX_WAIT_S` -- then answers
    with whatever the state is.  It is a long poll, not a timeout: a
    non-terminal answer is not an error.  Without the field the
    answer is immediate; a daemon that predates the field ignores it
    and answers immediately, so clients keep their own pacing as the
    fallback (:meth:`repro.serve.client.ServeClient.wait` does).
``cancel``
    ``id`` -> cancel a queued job, or kill the worker of a running
    one.  Terminal jobs are left untouched (the response reports
    their state).
``stats``
    Queue/cache/worker counters -- the service's operational surface.
``metrics``
    The scheduler's :class:`repro.obs.MetricsRegistry` snapshot --
    queue-latency and run-latency histograms, queue depth, cache hit
    rate, worker utilization -- plus the lifecycle counters.  ``stats``
    folds the same snapshot in under ``"metrics"``; this verb returns
    just the snapshot for scrapers.
``ping``
    Liveness probe (used to wait for a starting daemon).
``shutdown``
    Ack, then stop the daemon cleanly.  Unfinished jobs stay in the
    journal and are requeued on the next start.

Every response carries ``"ok": true`` or ``"ok": false`` with an
``error`` message and a machine-readable ``code`` (``bad-frame``,
``unknown-verb``, ``bad-submit``, ``bad-scenario``, ``unknown-job``).
A malformed line never kills the connection: the daemon answers with
an error frame and keeps reading.

Job states: ``queued -> running -> done`` with the side exits
``failed`` (error or exhausted timeout retries), ``cancelled`` and
the born-terminal cache-hit ``done``.  See ``docs/serving.md``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Union

# ---------------------------------------------------------------------------
# job states
# ---------------------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States in which a job will never change again.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: All request verbs the daemon understands.
VERBS = frozenset(
    {"submit", "status", "result", "cancel", "stats", "metrics", "ping",
     "shutdown"}
)

#: Verbs that address one existing job and therefore require an ``id``.
_JOB_VERBS = frozenset({"status", "result", "cancel"})

#: Verbs that may long-poll (optional ``wait_s``).
_WAIT_VERBS = frozenset({"status", "result"})

#: Longest the daemon holds one ``wait_s`` request, whatever was asked:
#: bounds how long a handler thread can be parked for a client that
#: went away.  (A client must itself ask for less than its socket
#: timeout; ``ServeClient.wait`` asks for half of it.)
MAX_WAIT_S = 30.0


class ProtocolError(ValueError):
    """A request frame the daemon refuses, with a machine-readable code."""

    def __init__(self, message: str, code: str = "bad-frame") -> None:
        super().__init__(message)
        self.code = code


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """One response/request as a wire line (compact JSON + newline)."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(line: Union[str, bytes]) -> Dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` (code ``bad-frame``) for anything
    that is not a single JSON object: invalid JSON, a bare value, an
    array, invalid UTF-8.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def parse_request(line: Union[str, bytes, Mapping[str, Any]]) -> Dict[str, Any]:
    """Decode and validate one request frame.

    Returns the frame dict with ``verb`` guaranteed present and known,
    ``id`` guaranteed for the job-addressing verbs, ``wait_s`` (when
    present on ``status``/``result``) a non-negative number, and
    ``submit`` guaranteed to carry a scenario object plus an integer
    priority.
    Scenario *content* is not validated here -- that is the
    scheduler's job (it answers ``bad-scenario`` with the registry's
    own error message).
    """
    frame = dict(line) if isinstance(line, Mapping) else decode_frame(line)
    verb = frame.get("verb")
    if not isinstance(verb, str):
        raise ProtocolError("frame carries no 'verb' string")
    if verb not in VERBS:
        raise ProtocolError(
            f"unknown verb {verb!r}; known: {sorted(VERBS)}", code="unknown-verb"
        )
    if verb in _JOB_VERBS and not isinstance(frame.get("id"), str):
        raise ProtocolError(f"{verb!r} requires a job 'id' string")
    if verb in _WAIT_VERBS and "wait_s" in frame:
        wait_s = frame["wait_s"]
        # ``not >= 0`` rather than ``< 0``: NaN fails both comparisons.
        if (isinstance(wait_s, bool) or not isinstance(wait_s, (int, float))
                or not wait_s >= 0):
            raise ProtocolError(
                f"'wait_s' must be a non-negative number, got {wait_s!r}"
            )
    if verb == "submit":
        scenario = frame.get("scenario")
        if not isinstance(scenario, Mapping):
            raise ProtocolError(
                "'submit' requires a 'scenario' object "
                "(Scenario.to_dict form)", code="bad-submit",
            )
        priority = frame.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ProtocolError(
                f"'priority' must be an integer, got {priority!r}",
                code="bad-submit",
            )
        frame["priority"] = priority
    return frame


def ok_frame(**fields: Any) -> Dict[str, Any]:
    """A success response frame."""
    return {"ok": True, **fields}


def error_frame(message: str, code: str = "bad-frame") -> Dict[str, Any]:
    """A refusal response frame (the connection stays usable)."""
    return {"ok": False, "error": message, "code": code}


__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "VERBS",
    "MAX_WAIT_S",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "parse_request",
    "ok_frame",
    "error_frame",
]
