"""Client for the scenario submission service.

One persistent connection speaking the newline-delimited-JSON
protocol; every method sends one request frame and returns the
response frame's payload.  Refusals (``"ok": false``) raise
:class:`ServeError` with the daemon's machine-readable code, so
callers handle transport errors and protocol refusals separately::

    from repro.api import Scenario
    from repro.serve import ServeClient

    with ServeClient(port=7341) as client:
        ack = client.submit(Scenario(problem="sparse_linear"), priority=5)
        done = client.wait(ack["id"], timeout=60.0)
        record = done["record"]          # RunResult.to_record form

This is the transport the future sharded sweep executor's remote stub
rides: a scenario dict out, a record dict back, everything in between
(queueing, caching, retry) the daemon's business.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional, Union

from repro.api.scenario import Scenario
from repro.serve.protocol import TERMINAL_STATES, decode_frame, encode_frame


class ServeError(RuntimeError):
    """The daemon refused a request (``ok: false``)."""

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


class ServeClient:
    """A connection to one daemon; context manager closes it.

    ``timeout`` bounds every single request/response exchange; the
    long waits belong to :meth:`wait`, which chains long polls that
    each stay inside it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7341,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7341,
        timeout: float = 30.0,
        retry_for: float = 0.0,
        poll: float = 0.1,
    ) -> "ServeClient":
        """Connect, optionally retrying for ``retry_for`` seconds.

        The constructor fails fast on a connection refusal; callers
        that race a daemon's startup (the CLI's ``--placement serve``
        sweeps, test harnesses that just forked ``repro serve``) pass
        a small ``retry_for`` window instead of hand-rolling the loop.
        """
        deadline = time.monotonic() + retry_for
        while True:
            try:
                return cls(host=host, port=port, timeout=timeout)
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _call(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self._sock.sendall(encode_frame(frame))
        line = self._file.readline()
        if not line:
            raise ConnectionError(
                f"daemon at {self.host}:{self.port} closed the connection"
            )
        response = decode_frame(line)
        if not response.get("ok"):
            raise ServeError(
                str(response.get("error", "request refused")),
                str(response.get("code", "error")),
            )
        return response

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def submit(
        self,
        scenario: Union[Scenario, Dict[str, Any]],
        priority: int = 0,
    ) -> Dict[str, Any]:
        """Submit one scenario; returns the ack frame (``id``, ``state``,
        ``key``, ``cached``, ``coalesced``)."""
        payload = (
            scenario.to_dict() if isinstance(scenario, Scenario) else dict(scenario)
        )
        return self._call(
            {"verb": "submit", "scenario": payload, "priority": priority}
        )

    def _job_call(self, verb: str, job_id: str, wait_s: float) -> Dict[str, Any]:
        frame: Dict[str, Any] = {"verb": verb, "id": job_id}
        if wait_s > 0:
            frame["wait_s"] = wait_s
        return self._call(frame)

    def status(self, job_id: str, wait_s: float = 0.0) -> Dict[str, Any]:
        """The job's state; with ``wait_s`` the daemon holds the answer
        until the job is terminal or ``wait_s`` seconds passed (keep it
        under this client's ``timeout``)."""
        return self._job_call("status", job_id, wait_s)

    def result(self, job_id: str, wait_s: float = 0.0) -> Dict[str, Any]:
        """Status plus, once ``done``, the full run ``record``;
        ``wait_s`` as for :meth:`status`."""
        return self._job_call("result", job_id, wait_s)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._call({"verb": "cancel", "id": job_id})

    def stats(self) -> Dict[str, Any]:
        return self._call({"verb": "stats"})

    def metrics(self) -> Dict[str, Any]:
        """The scheduler's metrics snapshot (counters, gauges,
        latency histograms, derived ratios); see ``docs/observability.md``."""
        return self._call({"verb": "metrics"})["metrics"]

    def ping(self) -> bool:
        return bool(self._call({"verb": "ping"}).get("pong"))

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to stop cleanly (unfinished jobs stay journaled)."""
        return self._call({"verb": "shutdown"})

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll: float = 0.05,
    ) -> Dict[str, Any]:
        """Block until the job is terminal; returns its ``result`` frame.

        Each round is one long-polling ``result`` request the daemon
        answers the moment the job settles, so the record arrives
        without a polling delay.  A daemon that predates ``wait_s``
        ignores it and answers at once; the round is then padded to
        ``poll`` seconds, which is the old polling loop.

        Raises :class:`TimeoutError` when the deadline passes first --
        the job keeps running server-side (use :meth:`cancel` to stop
        it).
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            hold = max(0.0, min(deadline - asked, self.timeout / 2))
            frame = self.result(job_id, wait_s=hold)
            if frame["state"] in TERMINAL_STATES:
                return frame
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {frame['state']!r} after {timeout}s"
                )
            time.sleep(max(0.0, min(poll - (now - asked), deadline - now)))


__all__ = ["ServeClient", "ServeError"]
