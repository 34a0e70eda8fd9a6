"""Open-loop HTTP load: two sender threads, one connection each at a time.

Each request is due at a fixed offset from the start of the run.  A sender
sleeps until the request is due, opens a connection, POSTs it and reads the
``202`` reply; the service closes every connection after one response, so
each sender holds at most one open connection.  Latency is later measured
from the due time, so a stalled sender or server charges the wait to every
request queued behind it, and the generator's own lateness is reported as
lag.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

#: Head start between arming the schedule and the first due time.
LEAD_S = 0.05


def request(host: str, port: int, method: str, path: str, payload=None,
            timeout: float = 60.0) -> "tuple[int, object]":
    """One HTTP exchange on a fresh connection; returns (status, parsed body)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    text = raw.decode("utf-8")
    if response.getheader("Content-Type", "").startswith("application/json"):
        return response.status, json.loads(text)
    return response.status, text


def sleep_until(deadline: float) -> None:
    """Sleep until ``time.perf_counter()`` reaches ``deadline``."""
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def open_loop(host: str, port: int, offsets, requests,
              idle=sleep_until) -> "tuple[float, float, list[dict]]":
    """Send ``requests[i]`` at ``offsets[i]`` seconds.

    Returns ``(t0_wall, t0_mono, records)``: offset 0 on the wall clock and
    on ``perf_counter``.

    A sender waits for each due time by calling ``idle(due)`` (a
    ``perf_counter`` time), which must return by then; the default sleeps.

    The server stamps jobs with the same wall clock as ``t0_wall``.  Each
    record carries the due and send offsets, the submit round trip (connect
    until the reply is read), the HTTP status and the job id.
    """
    records: "list[dict | None]" = [None] * len(offsets)
    next_index = iter(range(len(offsets)))
    lock = threading.Lock()
    t0_mono = time.perf_counter() + LEAD_S
    t0_wall = time.time() + LEAD_S

    def sender() -> None:
        while True:
            with lock:
                index = next(next_index, None)
            if index is None:
                return
            due = t0_mono + offsets[index]
            idle(due)
            sent = time.perf_counter()
            try:
                status, body = request(
                    host, port, "POST", "/v1/solve", dict(requests[index], wait=False)
                )
                job_id = body.get("job_id") if isinstance(body, dict) else None
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, job_id = f"{type(exc).__name__}: {exc}", None
            done = time.perf_counter()
            records[index] = {
                "due": offsets[index],
                "lag": sent - due,
                "rtt": done - sent,
                "status": status,
                "job_id": job_id,
            }

    # Two senders: this thread and one helper (so at most two connections).
    helper = threading.Thread(target=sender, name="perfbench-sender")
    helper.start()
    try:
        sender()
    finally:
        helper.join()
    return t0_wall, t0_mono, records


def wait_for_jobs(host: str, port: int, job_ids, timeout_s: float) -> "dict[str, dict]":
    """Fetch every job once it is finished; unfinished ids after the timeout
    are returned with their last state."""
    deadline = time.monotonic() + timeout_s
    jobs: "dict[str, dict]" = {}
    for job_id in job_ids:
        while True:
            status, body = request(host, port, "GET", f"/v1/jobs/{job_id}")
            if status != 200 or body.get("status") in ("done", "error"):
                break
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        jobs[job_id] = body if status == 200 else {"status": f"http {status}"}
    return jobs
