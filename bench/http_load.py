"""``graphex serve`` as a child process, and an open-loop HTTP load generator.

Load is an open loop: requests fall due on a schedule fixed before the
step starts, whatever the server does.  Up to ``connections`` keep-alive
connections (one thread each) take due requests in schedule order, so a
request that finds every connection busy waits, and its latency counts
from its due time.  A step falls behind, and ends early, when the oldest
request not yet sent is more than ``MAX_LAG_S`` past due.  It keeps up
when it sent everything and answers came back at no less than
``KEPT_UP_SHARE`` of the offered rate; otherwise a backlog grew.
"""

from __future__ import annotations

import http.client
import os
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from time import perf_counter_ns

MAX_LAG_S = 0.25
KEPT_UP_SHARE = 0.9
_HEADERS = {"Content-Type": "application/json"}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/recommend", body=body, headers=_HEADERS)
    resp = conn.getresponse()
    return resp.status, resp.read()


class ServerProcess:
    """``python -m graphex.cli serve`` on a free local port."""

    def __init__(self, repo: str, model_path: str, log_path: str) -> None:
        self.port = _free_port()
        self.log_path = log_path
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "graphex.cli", "serve", "--model", model_path,
                 "--port", str(self.port)],
                cwd=repo, env=env, stdout=log, stderr=subprocess.STDOUT,
            )

    def wait_first_answer(self, body: bytes, timeout_s: float = 120.0) -> tuple[int, bytes]:
        """Poll until the server answers ``body``; returns (status, body)."""
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                with open(self.log_path, encoding="utf-8", errors="replace") as log:
                    raise RuntimeError(f"graphex serve exited early: {log.read()[-2000:]}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"graphex serve did not answer within {timeout_s} s")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            try:
                return post(conn, body)
            except ConnectionRefusedError:
                time.sleep(0.005)
            finally:
                conn.close()

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the server so far (VmHWM), in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class Sent:
    """One request as the generator saw it (perf_counter ns)."""

    request: int  # index into the step's request list
    due: int
    ready: int  # when a connection was free and the request was due
    sent: int
    done: int
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) / 1e6

    @property
    def late_ms(self) -> float:
        return (self.sent - self.ready) / 1e6


@dataclass
class StepResult:
    rate: float
    scheduled: int
    sent: list[Sent]
    fell_behind: bool

    @property
    def span_s(self) -> float:
        """From the first request's due time to the last answer."""
        return (max(s.done for s in self.sent) - min(s.due for s in self.sent)) / 1e9

    @property
    def kept_up(self) -> bool:
        """Every request sent on time and answers came back at the offered rate."""
        return (not self.fell_behind and len(self.sent) == self.scheduled
                and achieved_rps([self]) >= KEPT_UP_SHARE * self.rate)


def achieved_rps(steps: list[StepResult]) -> float:
    """Answers per second over the steps' spans."""
    return sum(len(step.sent) for step in steps) / sum(step.span_s for step in steps)


def schedule(rng: random.Random, rate: float, seconds: float) -> list[int]:
    """Poisson arrivals conditioned on ``round(rate * seconds)`` of them.

    Given their count, Poisson arrival times are independent and uniform
    over the window, so the offered rate is exact while the gaps stay
    those of independent page views.  Offsets are ns from the step start.
    """
    count = max(1, round(rate * seconds))
    return sorted(int(rng.random() * seconds * 1e9) for _ in range(count))


def run_step(port: int, rate: float, bodies: list[bytes], offsets: list[int],
             connections: int) -> StepResult:
    """Send ``bodies[i]`` at ``offsets[i]`` over ``connections`` keep-alive connections."""
    max_lag = int(MAX_LAG_S * 1e9)
    lock = threading.Lock()
    cursor = [0]
    behind = threading.Event()
    records: list[Sent | None] = [None] * len(bodies)
    start = perf_counter_ns() + 20_000_000

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while not behind.is_set():
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(bodies):
                    return
                due = start + offsets[index]
                picked = perf_counter_ns()
                if picked - due > max_lag:
                    behind.set()
                    return
                if due > picked:
                    time.sleep((due - picked) / 1e9)
                sent = perf_counter_ns()
                try:
                    status, body = post(conn, bodies[index])
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                    status, body = 0, repr(exc).encode()
                records[index] = Sent(index, due, max(due, picked), sent,
                                      perf_counter_ns(), status, body)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sent = [record for record in records if record is not None]
    return StepResult(rate, len(bodies), sent, behind.is_set())

