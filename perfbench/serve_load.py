"""Drive ``python -m repro serve`` from outside: spawn, load, read back.

The load comes from this one process: the calling thread sends and one
receiver thread reads every connection, so at most two threads and a
fixed number of connections generate it.  Request lines are encoded
before a phase starts (see :mod:`inputs`); the receive path only splits
lines and reads the echoed id, so no decoding or oracle work competes
with in-flight requests.  Responses are decoded and checked after the
phase.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from inputs import RequestSet

RECV_CHUNK = 1 << 20
LATE_GRACE_S = 15.0


class ServerProcess:
    """One server subprocess at its defaults on an ephemeral port."""

    def __init__(self, root: str, env: dict[str, str]) -> None:
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        self.host, self.port = "", 0

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Seconds from spawn until the first ping is answered."""
        deadline = self.spawned_at + timeout_s
        line = self.proc.stdout.readline().decode(errors="replace")
        if not line.startswith("serving on "):
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, port = line.split()[-1].rsplit(":", 1)
        self.port = int(port)
        while True:
            try:
                if self.call({"op": "ping"}).get("result") == "pong":
                    break
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)
        return time.perf_counter() - self.spawned_at

    def call(self, request: dict) -> dict:
        """One control request (ping, metrics) on a fresh connection."""
        return self.call_line(json.dumps({"id": 0, **request}).encode() + b"\n")

    def call_line(self, line: bytes) -> dict:
        """One request line on a fresh connection; the decoded reply."""
        with socket.create_connection((self.host, self.port), timeout=60) as s:
            s.sendall(line)
            buf = bytearray()
            while not buf.endswith(b"\n"):
                chunk = s.recv(RECV_CHUNK)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                buf += chunk
        return json.loads(buf)

    def counters(self) -> dict:
        return self.call({"op": "metrics"})["result"]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class PhaseResult:
    """Per-request timing of one phase; ``index`` maps to the request set."""

    index: list[int] = field(default_factory=list)
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    recv: list[float] = field(default_factory=list)
    lines: list[bytes | None] = field(default_factory=list)
    start: float = 0.0


class _NoClientGC:
    """Keep the client's cyclic GC out of a phase: a collection pauses
    both client threads and would show up as generator lateness."""

    def __enter__(self) -> None:
        gc.collect()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        gc.enable()


class _IO(threading.Thread):
    """Owns the connections: writes queued lines, reads replies.

    Sockets are non-blocking and writes are queued per connection, so a
    large request still being written never holds back requests due on
    the other connection, and the sender thread never blocks on a send.
    Each reply is recorded as ``id -> (receive time, line)``.
    """

    def __init__(self, socks: list[socket.socket], expected: int,
                 on_line=None) -> None:
        super().__init__(daemon=True)
        self.socks = socks
        self.expected = expected
        self.on_line = on_line
        self.got: dict[int, tuple[float, bytes]] = {}
        self.stop_at = float("inf")
        self.error: BaseException | None = None
        self._out: list[collections.deque] = [collections.deque() for _ in socks]
        self._lock = threading.Lock()
        self._wake_r, self._wake_w = socket.socketpair()
        for sock in (*socks, self._wake_r, self._wake_w):
            sock.setblocking(False)

    def send(self, c: int, line: bytes) -> None:
        """Queue ``line`` on connection ``c`` (callable from any thread)."""
        with self._lock:
            self._out[c].append(memoryview(line))
        try:
            self._wake_w.send(b"w")
        except BlockingIOError:
            pass  # a wake-up is already pending

    def close(self) -> None:
        for sock in (*self.socks, self._wake_r, self._wake_w):
            sock.close()

    def run(self) -> None:
        try:
            self._run()
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            self.error = exc

    def _flush(self, c: int) -> bool:
        """Write what the socket takes; True while bytes remain queued."""
        with self._lock:
            queue = self._out[c]
            while queue:
                try:
                    sent = self.socks[c].send(queue[0])
                except BlockingIOError:
                    return True
                if sent < len(queue[0]):
                    queue[0] = queue[0][sent:]
                else:
                    queue.popleft()
            return False

    def _run(self) -> None:
        sel = selectors.DefaultSelector()
        bufs = [bytearray() for _ in self.socks]
        scan = [0] * len(self.socks)
        open_socks = set(range(len(self.socks)))
        sel.register(self._wake_r, selectors.EVENT_READ, -1)
        for c, sock in enumerate(self.socks):
            sel.register(sock, selectors.EVENT_READ, c)
        try:
            while len(self.got) < self.expected and open_socks:
                if time.perf_counter() > self.stop_at:
                    return
                for c in open_socks:
                    mask = selectors.EVENT_READ
                    if self._flush(c):
                        mask |= selectors.EVENT_WRITE
                    sel.modify(self.socks[c], mask, c)
                for key, mask in sel.select(timeout=0.05):
                    c = key.data
                    if c < 0:
                        self._wake_r.recv(4096)
                        continue
                    if not mask & selectors.EVENT_READ:
                        continue
                    chunk = self.socks[c].recv(RECV_CHUNK)
                    if not chunk:
                        sel.unregister(self.socks[c])
                        open_socks.discard(c)
                        continue
                    now = time.perf_counter()
                    buf = bufs[c]
                    buf += chunk
                    while True:
                        nl = buf.find(b"\n", scan[c])
                        if nl < 0:
                            scan[c] = len(buf)
                            break
                        line = bytes(buf[:nl])
                        del buf[:nl + 1]
                        scan[c] = 0
                        rid = int(line[6:line.index(b",")])
                        self.got[rid] = (now, line)
                        if self.on_line is not None:
                            self.on_line(c, rid, now)
        finally:
            sel.close()


def _connect(server: ServerProcess, n: int) -> list[socket.socket]:
    socks = []
    for _ in range(n):
        s = socket.create_connection((server.host, server.port), timeout=60)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        socks.append(s)
    return socks


def _drive(io: _IO, send_all) -> float:
    """Start the I/O thread, run ``send_all`` (which returns the phase
    start), wait for the replies; return the phase start."""
    with _NoClientGC():
        try:
            io.start()
            start = send_all()
            io.stop_at = time.perf_counter() + LATE_GRACE_S
            io.join()
            return start
        finally:
            io.stop_at = 0.0
            io.join(timeout=5)
            io.close()


def open_loop(server: ServerProcess, req: RequestSet, connections: int) -> PhaseResult:
    """Queue request ``i`` at ``offsets_s[i]`` whatever the replies do."""
    n = len(req.bodies)
    io = _IO(_connect(server, connections), n)
    res = PhaseResult(index=list(range(n)))

    def send_all() -> float:
        start = time.perf_counter() + 0.05
        res.due = [start + float(o) for o in req.offsets_s]
        for i in range(n):
            wait = res.due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            res.sent.append(time.perf_counter())
            io.send(i % connections, req.line(i, i))
        return start

    res.start = _drive(io, send_all)
    if io.error is not None:
        raise io.error
    for i in range(n):
        t, line = io.got.get(i, (float("inf"), None))
        res.recv.append(t)
        res.lines.append(line)
    return res


def closed_loop(server: ServerProcess, req: RequestSet, connections: int,
                depth: int, duration_s: float) -> PhaseResult:
    """``connections`` x ``depth`` requests in flight for ``duration_s``.

    Each reply queues the next request on the same connection until the
    phase ends; ids stay unique and request ``id`` carries pool entry
    ``id % len(pool)``.
    """
    pool = len(req.bodies)
    lock = threading.Lock()
    sent: dict[int, float] = {}
    state = {"next": 0, "end": float("inf")}

    def send(c: int) -> None:
        with lock:
            rid = state["next"]
            state["next"] += 1
        sent[rid] = time.perf_counter()
        io.send(c, req.line(rid, rid % pool))

    def on_line(c: int, rid: int, now: float) -> None:
        if now < state["end"]:
            send(c)
        else:
            io.expected = state["next"]

    def send_all() -> float:
        start = time.perf_counter()
        state["end"] = start + duration_s
        for c in range(connections):
            for _ in range(depth):
                send(c)
        time.sleep(duration_s)
        return start

    io = _IO(_connect(server, connections), 1 << 62, on_line)
    res = PhaseResult()
    res.start = _drive(io, send_all)
    if io.error is not None:
        raise io.error
    for rid in range(state["next"]):
        t, line = io.got.get(rid, (float("inf"), None))
        res.index.append(rid % pool)
        res.sent.append(sent[rid])
        res.due.append(sent[rid])
        res.recv.append(t)
        res.lines.append(line)
    return res


def check(res: PhaseResult, req: RequestSet) -> tuple[np.ndarray, list[dict]]:
    """Decode every reply and compare it with the stable oracle.

    Returns per-request correctness and the decoded replies.  A missing,
    refused or wrong reply is incorrect.
    """
    ok = np.zeros(len(res.lines), dtype=bool)
    decoded: list[dict] = []
    for k, (i, line) in enumerate(zip(res.index, res.lines)):
        if line is None:
            decoded.append({})
            continue
        reply = json.loads(line)
        decoded.append(reply)
        if reply.get("ok"):
            got = np.asarray(reply["result"], dtype=np.int64).tobytes()
            ok[k] = got == req.expected[i]
    return ok, decoded


def latencies_ms(res: PhaseResult, ok: np.ndarray) -> np.ndarray:
    """Reply time from when each request was due; failures are +inf."""
    lat = (np.asarray(res.recv) - np.asarray(res.due)) * 1e3
    lat[~ok] = np.inf
    return lat


def counter_delta(before: dict, after: dict, name: str) -> float:
    """A server counter's increment between two ``metrics`` snapshots.

    Only counter deltas are used: the server's windowed histogram
    quantiles describe its lifetime, not the window.
    """
    return float(after.get(name, 0)) - float(before.get(name, 0))


def env_for_children(base: dict[str, str], root: str) -> dict[str, str]:
    env = dict(base)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
