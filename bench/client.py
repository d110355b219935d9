"""Server processes and the closed-loop HTTP client that drives them.

The client is the benchmark's own, so a change to the program's HTTP code
cannot change how load is generated.  Two keep-alive connections run a
closed loop: each connection sends its next request only after its
previous reply has arrived.  Updates are isolated from reads: an update
waits for every in-flight read to finish and no read starts until it
returns, so each read observes exactly one document version.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench.workloads import Request

__all__ = ["Connection", "LoadClient", "Record", "Server", "answer_digest"]

CONNECTIONS = 2
READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0


class Server:
    """One bench server subprocess; ``setup_s`` is launch-to-ready wall time."""

    def __init__(self, root: Path, recipe: Dict[str, Any]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        started = time.perf_counter()
        # A session of its own, so stop() can reach the pool's workers too.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.server", json.dumps(recipe)],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            line = self._ready_line()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        info = json.loads(line)
        self.port: int = info["port"]
        self.pid: int = info["pid"]

    def _ready_line(self) -> bytes:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT_S):
                raise RuntimeError(f"bench server not ready after {READY_TIMEOUT_S}s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"bench server exited with code {self.proc.wait()}")
        return line

    def rss_mb(self) -> float:
        """Resident memory of the server process plus its pool workers."""
        pids = [self.pid] + _children(self.pid)
        return sum(_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self, timeout: float = 30.0) -> None:
        """Close stdin (the stop signal), then make sure the group is gone."""
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # Workers the server could not stop are not this process's children:
        # wait until the kill has ended every one of them.
        deadline = time.perf_counter() + timeout
        while _running(group=self.proc.pid) and time.perf_counter() < deadline:
            time.sleep(0.05)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _stat_fields():
    """(pid, fields after the command name) of every process in ``/proc``."""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    yield int(entry), handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue


def _children(pid: int) -> List[int]:
    return [child for child, fields in _stat_fields() if int(fields[1]) == pid]


def _running(group: int) -> List[int]:
    """Processes of process group ``group`` that have not exited."""
    return [
        pid for pid, fields in _stat_fields()
        if int(fields[2]) == group and fields[0] not in ("Z", "X")
    ]


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
        self.reader = self.writer = None

    async def request(self, method: str, path: str, payload: Any = None) -> Tuple[int, Any]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        assert self.reader is not None
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode("latin-1") + body
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        data = await self.reader.readexactly(length)
        return status, json.loads(data) if data else None


def answer_digest(node_ids: Sequence[int]) -> Tuple[int, int]:
    """A compact, exact-enough fingerprint of an answer: (count, hash)."""
    return len(node_ids), hash(tuple(node_ids))


@dataclass
class Record:
    """One sent request and what came back."""

    index: int
    kind: str
    latency_s: float
    status: int  # 0 = transport error
    version: int  # the document version a read observed
    answer: Optional[Tuple[int, int]] = None  # read digest (answer_digest)
    error: Optional[str] = None


class LoadClient:
    """The closed-loop load of one server, persistent across slices."""

    def __init__(self, port: int) -> None:
        self.connections = [Connection(port) for _ in range(CONNECTIONS)]
        self.version = 0

    async def close(self) -> None:
        for connection in self.connections:
            await connection.close()

    async def run_slice(
        self,
        requests: Sequence[Request],
        start: int,
        seconds: float,
        min_reads: int,
    ) -> Tuple[List[Record], float, int, bool]:
        """Send requests from ``start`` until ``seconds`` passed and
        ``min_reads`` reads were sent, or the generated requests run out.

        Returns (records, wall seconds, next index, whether the slice
        finished); an unfinished slice continues after more requests are
        generated.
        """
        records: List[Record] = []
        state = {"next": start, "reads": 0, "in_flight": 0, "exhausted": False}
        reads_open = asyncio.Event()
        reads_open.set()
        reads_idle = asyncio.Event()
        reads_idle.set()
        update_lock = asyncio.Lock()
        deadline = time.perf_counter() + seconds

        async def send(connection: Connection, index: int, request: Request) -> Record:
            if request.kind == "read":
                path, payload = "/answer", {"query": request.query, "include_nodes": False}
            else:
                path, payload = "/update", {"mutations": list(request.script)}
            version = self.version
            began = time.perf_counter()
            try:
                status, body = await asyncio.wait_for(
                    connection.request("POST", path, payload), REQUEST_TIMEOUT_S
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError) as exc:
                await connection.close()
                return Record(index, request.kind, time.perf_counter() - began, 0, version,
                              error=f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - began
            record = Record(index, request.kind, latency, status, version)
            if status != 200:
                record.error = f"HTTP {status}: {body}"
            elif request.kind == "read":
                record.answer = answer_digest(body["node_ids"])
            return record

        async def loop(connection: Connection) -> None:
            while True:
                if time.perf_counter() >= deadline and state["reads"] >= min_reads:
                    return
                index = state["next"]
                if index >= len(requests):
                    state["exhausted"] = True
                    return
                state["next"] += 1
                request = requests[index]
                if request.kind == "update":
                    async with update_lock:
                        reads_open.clear()
                        while state["in_flight"]:
                            await reads_idle.wait()
                        record = await send(connection, index, request)
                        if record.status == 200:
                            self.version = request.version
                        reads_open.set()
                else:
                    while not reads_open.is_set():
                        await reads_open.wait()
                    state["reads"] += 1
                    state["in_flight"] += 1
                    reads_idle.clear()
                    try:
                        record = await send(connection, index, request)
                    finally:
                        state["in_flight"] -= 1
                        if not state["in_flight"]:
                            reads_idle.set()
                records.append(record)

        began = time.perf_counter()
        await asyncio.gather(*(loop(connection) for connection in self.connections))
        return records, time.perf_counter() - began, state["next"], not state["exhausted"]
