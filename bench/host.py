"""The host's current speed, measured with bench-owned code only.

A shared virtual machine runs at different speeds from one minute to the
next.  The runner therefore probes the host before every launch and every
slice with a fixed round trip through a pipe to a child process that
echoes it back (a wake-up of another process, as a served request needs
several), and scales its time metrics to a nominal probe time.  Over ten
seeds run one after another while the host slowed by up to 60%, scaling
cut the spread of hot-read's ``setup_s`` from 26.6% to 5.8% and of its
throughput from 38.5% to 17.0%.  It corrects part of a drift, not all:
the host does not slow every kind of work alike (see
``bench/results/README.md``), and while the host holds steady the probe's
own noise can widen a spread.  A pure CPU loop, or a reference process
launch timed next to each server launch, tracked set-up time no better.
No program code runs in the probe, so a change to the program cannot
change the scale.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

__all__ = ["NOMINAL_RTT_US", "EchoProbe", "ref_loop_ms"]

#: The probe's round trip on the quiet reference host (2-vCPU x86_64
#: virtual machine, Python 3.11): time metrics are reported as if the
#: run's median probe had read this.
NOMINAL_RTT_US = 14.0

#: Round trips per batch and batches per probe; a probe takes about 10 ms.
ROUND_TRIPS = 100
BATCHES = 5

_MESSAGE = b"x" * 64

_ECHO = (
    "import os\n"
    "while True:\n"
    "    data = os.read(0, 4096)\n"
    "    if not data:\n"
    "        break\n"
    "    os.write(1, data)\n"
)


def ref_loop_ms() -> float:
    """Wall time of a fixed pure-Python loop: a record of the host's speed."""
    began = time.perf_counter()
    total = 0
    for value in range(500_000):
        total += value
    return (time.perf_counter() - began) * 1000.0


class EchoProbe:
    """A child process echoing fixed messages; :meth:`rtt_us` times them."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _ECHO], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            bufsize=0,
        )
        self._out = self._proc.stdin.fileno()
        self._in = self._proc.stdout.fileno()

    def _round_trip(self) -> None:
        os.write(self._out, _MESSAGE)
        received = 0
        while received < len(_MESSAGE):
            data = os.read(self._in, len(_MESSAGE) - received)
            if not data:
                raise RuntimeError("host probe's echo process exited")
            received += len(data)

    def rtt_us(self) -> float:
        """Median over batches of the mean round trip, in microseconds."""
        batches = []
        for _ in range(BATCHES):
            began = time.perf_counter()
            for _ in range(ROUND_TRIPS):
                self._round_trip()
            batches.append((time.perf_counter() - began) / ROUND_TRIPS * 1e6)
        return statistics.median(batches)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "EchoProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
