"""The runner's rounds: requests generated ahead from the measured rate."""

import asyncio
from types import SimpleNamespace

import pytest

from bench.client import Record
from bench.runner import _round
from bench.workloads import Request

STEP = 1 / 64  # seconds per request, exact in binary


class _Stream:
    def __init__(self) -> None:
        self.requests = []

    def extend(self, count: int) -> None:
        self.requests.extend(Request("read", query="a") for _ in range(count))


class _Client:
    """Sends every generated request, 64 per second of virtual time."""

    def __init__(self) -> None:
        self.calls = 0

    async def run_slice(self, requests, start, seconds, min_reads):
        self.calls += 1
        records, index = [], start
        while len(records) * STEP < seconds or len(records) < min_reads:
            if index >= len(requests):
                return records, len(records) * STEP, index, False
            records.append(Record(index, "read", STEP, 200, 0))
            index += 1
        return records, len(records) * STEP, index, True


def test_a_round_that_runs_out_generates_more_and_goes_on():
    workload = SimpleNamespace(name="w", stream=_Stream())
    client = _Client()
    rate = {"w": 0.0}
    records, wall, after = asyncio.run(_round(client, workload, 0, 2.0, 50, rate))
    assert client.calls > 1
    assert wall == pytest.approx(2.0)
    assert after == len(records) == 128
    assert [r.index for r in records] == list(range(128))
    assert rate["w"] == pytest.approx(64.0)


def test_the_measured_rate_sizes_the_next_round():
    # A slice eight times longer than the first round, as a timed slice
    # after a short warm-up, still needs a single call.
    workload = SimpleNamespace(name="w", stream=_Stream())
    rate = {"w": 0.0}
    _, _, after = asyncio.run(_round(_Client(), workload, 0, 0.5, 0, rate))
    client = _Client()
    records, wall, _ = asyncio.run(_round(client, workload, after, 4.0, 200, rate))
    assert client.calls == 1
    assert len(records) == 256 and wall == pytest.approx(4.0)
