"""Span trees: the no-op fast path, nesting, per-thread traces, serialization."""

from __future__ import annotations

import json
import threading

from repro import obs
from repro.obs.trace import _NOOP


class TestNoopFastPath:
    def test_span_without_active_trace_is_the_shared_noop(self):
        assert not obs.is_tracing()
        sp = obs.span("anything", key="value")
        assert sp is _NOOP
        assert not sp  # falsy: call sites guard trace-only work with `if sp:`
        # The full protocol is inert.
        with sp as inner:
            inner.set(more="attrs")
        assert obs.current_span() is None

    def test_noop_is_a_single_shared_object(self):
        assert obs.span("a") is obs.span("b")

    def test_is_tracing_flips_with_trace_lifecycle(self):
        assert not obs.is_tracing()
        with obs.trace("t"):
            assert obs.is_tracing()
        assert not obs.is_tracing()


class TestSpanTrees:
    def test_trace_records_nested_children_and_timings(self):
        with obs.trace("root", run=1) as root:
            with obs.span("child-a") as a:
                a.set(rows=3)
                with obs.span("grandchild"):
                    pass
            with obs.span("child-b"):
                pass
        assert [child.name for child in root.children] == ["child-a", "child-b"]
        assert root.children[0].children[0].name == "grandchild"
        assert root.attrs == {"run": 1}
        assert root.children[0].attrs == {"rows": 3}
        # Wall time is inclusive of children; every finished span has some.
        assert root.wall_seconds >= root.children[0].wall_seconds >= 0.0
        assert root.cpu_seconds >= 0.0

    def test_walk_and_find(self):
        with obs.trace("root") as root:
            with obs.span("x"):
                with obs.span("y"):
                    pass
            with obs.span("y"):
                pass
        assert [node.name for node in root.walk()] == ["root", "x", "y", "y"]
        first_y = root.find("y")
        assert first_y is root.children[0].children[0]
        assert root.find("missing") is None

    def test_nested_start_trace_returns_inner_root_as_child(self):
        outer = obs.start_trace("outer")
        inner = obs.start_trace("inner")
        assert obs.end_trace() is inner
        assert obs.end_trace() is outer
        assert inner in outer.children

    def test_end_trace_closes_spans_left_open_by_an_exception(self):
        root = obs.start_trace("root")
        try:
            with obs.span("open"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # The exception unwound the span cleanly; end_trace would also have
        # closed any span a non-context-manager caller left open.
        assert obs.end_trace() is root
        assert obs.end_trace() is None  # nothing active any more
        assert root.children[0].name == "open"
        assert root.children[0].wall_seconds >= 0.0


def _in_worker_thread(target):
    """Run ``target`` on a fresh thread and return what it returned."""
    box = []
    thread = threading.Thread(target=lambda: box.append(target()))
    thread.start()
    thread.join()
    return box[0]


class TestPerThreadTraces:
    def test_worker_threads_start_cold(self):
        def worker():
            with obs.span("worker-span") as sp:
                return obs.is_tracing(), sp, obs.current_span()

        with obs.trace("root") as root:
            tracing, sp, current = _in_worker_thread(worker)
            with obs.span("caller-span"):
                pass
        assert (tracing, sp, current) == (False, _NOOP, None)
        assert [child.name for child in root.children] == ["caller-span"]

    def test_a_worker_trace_is_its_own_root(self):
        # On one thread an inner trace nests under the active one; a trace
        # started on another thread does not.
        def worker():
            with obs.trace("worker-root") as worker_root:
                with obs.span("worker-span"):
                    pass
            return worker_root

        with obs.trace("root") as root:
            worker_root = _in_worker_thread(worker)
            assert obs.current_span() is root
        assert root.children == []
        assert [child.name for child in worker_root.children] == ["worker-span"]


class TestSerialization:
    def test_to_dict_from_dict_is_an_exact_json_round_trip(self):
        with obs.trace("root", query="a//b") as root:
            with obs.span("child", rows=7):
                pass
        payload = json.loads(json.dumps(root.to_dict()))
        rebuilt = obs.Span.from_dict(payload)
        assert rebuilt.to_dict() == root.to_dict()
        assert rebuilt.name == "root"
        assert rebuilt.attrs == {"query": "a//b"}
        assert rebuilt.children[0].attrs == {"rows": 7}
        assert rebuilt.children[0].wall_seconds == root.children[0].wall_seconds

    def test_from_dict_rejects_non_span_payloads(self):
        import pytest

        with pytest.raises(ValueError):
            obs.Span.from_dict({"not": "a span"})

    def test_render_span_tree_indents_and_shows_attrs(self):
        with obs.trace("root") as root:
            with obs.span("child", backend="memory"):
                pass
        rendered = obs.render_span_tree(root)
        lines = rendered.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "backend='memory'" in lines[1]
        assert "ms" in lines[0]
