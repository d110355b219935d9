"""Live updates through the serving stack: service, process pool, HTTP."""

from __future__ import annotations

import http.client
import json
import multiprocessing
import random
import sys
import threading
from concurrent.futures import Future

import pytest

from repro import obs
from repro.api import EngineConfig
from repro.dtd import samples
from repro.errors import MutationError, UnknownDocumentError, WorkerCrashError
from repro.live.fuzzer import MutationGenConfig, RandomMutationGenerator
from repro.live.mutations import (
    DeleteSubtree,
    InsertSubtree,
    ReplaceText,
    mutation_to_dict,
)
from repro.service import ProcessQueryService, QueryService
from repro.service.http import QueryHTTPServer
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

QUERY = "a//d"

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests use the fork start method for speed",
)


def _script(dtd, tree, seed=7, mutations=5):
    generator = RandomMutationGenerator(
        dtd, random.Random(seed), MutationGenConfig(mutations=mutations)
    )
    script = generator.script(tree)
    assert script, "document too constrained to mutate"
    return script


def _crashed(index):
    """A submitted request whose worker crashed."""
    future = Future()
    future.set_exception(WorkerCrashError(f"pool worker {index} crashed again"))
    return future


def _evaluator_ids(tree, query=QUERY):
    return sorted(n.node_id for n in evaluate_xpath(tree, parse_xpath(query)))


class TestQueryServiceUpdate:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_update_keeps_answers_in_sync_with_the_tree(self, backend):
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, seed=3, max_elements=200)
        with QueryService(dtd, config=EngineConfig(backend=backend)) as service:
            service.register_document("doc", tree)
            script = _script(dtd, tree)
            summary = service.update_document(script, "doc")
            assert summary["applied"] == len(script)
            assert summary["document"] == "doc"
            live_tree = service.store("doc").shredded.tree
            answered = sorted(
                n.node_id for n in service.answer(QUERY, document_id="doc")
            )
            assert answered == _evaluator_ids(live_tree)

    def test_result_cache_dropped_but_plan_cache_survives(self):
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, seed=3, max_elements=200)
        with QueryService(dtd) as service:
            service.register_document("doc", tree)
            service.answer(QUERY, document_id="doc")
            service.answer(QUERY, document_id="doc")
            assert service.result_cache_info().hits >= 1
            plans_before = service.cache_info()

            service.update_document(_script(dtd, tree), "doc")
            # The store's result LRU was computed over the old rows: gone.
            assert service.result_cache_info().size == 0
            misses_before = service.result_cache_info().misses
            service.answer(QUERY, document_id="doc")
            assert service.result_cache_info().misses == misses_before + 1
            # The plan is a function of (DTD, query) alone: no re-translation.
            assert service.cache_info().misses == plans_before.misses

    def test_invalidation_counter_increments(self):
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, seed=3, max_elements=120)
        counter = obs.registry().counter("service.invalidations")
        before = counter.value
        with QueryService(dtd) as service:
            service.register_document("doc", tree)
            service.update_document(_script(dtd, tree, mutations=2), "doc")
        assert counter.value == before + 1

    def test_json_form_mutations_accepted(self):
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, seed=3, max_elements=120)
        text_node = next(n for n in tree.nodes() if n.label in dtd.text_types)
        with QueryService(dtd) as service:
            service.register_document("doc", tree)
            summary = service.update_document(
                [{"op": "replace_text", "node": text_node.node_id, "value": "wired"}],
                "doc",
            )
            assert summary["applied"] == 1
            assert service.store("doc").shredded.tree.node(
                text_node.node_id
            ).value == "wired"

    def test_failing_mutation_applies_prefix_and_stays_consistent(self):
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, seed=3, max_elements=200)
        text_node = next(n for n in tree.nodes() if n.label in dtd.text_types)
        with QueryService(dtd) as service:
            service.register_document("doc", tree)
            script = [
                ReplaceText(text_node.node_id, "applied-before-failure"),
                DeleteSubtree(99_999),  # unknown node: fails validation
            ]
            with pytest.raises(MutationError):
                service.update_document(script, "doc")
            live_tree = service.store("doc").shredded.tree
            assert live_tree.node(text_node.node_id).value == "applied-before-failure"
            # Tree and relational store did not diverge on the partial apply.
            answered = sorted(
                n.node_id for n in service.answer(QUERY, document_id="doc")
            )
            assert answered == _evaluator_ids(live_tree)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_answer_computed_across_an_update_is_not_cached(self, backend):
        # The backend finishes executing, then an update lands before the
        # service stores the (now stale) result.
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, seed=3, max_elements=200)
        with QueryService(dtd, config=EngineConfig(backend=backend)) as service:
            service.register_document("doc", tree)
            store = service.store("doc")
            before = _evaluator_ids(tree)
            script = _script(dtd, tree.copy(), seed=11, mutations=8)
            execute = store.backend.execute_prepared

            def execute_then_update(prepared):
                result = execute(prepared)
                store.backend.execute_prepared = execute
                service.update_document(script, "doc")
                return result

            store.backend.execute_prepared = execute_then_update
            stale = sorted(n.node_id for n in service.answer(QUERY, document_id="doc"))
            assert stale == before
            after = _evaluator_ids(store.shredded.tree)
            assert after != before, "the script must change the answer"
            answered = sorted(n.node_id for n in service.answer(QUERY, document_id="doc"))
            assert answered == after

    def test_unknown_document_rejected(self):
        dtd = samples.cross_dtd()
        with QueryService(dtd) as service:
            service.register_document("doc", generate_document(dtd, seed=1, max_elements=60))
            with pytest.raises(UnknownDocumentError):
                service.update_document([DeleteSubtree(1)], "nope")


@fork_only
class TestProcessPoolUpdate:
    def test_update_reaches_every_owning_replica(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork", warmup=[QUERY]
        ) as pool:
            tree = generate_document(dtd, seed=3, max_elements=200)
            pool.register_document("doc", tree)
            script = _script(dtd, tree)
            summary = pool.update_document(script, "doc")
            assert sorted(summary["workers"]) == sorted(pool.owners("doc"))
            # Round-robin across both replicas: answers must agree post-update.
            answers = {tuple(pool.answer(QUERY, "doc").node_ids) for _ in range(4)}
            assert len(answers) == 1
            stats = pool.stats()
            assert stats["metrics"]["pool.updates"]["value"] == 1

    def test_respawned_worker_replays_the_mutation_log(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork", warmup=[QUERY]
        ) as pool:
            tree = generate_document(dtd, seed=3, max_elements=200)
            pool.register_document("doc", tree)
            pool.update_document(_script(dtd, tree), "doc")
            expected = list(pool.answer(QUERY, "doc").node_ids)
            for index in range(2):  # kill both owners, one at a time
                pool._kill_worker(index)
                assert list(pool.answer(QUERY, "doc").node_ids) == expected

    @pytest.mark.parametrize("crashing", [0, 1], ids=["first-owner", "second-owner"])
    def test_owner_crash_after_retry_still_logs_the_script(self, monkeypatch, crashing):
        # One owner crashes for good (a WorkerCrashError after the retry, not
        # a MutationError) and the other applies the script.  The other
        # owner must still be sent it, and the script must reach the
        # mutation log, or the crashed owner would respawn from the
        # pre-update document.
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork", warmup=[QUERY]
        ) as pool:
            tree = generate_document(dtd, seed=3, max_elements=200)
            pool.register_document("doc", tree)
            owners = pool.owners("doc")
            dead, survivor = owners[crashing], owners[1 - crashing]
            before = list(pool._call(survivor, "answer", "doc", QUERY, False).node_ids)
            script = _script(dtd, tree, seed=8)  # deletes and inserts d nodes
            submit = pool._submit

            def crash_one_owner(index, kind, *rest):
                if kind == "update" and index == dead:  # and again on the retry
                    pool._kill_worker(index)
                    return _crashed(index)
                return submit(index, kind, *rest)

            monkeypatch.setattr(pool, "_submit", crash_one_owner)
            with pytest.raises(WorkerCrashError):
                pool.update_document(script, "doc")
            monkeypatch.undo()
            assert pool._mutation_log["doc"] == [
                [mutation_to_dict(mutation) for mutation in script]
            ]
            after = list(pool._call(survivor, "answer", "doc", QUERY, False).node_ids)
            assert after != before  # the script moved the answer
            # The dead owner respawns on this call and replays the log.
            respawned = pool._call(dead, "answer", "doc", QUERY, False)
            assert list(respawned.node_ids) == after

    def test_concurrent_updates_reach_every_owner_in_one_order(self):
        # Writers race one-insert scripts at index 0 under the root, so
        # each owner's sibling order is the order it applied the scripts
        # in.  Every owner, and a serial service replaying the mutation
        # log, must end with the same order.
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, seed=3, max_elements=600)
        writers, scripts_per_writer = 4, 40
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork"
        ) as pool:
            pool.register_document("doc", tree)
            errors = []

            def write(writer):
                try:
                    for step in range(scripts_per_writer):
                        subtree = ("b", f"w{writer}-{step}", ())
                        pool.update_document(
                            [InsertSubtree(tree.root.node_id, subtree, index=0)],
                            "doc",
                        )
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(repr(exc))

            threads = [
                threading.Thread(target=write, args=(writer,))
                for writer in range(writers)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors[:3]
            owner_values = [
                pool._call(index, "answer", "doc", "a/b", True).values
                for index in pool.owners("doc")
            ]
            log = list(pool._mutation_log["doc"])
        assert len(log) == writers * scripts_per_writer
        with QueryService(dtd) as serial:
            serial.register_document("doc", tree)
            for script in log:
                serial.update_document(script, "doc")
            expected = tuple(node.value for node in serial.answer("a/b", "doc"))
        assert owner_values[0] == owner_values[1] == expected

    def test_script_no_owner_applied_stays_out_of_the_log(self, monkeypatch):
        # Every owner crashes on the script.  Logging it anyway would make
        # every later respawn replay a script no replica ever applied.
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork", warmup=[QUERY]
        ) as pool:
            tree = generate_document(dtd, seed=3, max_elements=200)
            pool.register_document("doc", tree)
            before = list(pool.answer(QUERY, "doc").node_ids)
            submit = pool._submit
            sent = []

            def crash_every_owner(index, kind, *rest):
                if kind == "update":
                    sent.append(index)
                    pool._kill_worker(index)
                    return _crashed(index)
                return submit(index, kind, *rest)

            monkeypatch.setattr(pool, "_submit", crash_every_owner)
            with pytest.raises(WorkerCrashError):
                pool.update_document(_script(dtd, tree, seed=8), "doc")
            monkeypatch.undo()
            # Sent to every owner, then to each once more after its respawn.
            assert sent == list(pool.owners("doc")) * 2
            assert pool._mutation_log.get("doc", []) == []
            for index in pool.owners("doc"):  # both respawn on this call
                respawned = pool._call(index, "answer", "doc", QUERY, False)
                assert list(respawned.node_ids) == before


@fork_only
class TestHTTPUpdate:
    @pytest.fixture()
    def server(self):
        dtd = samples.cross_dtd()
        pool = ProcessQueryService(
            dtd, workers=1, replicas=1, start_method="fork", warmup=[QUERY]
        )
        tree = generate_document(dtd, seed=3, max_elements=200)
        pool.register_document("doc", tree)
        http_server = QueryHTTPServer(pool, port=0)
        ready = threading.Event()
        thread = threading.Thread(
            target=http_server.run, kwargs={"ready": lambda _url: ready.set()}, daemon=True
        )
        thread.start()
        assert ready.wait(10), "server did not come up"
        yield http_server, pool, dtd, tree
        http_server.request_stop()
        thread.join(10)
        pool.close()

    def _request(self, http_server, method, path, payload=None):
        connection = http.client.HTTPConnection(
            http_server.host, http_server.port, timeout=30
        )
        try:
            body = json.dumps(payload) if payload is not None else None
            connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            raw = response.read()
            return response.status, json.loads(raw) if raw else None
        finally:
            connection.close()

    def test_post_update_applies_and_invalidates(self, server):
        http_server, pool, dtd, tree = server
        from repro.live.mutations import mutation_to_dict

        script = [mutation_to_dict(m) for m in _script(dtd, tree)]
        status, summary = self._request(
            http_server, "POST", "/update", {"mutations": script, "document": "doc"}
        )
        assert status == 200
        assert summary["applied"] == len(script)
        status, payload = self._request(
            http_server, "POST", "/answer", {"query": QUERY, "document": "doc"}
        )
        assert status == 200
        # Verify against a locally mutated oracle tree.
        from repro.live.mutations import DocumentMutator, mutation_from_dict

        oracle_tree = tree.copy()
        DocumentMutator(oracle_tree, dtd).apply_script(
            [mutation_from_dict(m) for m in script]
        )
        assert payload["node_ids"] == _evaluator_ids(oracle_tree)

    def test_post_update_requires_mutation_list(self, server):
        http_server, _pool, _dtd, _tree = server
        status, payload = self._request(
            http_server, "POST", "/update", {"mutations": "not-a-list"}
        )
        assert status == 400
        assert "mutations" in payload["message"]
