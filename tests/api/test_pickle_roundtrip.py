"""Pickle-equivalence property tests for every multiprocessing payload.

The process-pool serving tier ships :class:`EngineConfig`,
:class:`BackendResult` and fuzz :class:`DocumentSpec` values over
``multiprocessing`` queues — i.e. through ``pickle``.  These tests pin the
contract next to the existing ``to_dict``/``from_dict`` round-trips:
pickling (at every protocol the interpreter supports) must reproduce each
value *exactly*, agreeing with the JSON wire form wherever one exists,
across the same configuration grid the fuzz oracle exercises.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.api import EngineConfig
from repro.backends import create_backend
from repro.backends.base import BackendResult
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd import samples
from repro.fuzz.cases import DocumentSpec, FuzzCase
from repro.fuzz.oracle import default_engines
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document

PROTOCOLS = list(range(2, pickle.HIGHEST_PROTOCOL + 1))


def _round_trips(value, protocol):
    clone = pickle.loads(pickle.dumps(value, protocol=protocol))
    assert clone == value
    assert type(clone) is type(value)
    return clone


class TestEngineConfigPickle:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_full_fuzz_grid_round_trips_exactly_as_json(self, protocol):
        for config in default_engines():
            clone = _round_trips(config, protocol)
            # The pickle transport and the JSON wire form agree field by
            # field: a worker built from a pickled config is the same
            # engine as one built from the JSON dict.
            assert clone.to_dict() == config.to_dict()
            assert EngineConfig.from_dict(json.loads(json.dumps(clone.to_dict()))) == config
            assert hash(clone) == hash(config)

    def test_pickled_config_still_validates_with_(self):
        clone = pickle.loads(pickle.dumps(EngineConfig(backend="sqlite")))
        assert clone.with_(optimize_level=0).optimize_level == 0


class TestBackendResultPickle:
    def _results(self):
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, seed=7)
        shredded = shred_document(tree, dtd)
        program = XPathToSQLTranslator(dtd).translate("a//d").program
        for backend_name in ("memory", "sqlite"):
            backend = create_backend(backend_name, shredded.database)
            try:
                yield backend.execute(program)
            finally:
                backend.close()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_real_results_round_trip_exactly(self, protocol):
        for result in self._results():
            clone = _round_trips(result, protocol)
            assert clone.backend == result.backend
            assert clone.node_ids() == result.node_ids()
            # stats is a Mapping; values must survive bit-exact (they feed
            # the merged benchmark numbers).
            assert dict(clone.stats) == dict(result.stats)

    def test_node_ids_stay_a_tuple_of_ints(self):
        for result in self._results():
            clone = pickle.loads(pickle.dumps(result))
            assert type(clone.node_ids()) is tuple
            assert clone.node_ids()
            assert all(type(node_id) is int for node_id in clone.node_ids())


class TestDocumentSpecPickle:
    SPECS = [
        DocumentSpec(),
        DocumentSpec(x_l=2, x_r=9, max_elements=40, seed=13, distinct_values=2),
        DocumentSpec(max_elements=1, seed=0),
    ]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_specs_round_trip(self, protocol):
        for spec in self.SPECS:
            clone = _round_trips(spec, protocol)
            assert hash(clone) == hash(spec)

    def test_pickled_spec_regenerates_the_identical_document(self):
        # The property that matters to the pool: a worker that receives a
        # pickled spec must materialise byte-for-byte the same document the
        # parent would (documents are shipped as recipes, not trees).
        dtd = samples.cross_dtd()
        for spec in self.SPECS:
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.generate(dtd).to_xml() == spec.generate(dtd).to_xml()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_spec_pickle_agrees_with_the_json_wire_form(self, protocol):
        for spec in self.SPECS:
            case = FuzzCase(
                label="pin",
                dtd_text=samples.cross_dtd().to_text(),
                query="a//d",
                document=spec,
            )
            via_json = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
            via_pickle = pickle.loads(pickle.dumps(case, protocol=protocol))
            assert via_pickle == via_json == case
            assert via_pickle.document == spec
