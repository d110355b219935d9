"""Pinned generator output: the documents every row count and benchmark reads.

Each digest is the sha256 of ``repr((node id, label, value, parent id))``
per node, in document order, taken from the generator before any change it
is checked against.  A change to :mod:`repro.xmltree.generator` that moves
one digest changes the benchmark's inputs and the Sect. 6 row counts, so it
must say so and update the digests on purpose.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.dtd import samples
from repro.fuzz.cases import DocumentSpec

DTDS = {
    "dept": samples.dept_dtd,
    "dept-simplified": samples.simplified_dept_dtd,
    "cross": samples.cross_dtd,
    "bioml-a": samples.bioml_subgraph_a,
    "bioml-b": samples.bioml_subgraph_b,
    "bioml-c": samples.bioml_subgraph_c,
    "bioml-d": samples.bioml_subgraph_d,
    "bioml": samples.bioml_dtd,
    "gedml": samples.gedml_dtd,
    "fig3-view": samples.fig3_view_dtd,
    "fig3-source": samples.fig3_source_dtd,
    "complete-dag-4": lambda: samples.complete_dag_dtd(4),
    "complete-dag-blocker-4": lambda: samples.complete_dag_with_blocker_dtd(4),
}

SHAPES = {
    "default": DocumentSpec(),
    "shallow": DocumentSpec(x_l=6, x_r=4, max_elements=400, seed=11, distinct_values=20),
}

SAMPLE_DIGESTS = {
    ("dept", "default"): "2864a168b1eacbd733567d72187e6e7107b545e6450d32dfd8eeb2ab0198d899",
    ("dept", "shallow"): "a22fec80f1fc7d87637012701a0654b1667c449550c79a9f0ed3c908d514afed",
    ("dept-simplified", "default"): "41172a9507790337c46a5486fde3d4801470f428237a5b7feaffd7186cbf8f14",
    ("dept-simplified", "shallow"): "7406189371548b427a89e25a9b12b5bc9380cd0057069c654d1ca5a2efc048aa",
    ("cross", "default"): "f21215077d436d1981c2391468c95d8b47214edb11cf90c68f1b2489e4bbd48b",
    ("cross", "shallow"): "d4fcab50c4779c4f04b09430abe57ea0bbe769bd7adcb2cfe835bb8f5a32b219",
    ("bioml-a", "default"): "3ab6f63eb1eeed0324699c72ca5e0eb0deb86f1b1e464eeffeaff475fd837621",
    ("bioml-a", "shallow"): "f70fed76265076a8572cc1ce4ddd55918ad3446060dd15f3473c9719d9ad7103",
    ("bioml-b", "default"): "3d336f03740cb4f09d578595c3d3e3d9e0ed3c59e5177f6cef1ad4c948b17c4c",
    ("bioml-b", "shallow"): "ea89e3c2b42dfbb60acc484a68fc9d3a23bc6d5e519c483cf7392bfc47d15013",
    ("bioml-c", "default"): "3a5225a5a78b9b9afd5e5c832b63d8cd64dda6fe393775e252108a9d870e3dcd",
    ("bioml-c", "shallow"): "e479196af9534ad66b5cb1125941b804406db44ec0c754733a50973a413552df",
    ("bioml-d", "default"): "8343a25771607b0fdda7ac4d0f6b2723454b116ac67f270f62e08f7cef2d5b80",
    ("bioml-d", "shallow"): "f9dba97541b057bb62143ebb792a1fb110b57c1a3c7e74ad4456bf13a8510fe4",
    ("bioml", "default"): "8343a25771607b0fdda7ac4d0f6b2723454b116ac67f270f62e08f7cef2d5b80",
    ("bioml", "shallow"): "f9dba97541b057bb62143ebb792a1fb110b57c1a3c7e74ad4456bf13a8510fe4",
    ("gedml", "default"): "246925d098bead50087cb90de52b78083496d0ee7d1a12d33f83202cdfc325c4",
    ("gedml", "shallow"): "5aa5a5f0c6bafb2d1ba4e31825014ff79fe8e811ec80befb96698f1cb1b2656e",
    ("fig3-view", "default"): "d1a17714b6006a823c8ccbec0c26e498b63b89015b5fea1f84183d31ca6a8773",
    ("fig3-view", "shallow"): "a8247a479e140f0da9db91b189c01fb977ea654d2d72b745a084fb18b4e5fed6",
    ("fig3-source", "default"): "705432a64c41c5f551af0bbb07e15b5a6185497ed24d9b26eb046ac5ad82aaea",
    ("fig3-source", "shallow"): "1a2cfb815dce6f884b5baacd4694c4cc5fc19f795d9c7b7df74eac4d4a12978d",
    ("complete-dag-4", "default"): "9a23dc7cd6b038c257279043d8e9321d3f215ebd9075ac00bc400f8ae9f0fab0",
    ("complete-dag-4", "shallow"): "9a23dc7cd6b038c257279043d8e9321d3f215ebd9075ac00bc400f8ae9f0fab0",
    ("complete-dag-blocker-4", "default"): "93b507341b1d34d1f1a70816f541cb55ff52c2cb90bee814f9b3c4a15fb971d9",
    ("complete-dag-blocker-4", "shallow"): "93b507341b1d34d1f1a70816f541cb55ff52c2cb90bee814f9b3c4a15fb971d9",
}

# The benchmark's documents: ``bench.workloads.build(name, seed).document``,
# which is the same for every seed.
BENCH_DOCUMENTS = {
    "hot-read": (
        "cross",
        DocumentSpec(x_l=12, x_r=4, max_elements=1000, seed=0, distinct_values=4),
        1023,
        "968f68e08284011f2d2bcef62da14942d44b794f9e844c6c518de8de85eee210",
    ),
    "recursive-scan": (
        "cross",
        DocumentSpec(x_l=14, x_r=4, max_elements=8000, seed=0, distinct_values=4),
        8016,
        "ed1889b1a44dafbfd9b805fdd6c118ed9b421671e4fe7d0019d97819d46f2ea5",
    ),
    "fresh-plans": (
        "dept",
        DocumentSpec(x_l=8, x_r=3, max_elements=300, seed=0, distinct_values=4),
        315,
        "d1aa0aa0cc615dc8d62d11115c1ef726809b59f563c6ec4b46dcd4d7b9a05be4",
    ),
    "sqlite-scan": (
        "cross",
        DocumentSpec(x_l=14, x_r=4, max_elements=500, seed=3, distinct_values=4),
        523,
        "1fc70e920d6b79dd01e12b8471f8d66e0a58a0bdb697eb9dc76c54f17b0e6716",
    ),
    "live-mixed": (
        "cross",
        DocumentSpec(x_l=12, x_r=4, max_elements=600, seed=0, distinct_values=4),
        621,
        "f06516fdb3c040f451e43f86f5307a2f5dd8e09d309be2d6c60929861bf61103",
    ),
}


def tree_digest(tree) -> str:
    """sha256 over (node id, label, value, parent id) per node, in document order."""
    digest = hashlib.sha256()
    for node in tree.nodes():
        parent = None if node.parent is None else node.parent.node_id
        digest.update(repr((node.node_id, node.label, node.value, parent)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("dtd_name, shape", sorted(SAMPLE_DIGESTS))
def test_sample_document_is_pinned(dtd_name, shape):
    tree = SHAPES[shape].generate(DTDS[dtd_name]())
    assert tree_digest(tree) == SAMPLE_DIGESTS[dtd_name, shape]


@pytest.mark.parametrize("workload", sorted(BENCH_DOCUMENTS))
def test_benchmark_document_is_pinned(workload):
    dtd_name, spec, size, expected = BENCH_DOCUMENTS[workload]
    tree = spec.generate(DTDS[dtd_name]())
    assert tree.size() == size
    assert tree_digest(tree) == expected


def test_every_paper_dtd_is_pinned():
    assert set(samples.paper_dtds()) <= set(DTDS)
