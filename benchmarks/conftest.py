"""Shared fixtures for the benchmark suite.

Two suites live here: the backend comparison on one cross-cycle document
and the bound on disabled-observability overhead.  The paper's Sect. 6
experiments are reproduced by ``repro experiment expN`` instead.
Datasets are built once per session and shared across benchmarks.
"""

from __future__ import annotations

import pytest

from repro.dtd import samples
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document

# Benchmark dataset size (elements); deliberately small so the suite runs
# in seconds on the pure-Python engine.
CROSS_ELEMENTS = 3000


@pytest.fixture(scope="session")
def cross_dataset():
    """Cross-cycle DTD dataset used by the backend benchmarks."""
    dtd = samples.cross_dtd()
    tree = generate_document(dtd, x_l=12, x_r=4, seed=11, max_elements=CROSS_ELEMENTS,
                             distinct_values=20)
    return dtd, tree, shred_document(tree, dtd)
