"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures on a reduced
dataset (:mod:`repro.workloads.datasets` explains the scaling; the
figure-scale sweeps run from ``python -m repro.experiments.expN``).
Datasets are built once per session and shared across benchmarks.
"""

from __future__ import annotations

import pytest

from repro.dtd import samples
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document

# Benchmark dataset sizes (elements); deliberately small so the whole
# benchmark suite runs in minutes on the pure-Python engine.
CROSS_ELEMENTS = 3000
BIOML_ELEMENTS = 3000
GEDML_ELEMENTS = 2500


@pytest.fixture(scope="session")
def cross_dataset():
    """Cross-cycle DTD dataset used by the Fig. 12/13/14 benchmarks."""
    dtd = samples.cross_dtd()
    tree = generate_document(dtd, x_l=12, x_r=4, seed=11, max_elements=CROSS_ELEMENTS,
                             distinct_values=20)
    return dtd, tree, shred_document(tree, dtd)


@pytest.fixture(scope="session")
def bioml_dataset():
    """4-cycle BIOML dataset used by the Fig. 16 benchmarks."""
    dtd = samples.bioml_dtd()
    tree = generate_document(dtd, x_l=12, x_r=4, seed=31, max_elements=BIOML_ELEMENTS)
    return dtd, tree, shred_document(tree, dtd)


@pytest.fixture(scope="session")
def gedml_dataset():
    """9-cycle GedML dataset used by the Fig. 17 benchmarks."""
    dtd = samples.gedml_dtd()
    tree = generate_document(dtd, x_l=10, x_r=4, seed=37, max_elements=GEDML_ELEMENTS)
    return dtd, tree, shred_document(tree, dtd)
