"""Fixtures shared by the test modules."""

import zlib

import numpy as np
import pytest


@pytest.fixture
def rng(request):
    """A generator seeded from the test's node id: a test draws the same data
    whichever tests ran before it, and when it runs alone under ``-k``."""
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))
