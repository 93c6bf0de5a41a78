"""Fixtures every test gets."""

import pytest

from balprice import serialize


@pytest.fixture(autouse=True)
def empty_load_table():
    """Start each test with no environment kept by ``load_instance``, so
    that a test's work counts do not depend on the instances earlier tests
    loaded."""
    serialize._LOADED.clear()
