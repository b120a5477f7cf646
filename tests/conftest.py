import os

import pytest

import trishape


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the trishape under test."""
    src = os.path.dirname(os.path.dirname(trishape.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
