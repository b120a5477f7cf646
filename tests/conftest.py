import os

import pytest
from hypothesis import settings

import trishape

# CI runs every Python version on the same examples: `pytest --hypothesis-profile=ci`
settings.register_profile("ci", derandomize=True, max_examples=settings.default.max_examples)


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the trishape under test."""
    src = os.path.dirname(os.path.dirname(trishape.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
