"""Fixtures of the paper suite (the builder itself is ``world.py``)."""

import pytest

from tests.paper.world import build_world


@pytest.fixture(scope="session")
def world_factory():
    return build_world
