"""Fixtures shared by the test modules."""

import pytest

from cheeger import maxcut


@pytest.fixture
def bounded(monkeypatch):
    """Ids of the nodes whose SDP bound ran, in order, across all searches."""
    ids = []
    original = maxcut._Search._bound

    def counting(self, node):
        ids.append(node.node_id)
        return original(self, node)

    monkeypatch.setattr(maxcut._Search, "_bound", counting)
    return ids
