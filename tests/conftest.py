"""Fixtures and oracles shared by the test modules."""

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


def cut_weight(inst, mask: int) -> int:
    """Total weight of the max-cut instance's edges between the mask side
    and its complement."""
    if not 0 <= mask < 1 << inst.n:
        raise ValueError("mask out of range")
    total = 0
    for i in range(inst.n):
        side_i = mask >> i & 1
        row = inst.weights[i]
        for j in range(i + 1, inst.n):
            if side_i != (mask >> j & 1):
                total += row[j]
    return total
