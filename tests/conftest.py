"""Shared fixtures."""

import pytest

from softknn import classifier, landscape


@pytest.fixture
def forced_culling(monkeypatch):
    """Cull every tile of every call, including one-point calls and two-prototype sets.

    Culling tiles are 5 points, so they straddle the 8-column strips that
    raster chunks are then handed over in.
    """
    monkeypatch.setattr(classifier, "_CULL_TILE", 5)
    monkeypatch.setattr(classifier, "_CULL_MIN_POINTS", 1)
    monkeypatch.setattr(classifier, "_CULL_MIN_PROTOTYPES", 2)
    monkeypatch.setattr(landscape, "_PATCH_COLS", 8)
