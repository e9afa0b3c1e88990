"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def count_solves(monkeypatch):
    """The local solves made from here on, one entry per factorization."""
    import surfspline.polyrep

    calls = []
    min_norm = surfspline.polyrep._min_norm

    def counted(bmat):
        calls.append(1)
        return min_norm(bmat)

    monkeypatch.setattr(surfspline.polyrep, "_min_norm", counted)
    return calls
