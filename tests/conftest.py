import pytest

from eulerprod import maxprod


@pytest.fixture
def empty_shared_tables(monkeypatch):
    """An empty maxprod.shared_table cache for one test, so counted builds do not depend on earlier tests."""
    monkeypatch.setattr(maxprod, "_shared", {})
