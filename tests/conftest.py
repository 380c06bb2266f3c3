import pytest


@pytest.fixture(autouse=True)
def _default_budgets(monkeypatch):
    """Run every test at the default caps, whatever the calling shell sets."""
    monkeypatch.delenv("QRANK_MAX_DEGREE", raising=False)
    monkeypatch.delenv("QRANK_MAX_PRIME", raising=False)
