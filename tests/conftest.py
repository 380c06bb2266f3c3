import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# the same examples on every run, and no example database
settings.register_profile("qrank", derandomize=True, database=None)
settings.load_profile("qrank")

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Keep hypothesis's cache of source constants, which its plugin fills
    while collecting, out of the checkout."""
    home = tempfile.mkdtemp(prefix="qrank-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    home = config.stash.get(_HYPOTHESIS_HOME, None)
    if home is not None:
        shutil.rmtree(home, ignore_errors=True)


@pytest.fixture(autouse=True)
def _default_budgets(monkeypatch):
    """Run every test at the default caps, whatever the calling shell sets."""
    monkeypatch.delenv("QRANK_MAX_DEGREE", raising=False)
    monkeypatch.delenv("QRANK_MAX_PRIME", raising=False)
