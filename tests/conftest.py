"""Shared fixtures and the hypothesis profile; collects acceptance
verdict lines for the final summary."""

import pytest
from hypothesis import settings

from satsync.parallel import FORKS

# Property tests draw the same examples on every run and never read or
# write the local example database (derandomize implies database=None);
# a test's own @settings still override single fields.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

_verdicts = []


def pytest_configure(config):
    config.addinivalue_line("markers", "needs_fork: needs pool workers that are forked")


def pytest_runtest_setup(item):
    if item.get_closest_marker("needs_fork") and not FORKS:
        pytest.skip("pool workers are not forked here")


@pytest.fixture(scope="session")
def acceptance_log():
    """Append ``[PASS]``/``[FAIL]`` lines here; they print after the run."""
    return _verdicts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for line in _verdicts:
        terminalreporter.write_line(line)
