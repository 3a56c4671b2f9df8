import contextlib

import pytest
from hypothesis import settings

# every property test replays the same examples and keeps no example database
settings.register_profile("pckad", derandomize=True, database=None, deadline=None)
settings.load_profile("pckad")

_CRITERIA: list[tuple[str, str, str]] = []


@pytest.fixture
def criterion():
    """Record one acceptance criterion's outcome for the terminal summary."""

    @contextlib.contextmanager
    def _criterion(number: str, description: str):
        try:
            yield
        except pytest.skip.Exception:
            _CRITERIA.append((number, description, "SKIP"))
            raise
        except BaseException:
            _CRITERIA.append((number, description, "FAIL"))
            raise
        else:
            _CRITERIA.append((number, description, "PASS"))

    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    # a criterion checked over a table of cases reads as its worst case
    worst: dict[tuple[str, str], str] = {}
    for number, description, status in _CRITERIA:
        worst[number, description] = max(worst.get((number, description), "PASS"), status,
                                          key=["PASS", "SKIP", "FAIL"].index)
    terminalreporter.section("acceptance criteria")
    for (number, description), status in sorted(worst.items()):
        terminalreporter.write_line(f"criterion {number} [{status}] {description}")
