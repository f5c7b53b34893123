import pytest

from entrocert import certify

# One line per acceptance criterion, printed after the run so they survive
# pytest's output capture.
ACCEPTANCE_LINES: list = []


@pytest.fixture(autouse=True)
def cold_trial_stacks():
    """Start every test with no kept trial stacks: each one draws and builds its own."""
    certify._KEPT.clear()


@pytest.fixture(scope="session")
def acceptance_record():
    def _rec(line: str) -> None:
        ACCEPTANCE_LINES.append(line)

    return _rec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
