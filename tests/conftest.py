import pytest

from entrocert import certify

# One line per acceptance criterion, printed after the run so they survive
# pytest's output capture.
ACCEPTANCE_LINES: list = []


@pytest.fixture(autouse=True)
def cold_trial_stacks():
    """Start every test with no kept trial stacks, rebuilt payloads or precheck: each one computes its own."""
    certify._KEPT.clear()
    certify._REBUILT.clear()
    certify._PRECHECKED[:] = None, None, None


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
