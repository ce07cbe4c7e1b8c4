import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, and few of them: each
# example runs adaptive quadratures, some against an mpmath oracle.
settings.register_profile("horospheres", derandomize=True, database=None, max_examples=20, deadline=None)
settings.load_profile("horospheres")

_LINES: dict[int, str] = {}


@pytest.fixture
def acceptance():
    """Recorder that puts one PASS/FAIL line per criterion into the
    terminal summary."""

    def _record(criterion: int, passed: bool, detail: str) -> None:
        word = "PASS" if passed else "FAIL"
        _LINES[criterion] = f"criterion {criterion:2d}: {word}  {detail}"

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus):
    if _LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for key in sorted(_LINES):
            terminalreporter.write_line(_LINES[key])
