import pytest
from hypothesis import settings

# Every @given test draws the same examples on each run, so the suite's
# verdict does not change from one run to the next. Hypothesis's own
# --hypothesis-profile option still selects any other registered profile:
# "deep" draws fresh examples on each run, 5,000 for each property that
# does not fix its own count, and lets no example time out.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("deep", max_examples=5_000, deadline=None)
settings.load_profile("derandomized")

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance():
    """Records one pass/fail line per acceptance criterion, shown in the
    terminal summary, then enforces the verdict."""
    def record(number: int, name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        _ACCEPTANCE_LINES.append(f"criterion {number} {name}: {verdict} ({detail})")
        assert ok, f"criterion {number} {name}: {detail}"
    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
