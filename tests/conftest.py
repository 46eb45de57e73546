import re

import pytest

from matzero import charpoly, harness


@pytest.fixture
def fresh_root_memo():
    """An empty root-analysis memo, so a test that counts the work of
    the root layer sees it done rather than read back from the memo.
    The bound suites' charpoly memo is emptied too, since its entries
    keep verdicts and brackets that would skip the root layer."""
    charpoly._ROOT_MEMO.clear()
    harness._CHARPOLY_MEMO.clear()
    yield charpoly._ROOT_MEMO
    charpoly._ROOT_MEMO.clear()
    harness._CHARPOLY_MEMO.clear()


@pytest.fixture
def fresh_charpoly_memo():
    """An empty whole-instance charpoly memo of the bound suites, so a
    test that counts engine calls sees them made rather than read back
    from the memo."""
    harness._CHARPOLY_MEMO.clear()
    yield harness._CHARPOLY_MEMO
    harness._CHARPOLY_MEMO.clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion at the end."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            m = re.search(r"test_criterion_(\d+)", nodeid)
            if not m:
                continue
            name = nodeid.split("::")[-1]
            rows[int(m.group(1))] = (name, "PASS" if outcome == "passed" else "FAIL")
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(rows):
            name, verdict = rows[num]
            terminalreporter.write_line(f"{verdict}  criterion {num:2d}  {name}")
