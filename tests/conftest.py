import tracemalloc


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in report.nodeid and report.when == "call":
                name = report.nodeid.split("::")[-1]
                lines.append((name, outcome.upper()))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(lines):
            terminalreporter.write_line(f"{outcome:<7} {name}")
