import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np


def dense(links) -> np.ndarray:
    """The int64 0/1 matrix that a ``Links`` stands for."""
    matrix = np.zeros(links.shape, dtype=np.int64)
    matrix[links.rows, links.cols] = 1
    return matrix


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def tree_digest(root: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of a file or directory.

    A meta.json counts without its ``config_hash``: that hash covers the tags of
    every stage upstream, so keeping it would move every downstream pin when
    one stage's tag is bumped. report.json is hashed whole.
    """
    h = hashlib.sha256()
    paths = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
    for path in paths:
        data = path.read_bytes()
        if path.name == "meta.json":
            meta = json.loads(data)
            del meta["config_hash"]
            data = json.dumps(meta, sort_keys=True).encode()
        h.update(f"{path.relative_to(root.parent).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


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
