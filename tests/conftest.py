import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np

from trustnet import ingest


def dense(links) -> np.ndarray:
    """The int64 0/1 matrix that a ``Links`` stands for."""
    matrix = np.zeros(links.shape, dtype=np.int64)
    matrix[links.rows, links.cols] = 1
    return matrix


def corpus_arrays(corpus):
    """Every id tuple, int64 code array and link matrix of a corpus, as plain values."""
    arrays = (corpus.link_user, corpus.link_url, corpus.shares)
    matrices = (corpus.user_urls, corpus.publisher_users)
    links = tuple(a for m in matrices for a in (m.rows, m.cols))
    assert all(a.dtype == np.int64 for a in arrays + links)
    return ([corpus.users, corpus.urls, corpus.domains, corpus.skipped_urls,
             corpus.publishers, corpus.user_row]
            + [a.tolist() for a in arrays]
            + [(m.shape, m.rows.tolist(), m.cols.tolist()) for m in matrices])


def raw_posts(path):
    """The posts ``load_posts`` keeps, as ``RawPost``s in file order."""
    return (ingest.RawPost(p, u, float(t), tuple(us), k) for p, u, t, us, k
            in ingest._records(path, [0]))


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def write_spelled(src: Path, dst: Path, every: int = 40) -> int:
    """``src``'s posts with each URL in one of four spellings of its article, and after
    every ``every``-th line a malformed one (cut short or a repeated post id).

    Every spelling keeps the scheme and path, and varies ``www.``, case, port,
    query and fragment, so ingest reads the same corpus. Returns the malformed count.
    """
    lines = Path(src).read_text(encoding="utf-8").splitlines()
    out, malformed = [], 0
    for i, line in enumerate(lines):
        post = json.loads(line)
        post["urls"] = [_spelling(url, i + k) for k, url in enumerate(post["urls"])]
        out.append(json.dumps(post, sort_keys=True))
        if i % every == every - 1:
            out.append(out[-1] if i // every % 2 else out[-1][: len(out[-1]) // 2])
            malformed += 1
    Path(dst).write_text("\n".join(out) + "\n", encoding="utf-8")
    return malformed


def _spelling(url: str, i: int) -> str:
    scheme, _, rest = url.partition("://")
    host, slash, path = rest.partition("/")
    path = slash + path
    return (f"{scheme}://{host}{path}",
            f"{scheme}://www.{host}{path}?utm_source=feed&ref={i % 1000}",
            f"{scheme}://{host.upper()}:443{path}#c{i % 100}",
            f"{scheme}://{host}{path}?q={i % 10}#top")[i % 4]


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
