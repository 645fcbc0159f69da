"""Post parsing, URL/domain normalization, corpus assembly and the trust knowledge base.

Input formats:
  * posts: JSON Lines, one object per line with fields
    ``post_id``, ``user_id``, ``timestamp``, ``urls`` (array), ``kind``
  * knowledge base: CSV ``domain,score`` with a header row; an empty score
    marks the domain as unclassified (UNC)
"""

from __future__ import annotations

import csv
import json
import logging
import operator
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property, reduce
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence
from urllib.parse import urlsplit

import numpy as np

log = logging.getLogger(__name__)

POST_KINDS = ("original", "retweet", "quote", "reply")

#: Post kinds that enter the corpus. Quotes are excluded: the stance of a
#: quoted URL is ambiguous without reading the added commentary.
DEFAULT_INCLUDE_KINDS = frozenset({"original", "retweet", "reply"})


class Label(str, Enum):
    """Trust label derived from a knowledge-base score."""

    T = "T"
    N = "N"
    UNC = "UNC"


class RawPost(NamedTuple):
    post_id: str
    user_id: str
    timestamp: float
    urls: tuple[str, ...]
    kind: str


@dataclass(frozen=True)
class ShareTable:
    """The kept posts' share events as codes; ``len`` is the number of posts kept.

    ``users`` and ``urls`` are the share events' distinct user ids and canonical URLs, first
    seen first; URL code c's publisher is ``domains[c]``. Event k is (``event_user[k]``,
    ``event_url[k]``) as int64 codes, and ``skipped`` counts the URLs that had no host.
    """

    users: list[str]
    urls: list[str]
    domains: list[str]
    event_user: np.ndarray
    event_url: np.ndarray
    skipped: int
    n_posts: int

    def __len__(self) -> int:
        return self.n_posts


class KnowledgeBaseError(ValueError):
    """Raised for fatally malformed knowledge-base files."""


@dataclass
class KnowledgeBase:
    """Domain -> trust score map. Domains absent from ``scores`` are UNC."""

    scores: dict[str, int] = field(default_factory=dict)

    def score(self, domain: str) -> int | None:
        return self.scores.get(domain)

    def label(self, domain: str) -> Label:
        score = self.scores.get(domain)
        if score is None:
            return Label.UNC
        return Label.T if score >= 60 else Label.N


@dataclass(frozen=True)
class Corpus:
    """Deduplicated user-URL links as read-only int64 code arrays, plus each URL's share count.

    ``users`` and ``urls`` are the sorted distinct ids; URL j's publisher is
    ``domains[j]`` and its share events (one per post and canonical URL) number
    ``shares[j]``. Link k joins ``users[link_user[k]]`` to ``urls[link_url[k]]``,
    one per distinct pair, in ascending (user, URL) order: ``sorted(interactions)``.
    Nothing changes a corpus once it is built, so each grouping below is derived once:

    * ``index``: the links as binary matrices (``CorpusIndex``), which the stages read;
    * ``interactions``: the (user_id, url, publisher) triples; ``share_events``:
      each share event's URL, sorted; ``articles``, ``publishers``: the distinct ids;
    * ``url_publisher``: URL -> its publisher.
    """

    users: tuple[str, ...]
    urls: tuple[str, ...]
    domains: tuple[str, ...]
    link_user: np.ndarray
    link_url: np.ndarray
    shares: np.ndarray
    skipped_urls: int = 0

    def __post_init__(self):
        for array in (self.link_user, self.link_url, self.shares):
            array.flags.writeable = False

    @classmethod
    def from_codes(cls, users: Sequence[str], urls: Sequence[str], domains: Sequence[str],
                   user_codes, url_codes, shares, skipped_urls: int = 0) -> "Corpus":
        """Links (users[user_codes[k]], urls[url_codes[k]]), repeated and in any order, over
        distinct ids in any order; URL code c has publisher ``domains[c]``, ``shares[c]`` shares."""
        (user_ids, user_rank), (url_ids, url_rank) = _ranks(users), _ranks(urls)
        order = np.argsort(url_rank)  # the URL code of each rank
        pairs = unique(user_rank.take(user_codes) * len(url_ids) + url_rank.take(url_codes))
        return cls(user_ids, url_ids, tuple(_take(domains, order)), pairs // len(url_ids),
                   pairs % len(url_ids), np.asarray(shares, dtype=np.int64)[order], skipped_urls)

    def link_rows(self) -> Iterator[tuple[str, str, str]]:
        """(user_id, url, publisher) per link, in link order: ``sorted(interactions)``."""
        return zip(_take(self.users, self.link_user), _take(self.urls, self.link_url),
                   _take(self.domains, self.link_url))

    @cached_property
    def interactions(self) -> set[tuple[str, str, str]]:
        return set(self.link_rows())

    @cached_property
    def share_events(self) -> list[str]:
        return _take(self.urls, np.repeat(np.arange(len(self.urls)), self.shares))

    @cached_property
    def url_publisher(self) -> dict[str, str]:
        return dict(zip(self.urls, self.domains))

    @cached_property
    def articles(self) -> frozenset[str]:
        return frozenset(self.urls)

    @cached_property
    def publishers(self) -> frozenset[str]:
        return frozenset(self.domains)

    @cached_property
    def index(self) -> "CorpusIndex":
        publishers, codes = _ranks(self.domains)
        codes.flags.writeable = False
        n_users, n = len(self.users), len(publishers)
        pairs = unique(self.link_user * n + codes[self.link_url])
        a = Links(self.link_user, self.link_url, (n_users, len(self.urls)))
        b = Links(pairs // n, pairs % n, (n_users, n))
        by_publisher = np.argsort(b.cols, kind="stable")  # (publisher, user) order
        bt = Links(b.cols[by_publisher], b.rows[by_publisher], (n, n_users))
        return CorpusIndex(self.users, self.urls, publishers, a, codes, b, bt,
                           {u: i for i, u in enumerate(self.users)})


@dataclass(frozen=True, eq=False)
class Links:
    """A binary matrix of ``shape``: 1 at each (rows[k], cols[k]), distinct and ascending.

    ``rows`` and ``cols`` are read-only int64. ``links @ x`` takes a dense 1-D
    or 2-D ``x``: exact int64 sums for a bool or integer ``x``; for a float
    ``x``, each row's terms added in link order from +0.0, as a CSR product
    adds them, so every bit matches.
    """

    rows: np.ndarray
    cols: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        self.rows.flags.writeable = self.cols.flags.writeable = False

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows with a link, and the position of each one's first link."""
        starts = np.flatnonzero(np.diff(self.rows, prepend=-1))
        return self.rows[starts], starts

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x, filled, starts = np.asarray(x), *self._segments
        exact = x.dtype.kind != "f"  # integer sums are exact in any order
        out = np.zeros((self.shape[0], *x.shape[1:]), dtype=np.int64 if exact else np.float64)
        if exact:
            terms = (x.view(np.int8) if x.dtype == bool else x).take(self.cols, axis=0)
            out[filled] = np.add.reduceat(terms, starts, dtype=np.int64)
        elif x.ndim == 1 or x.shape[1] == 1:  # np.bincount adds each bin's terms in turn
            out.flat = np.bincount(self.rows, x.reshape(-1).take(self.cols), minlength=len(out))
        else:  # down axis 0 of a C-ordered block numpy adds one row at a time, not pairwise
            for row, lo, hi in zip(filled.tolist(), starts.tolist(), [*starts[1:].tolist(), None]):
                np.add.reduce(x.take(self.cols[lo:hi], axis=0), axis=0, out=out[row], initial=0.0)
        return out


@dataclass(frozen=True)
class CorpusIndex:
    """A corpus's links as binary ``Links`` matrices over sorted ids: A = ``user_urls``
    (users × URLs), B = ``user_publishers`` (users × publishers), Bᵀ = ``publisher_users``;
    ``url_publisher[j]`` is URL j's column in B. Every array is read-only.
    """

    users: tuple[str, ...]
    urls: tuple[str, ...]
    publishers: tuple[str, ...]
    user_urls: Links
    url_publisher: np.ndarray
    user_publishers: Links
    publisher_users: Links
    user_row: dict[str, int]


def _ranks(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct values sorted, and the rank of each value among them."""
    ids = tuple(sorted(set(values)))
    rank = {v: r for r, v in enumerate(ids)}
    return ids, np.fromiter(map(rank.__getitem__, values), dtype=np.int64, count=len(values))


def _take(ids: Sequence[str], codes: np.ndarray) -> list[str]:
    return np.array(ids, dtype=object)[codes].tolist()


def incidence(rows: Sequence[str], cols: Sequence[str]) -> tuple[tuple, tuple, Links]:
    """Sorted row ids, sorted column ids and the ``Links`` of the distinct (rows[k], cols[k])."""
    (row_ids, i), (col_ids, j) = _ranks(rows), _ranks(cols)
    pairs = unique(i * len(col_ids) + j)
    return row_ids, col_ids, Links(pairs // len(col_ids), pairs % len(col_ids),
                                   (len(row_ids), len(col_ids)))


def unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by sorting: numpy 2.4 sends a bare ``np.unique`` down a slower hash."""
    return np.unique(keys, return_counts=True)[0]


def fold_sum(values: Iterable[float]) -> float:
    """Float sum, added left to right; every float sum that reaches an artifact uses it.

    The built-in ``sum`` of floats is compensated from Python 3.12 on, so its
    last digits, and the artifact bytes, would depend on the interpreter.
    """
    return reduce(operator.add, values, 0.0)


def _normalize_host(host: str) -> str:
    """A publisher domain: the host lowercased, without surrounding dots and one leading ``www.``."""
    host = host.lower().strip(".")
    return host[len("www."):] if host.startswith("www.") else host


def _url_parts(url: str) -> tuple[str, str] | None:
    """(canonical URL, publisher domain) of an absolute URL, or None if it has no host.

    The one place a URL is split. The domain is the host without port, normalized
    by ``_normalize_host``. The canonical URL is scheme + domain + path: query
    string, fragment, userinfo and port are dropped.
    """
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    host = parts.hostname
    if not parts.scheme or not host:
        return None
    host = _normalize_host(host)
    if not host:
        return None
    return f"{parts.scheme.lower()}://{host}{parts.path}", host


def _split_key(url: str) -> str:
    """``url`` cut before its first ``?`` or ``#``: ``_url_parts`` gives both the same.

    ``urlsplit`` ends the host at the first of ``/?#`` and the path at the first
    of ``?#``; the query and fragment after them reach no part.
    """
    return url.partition("#")[0].partition("?")[0]


def _host_prefix(key: str) -> tuple[str, str]:
    """(host prefix, path) of a key: its ``_url_parts`` are the prefix's, ``path`` appended."""
    cut = key.find("/", key.find(":") + 3)  # urlsplit's host ends here, past "//" after the ":"
    if cut < 0 or key[0] <= " " or not key.isprintable():  # urlsplit strips or edits these first
        return key, ""
    return key[:cut], key[cut:]


def extract_domain(url: str) -> str | None:
    """Publisher domain of an absolute URL, or None if the URL has no host."""
    parts = _url_parts(url)
    return parts[1] if parts else None


def canonical_url(url: str) -> str | None:
    """Canonical article identity: scheme + normalized host + path, or None."""
    parts = _url_parts(url)
    return parts[0] if parts else None


def _records(path: str | Path, malformed: list[int]) -> Iterator[tuple]:
    """Each well-formed post of a JSON Lines file as its checked (post_id, user_id, timestamp,
    urls, kind) tuple, in file order; the one line validator. A leading UTF-8 byte-order mark is
    skipped. Malformed lines (bytes that are not UTF-8, bad JSON or JSON too long or too deep to
    parse, missing or mistyped fields, a timestamp beyond float range, a lone surrogate in an id
    or URL, a carriage return in a user_id, duplicate post_id) are skipped and added to
    ``malformed[0]``: each is logged at DEBUG, their count once per file at WARNING. Each
    stripped line is decoded once; text after its JSON value makes it unparseable, as
    ``json.loads`` would. An unreadable file raises OSError.
    """
    seen_ids: set[str] = set()
    decode = json.JSONDecoder().raw_decode
    fields = operator.itemgetter(*RawPost._fields)
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")  # a byte that is not UTF-8 is a lone surrogate here
                obj, end = decode(line)
            except (ValueError, RecursionError):  # UnicodeEncodeError, JSONDecodeError among them
                end = -1
            if end != len(line):
                malformed[0] += 1
                log.debug("%s:%d: unparseable record skipped", path, lineno)
                continue
            try:  # not an object or a field missing: KeyError or TypeError
                post_id, user_id, timestamp, urls, kind = record = fields(obj)
                # JSON decodes to exact built-in types only, and type(True) is bool, not int
                if not (type(post_id) is str and post_id and type(user_id) is str and user_id
                        and "\r" not in user_id  # csv.writer leaves it unquoted; a reload splits
                        and type(timestamp) in (int, float) and type(urls) is list
                        and kind in POST_KINDS and post_id not in seen_ids):
                    raise TypeError  # a mistyped or empty field, or a duplicate post_id
                float(timestamp)  # an int beyond float range overflows
                text = "".join(urls)  # a URL that is not a string raises TypeError
                if "\\u" in line:  # an escape may decode to a surrogate, which no CSV holds
                    (post_id + user_id + text).encode("utf-8")
            except (KeyError, TypeError, OverflowError, UnicodeEncodeError):
                malformed[0] += 1
                log.debug("%s:%d: malformed or duplicate record skipped", path, lineno)
                continue
            seen_ids.add(post_id)
            yield record
    if malformed[0]:
        log.warning("%s: skipped %d malformed records", path, malformed[0])


def read_posts(path: str | Path) -> Iterator[RawPost]:
    """The posts ``load_posts`` keeps, as ``RawPost``s in file order."""
    return (RawPost(p, u, float(t), tuple(us), k) for p, u, t, us, k in _records(path, [0]))


def _share_table(posts: Iterable[tuple]) -> ShareTable:
    """The per-post body of every ingest, over ``_records``' tuples: a share event per canonical
    URL of each post whose kind enters the corpus. A raw URL is cut at its ``_split_key``; each key
    is cut once (``_host_prefix``) and each host prefix split once (``_url_parts``)."""
    users, urls, domains = {}, {}, []
    event_user, event_url = array("q"), array("q")
    skipped = n_posts = 0
    split = cache(_url_parts)

    @cache
    def cut(key: str) -> int | None:
        prefix, path = _host_prefix(key)
        if (parts := split(prefix)) is None:
            return None
        code = urls.setdefault(parts[0] + path, len(urls))
        if code == len(domains):  # a new canonical URL
            domains.append(parts[1])
        return code

    for n_posts, (_, user, _, raw_urls, kind) in enumerate(posts, 1):
        if kind not in DEFAULT_INCLUDE_KINDS:
            continue
        seen = set()  # the URL codes of this post
        for raw in raw_urls:
            url = cut(_split_key(raw))
            if url is None:
                skipped += 1
            elif url not in seen:
                seen.add(url)
                event_user.append(users.setdefault(user, len(users)))
                event_url.append(url)
    events = (np.frombuffer(codes, dtype=np.int64) for codes in (event_user, event_url))
    return ShareTable(list(users), list(urls), domains, *events, skipped, n_posts)


def load_posts(path: str | Path) -> tuple[ShareTable, int]:
    """(``ShareTable`` of a JSON Lines posts file, n_malformed), in one pass over its lines
    (``_records``): no post id or raw URL outlives the call."""
    malformed = [0]
    table = _share_table(_records(path, malformed))
    return table, malformed[0]


def build_corpus(posts: ShareTable | Iterable[RawPost]) -> Corpus:
    """Assemble the interaction corpus from ``load_posts``' table or from ``RawPost``s.

    Interactions are deduplicated on (user, url); share events keep post
    multiplicity, one event per post and canonical URL. Only posts of a kind
    in ``DEFAULT_INCLUDE_KINDS`` contribute.
    A URL without a scheme and host is skipped and counted in ``skipped_urls``.
    ``RawPost``s go through ``_share_table`` first, as ``load_posts``' lines do.
    """
    table = posts if isinstance(posts, ShareTable) else _share_table(posts)
    return Corpus.from_codes(table.users, table.urls, table.domains, table.event_user,
                             table.event_url, np.bincount(table.event_url), table.skipped)


def load_knowledge_base(path: str | Path) -> KnowledgeBase:
    """Read the ``domain,score`` CSV (header required, empty score = UNC, BOM skipped).

    Domains are normalized as URL hosts are, so ``WWW.Example.com.`` is
    ``example.com``. A missing domain, a score outside 0..100 or a non-integer
    score is fatal and reports the line number. Duplicate domains resolve
    last-wins with a warning.
    """
    kb = KnowledgeBase()
    unclassified: set[str] = set()
    duplicates = Counter()
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["domain", "score"]:
            raise KnowledgeBaseError(f"{path}: expected header 'domain,score'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            domain = _normalize_host(row[0].strip())
            if not domain:
                raise KnowledgeBaseError(f"{path}:{lineno}: missing domain")
            raw_score = row[1].strip() if len(row) > 1 else ""
            if domain in kb.scores or domain in unclassified:
                duplicates[domain] += 1
            if not raw_score:
                unclassified.add(domain)
                kb.scores.pop(domain, None)
                continue
            try:
                score = int(raw_score)
            except ValueError as exc:
                raise KnowledgeBaseError(
                    f"{path}:{lineno}: score {raw_score!r} is not an integer"
                ) from exc
            if not 0 <= score <= 100:
                raise KnowledgeBaseError(
                    f"{path}:{lineno}: score {score} outside [0, 100]"
                )
            unclassified.discard(domain)
            kb.scores[domain] = score
    for domain, n in sorted(duplicates.items()):
        log.warning("%s: domain %s appeared %d extra times; last row wins", path, domain, n)
    return kb

