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
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property, reduce
from pathlib import Path
from typing import Iterable, NamedTuple
from urllib.parse import urlsplit

import numpy as np
from scipy import sparse

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
    """Deduplicated user-URL-publisher interactions plus the share events behind them.

    ``interactions`` is a set of (user_id, url, publisher) triples, one per
    distinct (user, url) pair. ``share_events`` keeps post multiplicity: the
    canonical URL of each share event, one per post and canonical URL. Only
    its count per URL is read, and a reused ingest lists it sorted. Nothing
    changes a corpus once it is built, so each grouping below is derived
    from ``interactions`` once, on first use:

    * ``users``, ``articles`` and ``publishers``: the distinct ids;
    * ``url_publisher``: URL -> its publisher;
    * ``user_urls``: user -> the URLs they shared;
    * ``user_publishers``: user -> the publishers they shared; its size is
      the user's information diet;
    * ``index``: the same links as sparse matrices (``CorpusIndex``).
    """

    interactions: set[tuple[str, str, str]]
    share_events: list[str]
    skipped_urls: int = 0

    @cached_property
    def users(self) -> frozenset[str]:
        return frozenset(u for u, _, _ in self.interactions)

    @cached_property
    def url_publisher(self) -> dict[str, str]:
        return {url: pub for _, url, pub in self.interactions}

    @cached_property
    def articles(self) -> frozenset[str]:
        return frozenset(self.url_publisher)

    @cached_property
    def publishers(self) -> frozenset[str]:
        return frozenset(self.url_publisher.values())

    @cached_property
    def user_urls(self) -> dict[str, frozenset[str]]:
        return _group((user, url) for user, url, _ in self.interactions)

    @cached_property
    def user_publishers(self) -> dict[str, frozenset[str]]:
        return _group((user, pub) for user, _, pub in self.interactions)

    @cached_property
    def index(self) -> "CorpusIndex":
        users, urls, a = incidence({(user, url) for user, url, _ in self.interactions})
        column = {p: k for k, p in enumerate(sorted(self.publishers))}
        codes = np.array([column[self.url_publisher[url]] for url in urls], dtype=np.int64)
        b = (a @ sparse.csr_matrix((np.ones_like(codes), (np.arange(len(urls)), codes)),
                                   shape=(len(urls), len(column)))).sign().sorted_indices()
        return CorpusIndex(users, urls, tuple(column), a, codes, b, b.T.tocsr(),
                           {u: i for i, u in enumerate(users)})


@dataclass(frozen=True)
class CorpusIndex:
    """A corpus's links as binary int64 CSR matrices over sorted ids, so no count wraps.

    A = ``user_urls`` (users × URLs), B = ``user_publishers`` (users ×
    publishers), Bᵀ = ``publisher_users``; ``url_publisher[j]`` is URL j's
    column in B. Each row's column indices ascend, so a product with a dense
    float vector adds a row's terms in ascending column order, from 0.0.
    """

    users: tuple[str, ...]
    urls: tuple[str, ...]
    publishers: tuple[str, ...]
    user_urls: sparse.csr_matrix
    url_publisher: np.ndarray
    user_publishers: sparse.csr_matrix
    publisher_users: sparse.csr_matrix
    user_row: dict[str, int]


def incidence(pairs: set[tuple[str, str]]) -> tuple[tuple, tuple, sparse.csr_matrix]:
    """Sorted row ids, sorted column ids and the binary int64 CSR of the distinct pairs."""
    rows = tuple(sorted({r for r, _ in pairs}))
    cols = tuple(sorted({c for _, c in pairs}))
    ridx = {r: i for i, r in enumerate(rows)}
    cidx = {c: j for j, c in enumerate(cols)}
    i = np.fromiter((ridx[r] for r, _ in pairs), dtype=np.int64, count=len(pairs))
    j = np.fromiter((cidx[c] for _, c in pairs), dtype=np.int64, count=len(pairs))
    return rows, cols, sparse.csr_matrix((np.ones_like(i), (i, j)), shape=(len(rows), len(cols)))


def fold_sum(values: Iterable[float]) -> float:
    """Float sum, added left to right; every float sum that reaches an artifact uses it.

    The built-in ``sum`` of floats is compensated from Python 3.12 on, so its
    last digits, and the artifact bytes, would depend on the interpreter.
    """
    return reduce(operator.add, values, 0.0)


def _group(pairs: Iterable[tuple[str, str]]) -> dict[str, frozenset[str]]:
    groups: dict[str, set[str]] = {}
    for key, value in pairs:
        groups.setdefault(key, set()).add(value)
    return {key: frozenset(values) for key, values in groups.items()}


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


def extract_domain(url: str) -> str | None:
    """Publisher domain of an absolute URL, or None if the URL has no host."""
    parts = _url_parts(url)
    return parts[1] if parts else None


def canonical_url(url: str) -> str | None:
    """Canonical article identity: scheme + normalized host + path, or None."""
    parts = _url_parts(url)
    return parts[0] if parts else None


def load_posts(path: str | Path) -> tuple[list[RawPost], int]:
    """Read a JSON Lines posts file; a leading UTF-8 byte-order mark is skipped.

    Returns (posts, n_malformed). Malformed lines (bytes that are not UTF-8,
    bad JSON, missing or mistyped fields, duplicate post_id) are skipped and
    counted: each is logged at DEBUG, their count once per file at WARNING.
    Each stripped line is decoded once; text after its JSON value makes it
    unparseable, as ``json.loads`` would. An unreadable file raises OSError.
    """
    posts: list[RawPost] = []
    seen_ids: set[str] = set()
    malformed = 0
    decode = json.JSONDecoder().raw_decode
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")  # a byte that is not UTF-8 is a lone surrogate here
                obj, end = decode(line)
            except (UnicodeEncodeError, json.JSONDecodeError):
                end = -1
            if end != len(line):
                malformed += 1
                log.debug("%s:%d: unparseable record skipped", path, lineno)
                continue
            if not isinstance(obj, dict):
                obj = {}  # no post_id: malformed
            post_id, user_id, timestamp, urls, kind = map(obj.get, RawPost._fields)
            if (not isinstance(post_id, str) or not post_id
                    or not isinstance(user_id, str) or not user_id
                    or not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool)
                    or not isinstance(urls, list) or not all(isinstance(u, str) for u in urls)
                    or kind not in POST_KINDS
                    or post_id in seen_ids):
                malformed += 1
                log.debug("%s:%d: malformed or duplicate record skipped", path, lineno)
                continue
            seen_ids.add(post_id)
            posts.append(RawPost(post_id, user_id, float(timestamp), tuple(urls), kind))
    if malformed:
        log.warning("%s: skipped %d malformed records", path, malformed)
    return posts, malformed


def build_corpus(posts: Iterable[RawPost]) -> Corpus:
    """Assemble the interaction corpus from parsed posts.

    Interactions are deduplicated on (user, url); share events keep post
    multiplicity, one event per post and canonical URL. Only posts of a kind
    in ``DEFAULT_INCLUDE_KINDS`` contribute.
    A URL without a scheme and host is skipped and counted in ``skipped_urls``.
    Raw URLs that differ only in query or fragment share one split (``_split_key``).
    """
    interactions: set[tuple[str, str, str]] = set()
    share_events: list[str] = []
    skipped = 0
    split = cache(_url_parts)
    url_parts = cache(lambda raw: split(_split_key(raw)))  # one cut per distinct raw URL
    for post in posts:
        if post.kind not in DEFAULT_INCLUDE_KINDS:
            continue
        seen: set[str] = set()  # canonical URLs of this post
        for raw_url in post.urls:
            parts = url_parts(raw_url)
            if parts is None:
                skipped += 1
                continue
            url, domain = parts
            if url in seen:
                continue
            seen.add(url)
            interactions.add((post.user_id, url, domain))
            share_events.append(url)
    return Corpus(interactions=interactions, share_events=share_events, skipped_urls=skipped)


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

