"""Long-tail corpus generator, independent of ``trustnet.synth``.

The news landscape (stories, their publishers and the publishers' scores) is
fixed by ``world_seed``; the run seed draws the users and their posts. Users
belong to planted communities, each reading the stories of its own small set
of publishers. Activity is heavy-tailed and story popularity follows a Zipf
law. Each kept link is posted again through retweets and replies under other
spellings of the same URL. The file also carries quote posts, malformed lines
and unparseable URL strings. The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class LongtailSpec:
    users: int = 1000
    communities: int = 8
    publishers_per_community: int = 6
    stories: int = 600
    max_story_size: int = 6
    story_share: float = 0.55
    activity_shape: float = 1.5
    activity_scale: float = 2.6
    max_stories: int = 20
    zipf_exponent: float = 0.7
    in_community: float = 0.85
    reposts_mean: float = 2.4
    quote_share: float = 0.05
    malformed_share: float = 0.01
    unparseable_share: float = 0.005
    unc_share: float = 0.2
    world_seed: int = 2024  # stories, publishers and scores; the run seed draws the users


def _domain(pub: int) -> str:
    return f"outlet{pub:02d}.example"


def _variant(rng: np.random.Generator, domain: str, path: str) -> str:
    """One spelling of https://<domain><path>; ingest maps all to one URL."""
    host = domain
    if rng.random() < 0.3:
        host = "www." + host
    if rng.random() < 0.15:
        host = host.upper()
    if rng.random() < 0.1:
        host += ":443"
    url = f"https://{host}{path}"
    if rng.random() < 0.3:
        url += f"?utm_source=feed&ref={int(rng.integers(1000))}"
    if rng.random() < 0.1:
        url += f"#c{int(rng.integers(100))}"
    return url


_UNPARSEABLE = ("not a url", "https://", "http://[bad-host/x", "mailto:desk", "www.no-scheme.example/a")

_MALFORMED = (
    lambda rec: json.dumps(rec, sort_keys=True)[:-7],
    lambda rec: json.dumps({k: v for k, v in rec.items() if k != "user_id"}, sort_keys=True),
    lambda rec: json.dumps({**rec, "kind": "like"}, sort_keys=True),
    lambda rec: json.dumps({**rec, "timestamp": "yesterday"}, sort_keys=True),
    lambda rec: json.dumps({**rec, "urls": "https://outlet00.example/a"}, sort_keys=True),
)


def generate_longtail(spec: LongtailSpec, seed: int, posts_path: str | Path, kb_path: str | Path) -> None:
    """Write a posts JSONL file and a ``domain,score`` knowledge base."""
    world = np.random.default_rng(spec.world_seed)
    rng = np.random.default_rng(seed)
    n_comm = spec.communities
    per_comm = spec.publishers_per_community
    n_pub = n_comm * per_comm

    # a story is a few articles on one event from the publishers of one
    # community; readers of a story share several of its articles
    story_comm = np.arange(spec.stories) % n_comm
    rank = world.permutation(spec.stories)
    story_weight = (1.0 + rank) ** -spec.zipf_exponent
    pub_weight = np.arange(1, per_comm + 1) ** -spec.zipf_exponent
    pub_weight /= pub_weight.sum()
    # the most popular stories are the largest, so the most co-shared URL pairs
    # (and the cost of their tails) come from the same stories for every seed
    sizes = spec.max_story_size - rank % spec.max_story_size
    story_urls: list[np.ndarray] = []
    url_pub: list[int] = []
    paths: list[str] = []
    for s in range(spec.stories):
        size = int(sizes[s])
        pubs = story_comm[s] * per_comm + world.choice(per_comm, size=size, p=pub_weight)
        story_urls.append(np.arange(len(url_pub), len(url_pub) + size))
        for j, pub in enumerate(pubs):
            url_pub.append(int(pub))
            paths.append(f"/{('world', 'politics', 'health', 'tech')[s % 4]}/story-{s:04d}-{j}")

    # activity: stratified quantiles of a Lomax law, so every seed has the same tail
    quantile = (np.arange(spec.users) + 0.5) / spec.users
    lomax = (1.0 - quantile) ** (-1.0 / spec.activity_shape) - 1.0
    activity = rng.permutation(np.minimum(1 + (lomax * spec.activity_scale).astype(int), spec.max_stories))

    links: list[tuple[int, int]] = []
    for user in range(spec.users):
        own = np.where(story_comm == user % n_comm, story_weight, 0.0)
        other = story_weight - own
        probs = spec.in_community * own / own.sum() + (1 - spec.in_community) * other / other.sum()
        for s in rng.choice(spec.stories, size=activity[user], replace=False, p=probs):
            urls = story_urls[s]
            keep = rng.random(urls.size) < spec.story_share
            keep[int(rng.integers(urls.size))] = True
            links.extend((user, int(u)) for u in urls[keep])
    n_urls = len(url_pub)

    records: list[tuple[int, int, str]] = []
    for user, url in links:
        n_posts = 1 + int(rng.poisson(spec.reposts_mean))
        for j in range(n_posts):
            kind = "original" if j == 0 else ("retweet", "reply")[int(rng.integers(2))]
            records.append((user, url, kind))
    n_quotes = int(round(spec.quote_share * len(records) / (1 - spec.quote_share)))
    for _ in range(n_quotes):
        records.append((int(rng.integers(spec.users)), int(rng.integers(n_urls)), "quote"))
    order = rng.permutation(len(records))

    lines: list[str] = []
    for i, r in enumerate(order):
        user, url, kind = records[r]
        urls = [_variant(rng, _domain(url_pub[url]), paths[url])]
        if rng.random() < spec.unparseable_share:
            urls.append(_UNPARSEABLE[int(rng.integers(len(_UNPARSEABLE)))])
        rec = {
            "kind": kind,
            "post_id": f"t{i:07d}",
            "timestamp": 1_690_000_000 + 37 * i,
            "urls": urls,
            "user_id": f"user{user:04d}",
        }
        lines.append(json.dumps(rec, sort_keys=True))
        if rng.random() < spec.malformed_share:
            if rng.random() < 0.2:
                lines.append(lines[int(rng.integers(len(lines)))])  # duplicate post_id
            else:
                bad = _MALFORMED[int(rng.integers(len(_MALFORMED)))]
                lines.append(bad({**rec, "post_id": f"t{i:07d}x"}))

    with open(posts_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    trusted = np.arange(n_comm) < n_comm // 2
    with open(kb_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("domain,score\n")
        for pub in range(n_pub):
            if world.random() < spec.unc_share:
                score = ""
            elif trusted[pub // per_comm]:
                score = str(int(world.integers(62, 96)))
            else:
                score = str(int(world.integers(8, 56)))
            name = _domain(pub)
            fh.write(f"{'WWW.' + name.upper() if pub % 7 == 3 else name},{score}\n")
