"""Synthetic planted corpora for tests and demos.

Two user blocks, two publisher pools. Each user follows a random subset of
the publishers in their own pool and shares their articles often; articles
from the other pool are shared rarely. The marginal probability that a user
shares a given in-pool URL is exactly ``p_in`` (and ``p_out`` cross-pool),
but follow-concentration makes same-publisher URL pairs co-occur far more
than independent sharing at the same marginals would, which is what the
validation stage is built to detect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: inclusive KB score ranges of the two publisher pools
SCORE_RANGE_HIGH = (70, 95)
SCORE_RANGE_LOW = (10, 50)


@dataclass
class SyntheticSpec:
    users_per_block: int = 200
    publishers_per_pool: int = 15
    urls_per_publisher: int = 10
    p_in: float = 0.05
    p_out: float = 0.005
    unc_fraction: float = 0.2
    seed: int = 7
    publisher_focus: float = 0.2

    def validate(self) -> None:
        if not self.p_in > self.p_out >= 0:
            raise ValueError("need p_in > p_out >= 0")
        if not 0 < self.publisher_focus <= 1:
            raise ValueError("publisher_focus must lie in (0, 1]")
        if self.p_in > self.publisher_focus:
            raise ValueError("p_in cannot exceed publisher_focus")
        if not 0 <= self.unc_fraction <= 1:
            raise ValueError("unc_fraction must lie in [0, 1]")


def _publisher_domain(index: int) -> str:
    return f"pub{index:02d}.example"


def _url(publisher: int, article: int) -> str:
    return f"https://{_publisher_domain(publisher)}/article-{article:03d}"


def generate_synthetic(
    spec: SyntheticSpec, posts_path: str | Path, kb_path: str | Path
) -> tuple[Path, Path]:
    """Write a posts JSONL file and a knowledge-base CSV; reproducible per seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n_pool = spec.publishers_per_pool
    n_pub = 2 * n_pool
    lo_h, hi_h = SCORE_RANGE_HIGH
    lo_l, hi_l = SCORE_RANGE_LOW
    scores = np.concatenate([
        rng.integers(lo_h, hi_h + 1, size=n_pool),
        rng.integers(lo_l, hi_l + 1, size=n_pool),
    ])
    n_unc = int(round(spec.unc_fraction * n_pool))
    unc: set[int] = set()
    for pool in (0, 1):
        pool_ids = np.arange(pool * n_pool, (pool + 1) * n_pool)
        unc.update(int(i) for i in rng.choice(pool_ids, size=n_unc, replace=False))

    share_prob = spec.p_in / spec.publisher_focus
    n_users = 2 * spec.users_per_block
    posts = []
    for user in range(n_users):
        block = 0 if user < spec.users_per_block else 1
        own = np.arange(block * n_pool, (block + 1) * n_pool)
        other = np.arange((1 - block) * n_pool, (2 - block) * n_pool)
        followed = own[rng.random(n_pool) < spec.publisher_focus]
        for pub in followed:
            hits = np.where(rng.random(spec.urls_per_publisher) < share_prob)[0]
            for article in hits:
                posts.append((user, int(pub), int(article)))
        for pub in other:
            hits = np.where(rng.random(spec.urls_per_publisher) < spec.p_out)[0]
            for article in hits:
                posts.append((user, int(pub), int(article)))

    posts_path = Path(posts_path)
    kb_path = Path(kb_path)
    with open(posts_path, "w", encoding="utf-8") as fh:
        for i, (user, pub, article) in enumerate(posts):
            record = {
                "post_id": f"p{i:07d}",
                "user_id": f"u{user:04d}",
                "timestamp": 1_700_000_000 + i,
                "urls": [_url(pub, article)],
                "kind": "original",
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    with open(kb_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("domain,score\n")
        for pub in range(n_pub):
            score = "" if pub in unc else str(int(scores[pub]))
            fh.write(f"{_publisher_domain(pub)},{score}\n")
    return posts_path, kb_path
