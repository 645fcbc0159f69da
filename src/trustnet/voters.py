"""Voter selection and endogenous characterization.

Voters are the users enlisted to score publishers. The four strategies
differ in who votes (Discussion Supporters, their complement, or everyone)
and in which of their shared articles feed the characterization value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ingest import Corpus, KnowledgeBase
from .projection import ValidatedNetwork


class StrategyKind(str, Enum):
    DS_URL_NEC = "DS-URL-NEC"
    DS_ALL = "DS-ALL"
    DS_ALL_WO_USR_NEC = "DS-ALL-WO-USR-NEC"
    USERS_ALL = "USERS-ALL"


ALL_STRATEGIES = tuple(StrategyKind)


@dataclass
class VoterProfile:
    user_id: str
    n_articles: int  # articles feeding ``value``
    value: float | None
    diet: int


def _validated_shares(corpus: Corpus, validated: ValidatedNetwork) -> np.ndarray:
    """A·m over ``corpus.users``: each user's validated URLs, with A the user × URL
    matrix and m the network's ``url_mask``; the users with any are the discussion supporters."""
    if validated.urls != corpus.urls:
        raise ValueError("the validated network's URLs are not the corpus's URLs in its order")
    return corpus.user_urls @ validated.url_mask


def discussion_supporters(corpus: Corpus, validated: ValidatedNetwork) -> set[str]:
    """Users who shared a URL of the validated network."""
    return {corpus.users[i] for i in np.flatnonzero(_validated_shares(corpus, validated)).tolist()}


def build_voter_profiles(
    strategy: StrategyKind,
    corpus: Corpus,
    validated: ValidatedNetwork,
    kb: KnowledgeBase,
) -> list[VoterProfile]:
    """Profiles for every voter of the strategy, sorted by user id.

    Voters whose article set is empty are dropped; voters whose articles are
    all unclassified keep a profile with value None (they are excluded again
    before classification). A voter's diet counts the distinct publishers
    they shared over the whole corpus.

    With A the corpus's user × URL matrix and m marking the URLs
    that feed a value (the validated ones for DS-URL-NEC, else all),
    ``n_articles`` is A·m and the value (A·s)/(A·k): k marks m's scored URLs,
    s holds their int KB scores, so each distinct article counts once, an
    unclassified one on neither side, and the sums are exact integers. The
    diet is the link count of the user's column of Bᵀ, the publisher × user matrix.
    """
    a = corpus.user_urls
    n_validated, nec = _validated_shares(corpus, validated), strategy is StrategyKind.DS_URL_NEC
    used = validated.url_mask if nec else np.ones_like(validated.url_mask)
    n_articles = n_validated if nec else np.bincount(a.rows, minlength=a.shape[0])  # A·m or A·1
    score = np.array([kb.score(p) for p in corpus.domains], dtype=float)
    scored = used & ~np.isnan(score)
    s = np.where(scored, score, 0.0).astype(np.int64)
    n_articles, total, n_scored = n_articles.tolist(), (a @ s).tolist(), (a @ scored).tolist()
    diet = np.bincount(corpus.publisher_users.cols, minlength=len(corpus.users))
    supporter = n_validated > 0
    voter = {StrategyKind.USERS_ALL: np.ones_like(supporter),
             StrategyKind.DS_ALL_WO_USR_NEC: ~supporter}.get(strategy, supporter)
    rows = zip(corpus.users, voter.tolist(), n_articles, total, n_scored, diet.tolist())
    return [VoterProfile(u, n, t / k if k else None, d)
            for u, keep, n, t, k, d in rows if keep and n]


def characterize(voter: str, strategy: StrategyKind, corpus: Corpus,
                 validated: ValidatedNetwork, kb: KnowledgeBase) -> float | None:
    """The voter's DS-URL-NEC profile value under DS-URL-NEC, else their USERS-ALL one
    (the other strategies value a voter by all they shared); None without a profile."""
    kind = strategy if strategy is StrategyKind.DS_URL_NEC else StrategyKind.USERS_ALL
    profiles = build_voter_profiles(kind, corpus, validated, kb)
    return next((v.value for v in profiles if v.user_id == voter), None)


def filter_min_publishers(
    voters: list[VoterProfile], theta: int
) -> list[VoterProfile]:
    """Keep voters whose information diet spans at least theta publishers."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    return [v for v in voters if v.diet >= theta]
