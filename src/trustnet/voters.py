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


def discussion_supporters(corpus: Corpus, validated: ValidatedNetwork) -> set[str]:
    """Users who shared a URL of the validated network: rows of ``corpus.index.user_urls``
    with a link to a validated column."""
    index, a_val = corpus.index, validated.validated_urls()
    in_val = np.array([url in a_val for url in index.urls], dtype=np.int64)
    return {index.users[i] for i in np.flatnonzero(index.user_urls @ in_val).tolist()}


def select_voters(
    strategy: StrategyKind, corpus: Corpus, validated: ValidatedNetwork
) -> set[str]:
    if strategy is StrategyKind.USERS_ALL:
        return set(corpus.users)
    ds = discussion_supporters(corpus, validated)
    if strategy is StrategyKind.DS_ALL_WO_USR_NEC:
        return set(corpus.users) - ds
    return ds


def article_set(
    voter: str,
    strategy: StrategyKind,
    corpus: Corpus,
    validated: ValidatedNetwork,
) -> set[str]:
    """Articles feeding the voter's characterization under the strategy."""
    shared = set(corpus.user_urls.get(voter, ()))
    if strategy is StrategyKind.DS_URL_NEC:
        return shared & validated.validated_urls()
    return shared


def characterize(
    voter: str,
    strategy: StrategyKind,
    corpus: Corpus,
    validated: ValidatedNetwork,
    kb: KnowledgeBase,
) -> float | None:
    """Mean trust score over the voter's scored articles, or None.

    Each distinct article counts once; articles from unclassified publishers
    contribute nothing to either side of the mean.
    """
    articles = article_set(voter, strategy, corpus, validated)
    return _mean_score(articles, corpus, kb)


def _mean_score(articles: set[str], corpus: Corpus, kb: KnowledgeBase) -> float | None:
    scores = [s for url in articles if (s := kb.score(corpus.url_publisher[url])) is not None]
    if not scores:
        return None
    return sum(scores) / len(scores)


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

    With A the user × URL matrix of ``corpus.index`` and m marking the URLs
    that feed a value (the validated ones for DS-URL-NEC, else all),
    ``n_articles`` is A·m and the value (A·s)/(A·k): k marks m's scored URLs,
    s holds their int KB scores, so the sums are exact, as in ``characterize``.
    """
    index, a = corpus.index, corpus.index.user_urls
    a_val = validated.validated_urls()
    in_val = np.array([url in a_val for url in index.urls], dtype=np.int64)
    used = in_val if strategy is StrategyKind.DS_URL_NEC else np.ones_like(in_val)
    score = np.array([kb.score(p) for p in index.publishers], dtype=float)[index.url_publisher]
    scored = used * ~np.isnan(score)
    n_articles, total, n_scored = a @ used, a @ np.where(scored, score, 0.0), a @ scored
    supporter = a @ in_val > 0  # the discussion supporters, as ``select_voters`` picks them
    voter = {StrategyKind.USERS_ALL: np.ones_like(supporter),
             StrategyKind.DS_ALL_WO_USR_NEC: ~supporter}.get(strategy, supporter)
    rows = zip(index.users, voter.tolist(), n_articles.tolist(), total.tolist(),
               n_scored.tolist(), np.diff(index.user_publishers.indptr).tolist())
    return [VoterProfile(u, n, t / k if k else None, d)
            for u, keep, n, t, k, d in rows if keep and n]


def filter_min_publishers(
    voters: list[VoterProfile], theta: int
) -> list[VoterProfile]:
    """Keep voters whose information diet spans at least theta publishers."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    return [v for v in voters if v.diet >= theta]
