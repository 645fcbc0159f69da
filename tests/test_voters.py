import dataclasses

import numpy as np
import pytest

from trustnet import bicm, ingest, projection
from trustnet.ingest import KnowledgeBase, RawPost, build_corpus, load_knowledge_base, load_posts
from trustnet.projection import ValidatedNetwork
from trustnet.synth import SyntheticSpec, generate_synthetic
from trustnet.voters import (
    ALL_STRATEGIES,
    StrategyKind,
    build_voter_profiles,
    characterize,
    discussion_supporters,
    filter_min_publishers,
)


# The set-based voter rule the sparse one replaced, kept as its oracle:
# groupings of ``corpus.interactions``, voter sets and per-voter article sets.

def _group(pairs):
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, set()).add(value)
    return {key: frozenset(values) for key, values in groups.items()}


def user_urls(corpus):
    """user -> the URLs they shared."""
    return _group((user, url) for user, url, _ in corpus.interactions)


def user_publishers(corpus):
    """user -> the publishers they shared, whose count is their diet."""
    return _group((user, pub) for user, _, pub in corpus.interactions)


def select_voters(strategy, corpus, validated):
    if strategy is StrategyKind.USERS_ALL:
        return set(corpus.users)
    ds = {user for user, urls in user_urls(corpus).items() if urls & validated.validated_urls}
    if strategy is StrategyKind.DS_ALL_WO_USR_NEC:
        return set(corpus.users) - ds
    return ds


def article_set(voter, strategy, corpus, validated):
    """Articles feeding the voter's characterization under the strategy."""
    shared = set(user_urls(corpus).get(voter, ()))
    if strategy is StrategyKind.DS_URL_NEC:
        return shared & validated.validated_urls
    return shared


def _mean_score(articles, corpus, kb):
    scores = [s for url in articles if (s := kb.score(corpus.url_publisher[url])) is not None]
    if not scores:
        return None
    return sum(scores) / len(scores)


VAL_A = "https://x.com/val-a"
VAL_B = "https://x.com/val-b"
PLAIN_C = "https://y.com/plain-c"
PLAIN_D = "https://z.com/plain-d"


def fixture_corpus():
    posts = [
        RawPost("p1", "alice", 0.0, (VAL_A, VAL_B, PLAIN_C), "original"),
        RawPost("p2", "bob", 0.0, (VAL_A,), "original"),
        RawPost("p3", "carol", 0.0, (PLAIN_C, PLAIN_D), "original"),
        RawPost("p4", "dan", 0.0, (PLAIN_D,), "retweet"),
    ]
    corpus = build_corpus(posts)
    network = ValidatedNetwork(
        urls=corpus.urls,
        edges=[(VAL_A, VAL_B, 1e-5)],
        alpha=0.05,
        n_hypotheses=6,
        bh_threshold=1e-5,
    )
    return corpus, network


def empty_network(corpus):
    return ValidatedNetwork(
        urls=corpus.urls,
        edges=[],
        alpha=0.05,
        n_hypotheses=6,
        bh_threshold=0.0,
    )


class TestDiscussionSupporters:
    def test_only_validated_sharers_included(self):
        corpus, network = fixture_corpus()
        assert discussion_supporters(corpus, network) == {"alice", "bob"}

    def test_empty_network_gives_empty_ds(self):
        corpus, _ = fixture_corpus()
        assert discussion_supporters(corpus, empty_network(corpus)) == set()

    @pytest.mark.parametrize("other", [
        lambda urls: urls[::-1],
        lambda urls: urls[1:],
        lambda urls: urls + ("https://w.com/extra",),
    ], ids=["reversed", "one-missing", "one-extra"])
    def test_network_over_other_urls_is_refused(self, other):
        # the URL mask is read against the corpus's URL columns, so any other
        # URL tuple, even the same URLs in another order, would misalign it
        corpus, network = fixture_corpus()
        elsewhere = dataclasses.replace(network, urls=other(network.urls))
        with pytest.raises(ValueError, match="URLs"):
            discussion_supporters(corpus, elsewhere)
        for kind in ALL_STRATEGIES:
            with pytest.raises(ValueError, match="URLs"):
                build_voter_profiles(kind, corpus, elsewhere, KnowledgeBase())


class TestSelectVoters:
    def test_strategies_pick_expected_sets(self):
        corpus, network = fixture_corpus()
        ds = {"alice", "bob"}
        assert select_voters(StrategyKind.DS_URL_NEC, corpus, network) == ds
        assert select_voters(StrategyKind.DS_ALL, corpus, network) == ds
        assert select_voters(StrategyKind.DS_ALL_WO_USR_NEC, corpus, network) == {
            "carol", "dan",
        }
        assert select_voters(StrategyKind.USERS_ALL, corpus, network) == set(corpus.users)
        for kind in ALL_STRATEGIES:
            profiles = build_voter_profiles(kind, corpus, network, KnowledgeBase())
            assert {v.user_id for v in profiles} == select_voters(kind, corpus, network)

    def test_users_all_needs_no_discussion_supporters(self):
        corpus, network = fixture_corpus()
        assert select_voters(StrategyKind.USERS_ALL, corpus, network) == set(corpus.users)
        kb = KnowledgeBase(scores={"x.com": 80, "z.com": 30})
        profiles = [build_voter_profiles(StrategyKind.USERS_ALL, corpus, net, kb)
                    for net in (network, empty_network(corpus))]
        assert profiles[0] == profiles[1]
        assert [v.user_id for v in profiles[0]] == list(corpus.users)

    def test_complement_empty_when_everyone_supports(self):
        posts = [
            RawPost("p1", "u1", 0.0, (VAL_A,), "original"),
            RawPost("p2", "u2", 0.0, (VAL_B,), "original"),
        ]
        corpus = build_corpus(posts)
        network = ValidatedNetwork(
            urls=corpus.urls,
            edges=[(VAL_A, VAL_B, 1e-4)],
            alpha=0.05,
            n_hypotheses=1,
            bh_threshold=1e-4,
        )
        assert select_voters(StrategyKind.DS_ALL_WO_USR_NEC, corpus, network) == set()
        assert build_voter_profiles(
            StrategyKind.DS_ALL_WO_USR_NEC, corpus, network, KnowledgeBase()) == []

    def test_ds_is_subset_of_users(self):
        corpus, network = fixture_corpus()
        assert discussion_supporters(corpus, network) <= set(corpus.users)


class TestArticleSet:
    def test_nec_strategy_restricts_to_validated(self):
        corpus, network = fixture_corpus()
        nec_set = article_set("alice", StrategyKind.DS_URL_NEC, corpus, network)
        all_set = article_set("alice", StrategyKind.DS_ALL, corpus, network)
        assert nec_set == {VAL_A, VAL_B}
        assert all_set == {VAL_A, VAL_B, PLAIN_C}
        assert nec_set <= all_set

    def test_users_all_uses_full_share_set(self):
        corpus, network = fixture_corpus()
        assert article_set("carol", StrategyKind.USERS_ALL, corpus, network) == {
            PLAIN_C, PLAIN_D,
        }

    def test_no_validated_urls_gives_empty_set(self):
        corpus, network = fixture_corpus()
        assert article_set("carol", StrategyKind.DS_URL_NEC, corpus, network) == set()


class TestCharacterize:
    def test_worked_example_mean_75(self):
        # 5 articles from a score-60 publisher plus 5 from a score-90 one
        urls = [f"https://sixty.com/a{i}" for i in range(5)] + [
            f"https://ninety.com/b{i}" for i in range(5)
        ]
        posts = [
            RawPost(f"p{i}", "voter", float(i), (u,), "original")
            for i, u in enumerate(urls)
        ]
        corpus = build_corpus(posts)
        kb = KnowledgeBase(scores={"sixty.com": 60, "ninety.com": 90})
        value = characterize(
            "voter", StrategyKind.USERS_ALL, corpus, empty_network(corpus), kb
        )
        assert value == 75.0

    def test_single_scored_article(self):
        corpus, network = fixture_corpus()
        kb = KnowledgeBase(scores={"z.com": 90})
        assert characterize("dan", StrategyKind.USERS_ALL, corpus, network, kb) == 90.0

    def test_all_unclassified_is_undefined(self):
        corpus, network = fixture_corpus()
        kb = KnowledgeBase(scores={})
        assert characterize("alice", StrategyKind.DS_ALL, corpus, network, kb) is None

    def test_duplicated_shares_change_nothing(self):
        base = [RawPost("p1", "v", 0.0, ("https://a.com/x", "https://b.com/y"), "original")]
        dup = base + [RawPost("p2", "v", 1.0, ("https://a.com/x",), "retweet")]
        kb = KnowledgeBase(scores={"a.com": 10, "b.com": 80})
        for posts in (base, dup):
            corpus = build_corpus(posts)
            value = characterize(
                "v", StrategyKind.USERS_ALL, corpus, empty_network(corpus), kb
            )
            assert value == 45.0

    @pytest.mark.parametrize("world", ["fixture", "fixture-empty", "synth-60-4-5", "synth-200-10-8"])
    def test_view_equals_the_set_based_oracle(self, world, tmp_path):
        corpus, network, kb = WORLDS[world](tmp_path)
        assert discussion_supporters(corpus, network) == select_voters(
            StrategyKind.DS_ALL, corpus, network)
        for kind in ALL_STRATEGIES:
            for user in corpus.users + ("absent",):
                articles = article_set(user, kind, corpus, network)
                want = _mean_score(articles, corpus, kb)
                got = characterize(user, kind, corpus, network, kb)
                assert bits(got) == bits(want), (kind, user)


def bits(value):
    return None if value is None else value.hex()


def synth_world(spec):
    def world(tmp_path):
        generate_synthetic(spec, tmp_path / "posts.jsonl", tmp_path / "kb.csv")
        corpus = build_corpus(load_posts(tmp_path / "posts.jsonl")[0])
        graph = bicm.build_graph(corpus)
        network = projection.validate_projection(graph, bicm.solve(graph))
        return corpus, network, load_knowledge_base(tmp_path / "kb.csv")
    return world


def fixture_world(network_of):
    def world(_):
        corpus, network = fixture_corpus()
        # z.com stays unclassified
        return corpus, network_of(corpus, network), KnowledgeBase(scores={"x.com": 80, "y.com": 45})
    return world


WORLDS = {
    "fixture": fixture_world(lambda corpus, network: network),
    "fixture-empty": fixture_world(lambda corpus, network: empty_network(corpus)),
    # 0 and 11 validated edges
    "synth-60-4-5": synth_world(SyntheticSpec(60, 4, 5, seed=1)),
    "synth-200-10-8": synth_world(SyntheticSpec(200, 10, 8, seed=7)),
}


class TestInformationDiet:
    def test_counts_distinct_publishers(self):
        corpus, network = fixture_corpus()
        diets = {user: len(pubs) for user, pubs in user_publishers(corpus).items()}
        assert diets["alice"] == 2  # x.com and y.com
        assert diets["carol"] == 2  # y.com and z.com
        assert diets["dan"] == 1
        profiles = build_voter_profiles(StrategyKind.USERS_ALL, corpus, network, KnowledgeBase())
        assert {v.user_id: v.diet for v in profiles} == diets

    def test_filter_theta_zero_is_identity(self):
        corpus, network = fixture_corpus()
        kb = KnowledgeBase(scores={"x.com": 80, "y.com": 40, "z.com": 55})
        profiles = build_voter_profiles(StrategyKind.USERS_ALL, corpus, network, kb)
        assert filter_min_publishers(profiles, 0) == profiles

    def test_filter_removes_small_diets(self):
        corpus, network = fixture_corpus()
        kb = KnowledgeBase(scores={"x.com": 80})
        profiles = build_voter_profiles(StrategyKind.USERS_ALL, corpus, network, kb)
        kept = filter_min_publishers(profiles, 2)
        assert {v.user_id for v in kept} == {"alice", "carol"}

    def test_filter_is_antitone_in_theta(self):
        corpus, network = fixture_corpus()
        kb = KnowledgeBase(scores={"x.com": 80})
        profiles = build_voter_profiles(StrategyKind.USERS_ALL, corpus, network, kb)
        previous = profiles
        for theta in range(0, 5):
            kept = filter_min_publishers(profiles, theta)
            assert {v.user_id for v in kept} <= {v.user_id for v in previous}
            previous = kept

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            filter_min_publishers([], -1)


class TestBuildProfiles:
    def test_values_and_diets(self):
        corpus, network = fixture_corpus()
        kb = KnowledgeBase(scores={"x.com": 80, "y.com": 40})
        profiles = {
            v.user_id: v
            for v in build_voter_profiles(StrategyKind.DS_ALL, corpus, network, kb)
        }
        assert set(profiles) == {"alice", "bob"}
        assert profiles["alice"].value == pytest.approx((80 + 80 + 40) / 3)
        assert profiles["bob"].value == 80.0

    def test_nec_strategy_drops_voters_without_validated_articles(self):
        corpus, network = fixture_corpus()
        kb = KnowledgeBase(scores={"x.com": 80})
        profiles = build_voter_profiles(StrategyKind.DS_URL_NEC, corpus, network, kb)
        # only VAL_A and VAL_B are validated: alice shared both, bob one
        assert {v.user_id: v.n_articles for v in profiles} == {"alice": 2, "bob": 1}

    def test_value_none_when_only_unclassified(self):
        corpus, network = fixture_corpus()
        kb = KnowledgeBase(scores={"x.com": 80})
        profiles = {
            v.user_id: v
            for v in build_voter_profiles(StrategyKind.USERS_ALL, corpus, network, kb)
        }
        assert profiles["carol"].value is None
        assert profiles["dan"].value is None
        # both values in [0, 100] when defined
        for v in profiles.values():
            if v.value is not None:
                assert 0 <= v.value <= 100

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
    def test_three_products_per_call(self, strategy, monkeypatch):
        # A·m once for the supporters and DS-URL-NEC's counts, then A·s and A·k; A·1 is a bincount
        corpus, network = fixture_corpus()
        kb = KnowledgeBase(scores={"x.com": 80, "y.com": 40})
        want = build_voter_profiles(strategy, corpus, network, kb)
        products = []
        matmul = ingest.Links.__matmul__

        def counting(links, x):
            products.append(np.asarray(x).dtype)
            return matmul(links, x)

        monkeypatch.setattr(ingest.Links, "__matmul__", counting)
        assert build_voter_profiles(strategy, corpus, network, kb) == want
        assert products == [bool, np.int64, bool]
