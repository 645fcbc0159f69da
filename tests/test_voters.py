import pytest

from trustnet.ingest import KnowledgeBase, RawPost, build_corpus
from trustnet.projection import ValidatedNetwork
from trustnet.voters import (
    StrategyKind,
    article_set,
    build_voter_profiles,
    characterize,
    discussion_supporters,
    filter_min_publishers,
    select_voters,
)

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
        urls=tuple(sorted(corpus.articles)),
        edges=[(VAL_A, VAL_B, 1e-5)],
        alpha=0.05,
        n_hypotheses=6,
        bh_threshold=1e-5,
    )
    return corpus, network


def empty_network(corpus):
    return ValidatedNetwork(
        urls=tuple(sorted(corpus.articles)),
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

    def test_users_all_needs_no_discussion_supporters(self, monkeypatch):
        from trustnet import voters

        def refuse(*args):
            raise AssertionError("USERS-ALL built the discussion supporters")

        monkeypatch.setattr(voters, "discussion_supporters", refuse)
        corpus, network = fixture_corpus()
        assert select_voters(StrategyKind.USERS_ALL, corpus, network) == set(corpus.users)

    def test_complement_empty_when_everyone_supports(self):
        posts = [
            RawPost("p1", "u1", 0.0, (VAL_A,), "original"),
            RawPost("p2", "u2", 0.0, (VAL_B,), "original"),
        ]
        corpus = build_corpus(posts)
        network = ValidatedNetwork(
            urls=tuple(sorted(corpus.articles)),
            edges=[(VAL_A, VAL_B, 1e-4)],
            alpha=0.05,
            n_hypotheses=1,
            bh_threshold=1e-4,
        )
        assert select_voters(StrategyKind.DS_ALL_WO_USR_NEC, corpus, network) == set()

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


class TestInformationDiet:
    def test_counts_distinct_publishers(self):
        corpus, _ = fixture_corpus()
        diets = {user: len(pubs) for user, pubs in corpus.user_publishers.items()}
        assert diets["alice"] == 2  # x.com and y.com
        assert diets["carol"] == 2  # y.com and z.com
        assert diets["dan"] == 1

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
