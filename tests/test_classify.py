import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustnet.classify import (
    FoldResult,
    Stump,
    coverage,
    fit_stump,
    labeled_samples,
    publisher_scores,
    stratified_cv,
    stratified_folds,
    worthy_list,
)
from trustnet.ingest import KnowledgeBase, Label, RawPost, build_corpus
from trustnet.voters import VoterProfile


def profile(user, value, n_articles=1, diet=1):
    return VoterProfile(user_id=user, n_articles=n_articles, value=value, diet=diet)


def single_publisher_corpus(n_voters, domain="pub.com"):
    posts = [
        RawPost(f"p{i}", f"v{i:02d}", float(i), (f"https://{domain}/a{i}",), "original")
        for i in range(n_voters)
    ]
    return build_corpus(posts)


class TestPublisherScores:
    def test_worked_example_67_5(self):
        corpus = single_publisher_corpus(10)
        voters = [profile(f"v{i:02d}", 75.0 if i < 5 else 60.0) for i in range(10)]
        scores = publisher_scores(voters, corpus, KnowledgeBase())
        assert len(scores) == 1
        assert scores[0].score == 67.5
        assert scores[0].n_voters == 10

    def test_single_voter(self):
        corpus = single_publisher_corpus(1)
        scores = publisher_scores([profile("v00", 80.0)], corpus, KnowledgeBase())
        assert scores[0].score == 80.0

    def test_one_vote_per_voter_regardless_of_article_count(self):
        posts = [
            RawPost(f"p{i}", "solo", float(i), (f"https://pub.com/a{i}",), "original")
            for i in range(3)
        ]
        corpus = build_corpus(posts)
        scores = publisher_scores([profile("solo", 50.0)], corpus, KnowledgeBase())
        assert scores[0].n_voters == 1
        assert scores[0].score == 50.0

    def test_undefined_voters_do_not_vote(self):
        corpus = single_publisher_corpus(2)
        voters = [profile("v00", None), profile("v01", 30.0)]
        scores = publisher_scores(voters, corpus, KnowledgeBase())
        assert scores[0].n_voters == 1

    def test_share_event_duplication_invariance(self):
        posts = [RawPost("p1", "v00", 0.0, ("https://pub.com/a",), "original")]
        dup = posts + [RawPost("p2", "v00", 1.0, ("https://pub.com/a",), "retweet")]
        voters = [profile("v00", 42.0)]
        s1 = publisher_scores(voters, build_corpus(posts), KnowledgeBase())
        s2 = publisher_scores(voters, build_corpus(dup), KnowledgeBase())
        assert s1 == s2

    def test_uncovered_publisher_omitted(self):
        corpus = build_corpus(
            [
                RawPost("p1", "v00", 0.0, ("https://a.com/x",), "original"),
                RawPost("p2", "other", 0.0, ("https://b.com/y",), "original"),
            ]
        )
        scores = publisher_scores([profile("v00", 10.0)], corpus, KnowledgeBase())
        assert [s.domain for s in scores] == ["a.com"]

    def test_self_vote_exclusion_switch(self):
        posts = [
            RawPost("p1", "v00", 0.0, ("https://a.com/x", "https://b.com/y"), "original"),
            RawPost("p2", "v01", 0.0, ("https://a.com/x",), "original"),
        ]
        corpus = build_corpus(posts)
        kb = KnowledgeBase(scores={"a.com": 20, "b.com": 80})
        voters = [
            profile("v00", 50.0, n_articles=2),
            profile("v01", 20.0, n_articles=1),
        ]
        default = {s.domain: s for s in publisher_scores(voters, corpus, kb)}
        assert default["a.com"].score == 35.0  # (50 + 20) / 2, leakage retained


class TestCoverage:
    def make(self):
        posts = [
            RawPost("p1", "u1", 0.0, ("https://t.com/a", "https://n.com/b"), "original"),
            RawPost("p2", "u2", 0.0, ("https://u.com/c",), "original"),
        ]
        corpus = build_corpus(posts)
        kb = KnowledgeBase(scores={"t.com": 90, "n.com": 10})
        return corpus, kb

    def test_all_users_cover_everything(self):
        corpus, kb = self.make()
        voters = [profile("u1", 1.0), profile("u2", 1.0)]
        report = coverage(voters, corpus, kb)
        assert report.covered == report.universe
        assert report.percentage(Label.T) == 100.0
        assert sum(report.covered.values()) == 3

    def test_no_voters_covers_nothing(self):
        corpus, kb = self.make()
        report = coverage([], corpus, kb)
        assert sum(report.covered.values()) == 0
        assert report.percentage(Label.N) == 0.0

    def test_recount_oracle(self):
        rng = random.Random(5)
        posts = []
        for i in range(200):
            user = f"u{rng.randrange(12)}"
            url = f"https://s{rng.randrange(9)}.com/a{rng.randrange(5)}"
            posts.append(RawPost(f"p{i}", user, float(i), (url,), "original"))
        corpus = build_corpus(posts)
        kb = KnowledgeBase(scores={f"s{i}.com": 20 + 10 * i for i in range(6)})
        voter_ids = sorted(corpus.users)[:5]
        voters = [profile(u, 50.0) for u in voter_ids]
        report = coverage(voters, corpus, kb)
        reached = {
            pub for user, _, pub in corpus.interactions if user in set(voter_ids)
        }
        for level in Label:
            assert report.covered[level] == sum(
                1 for p in reached if kb.label(p) is level
            )
            assert report.universe[level] == sum(
                1 for p in corpus.publishers if kb.label(p) is level
            )
        assert sum(report.covered.values()) == len(reached)

    def test_adding_a_voter_never_shrinks_coverage(self):
        corpus, kb = self.make()
        small = coverage([profile("u1", 1.0)], corpus, kb)
        big = coverage([profile("u1", 1.0), profile("u2", 1.0)], corpus, kb)
        for level in Label:
            assert big.covered[level] >= small.covered[level]


class TestFitStump:
    def test_separable_pair_splits_at_midpoint(self):
        stump = fit_stump([(10.0, Label.N), (90.0, Label.T)])
        assert stump.threshold == 50.0
        assert stump.predict(90.0) is Label.T
        assert stump.predict(10.0) is Label.N

    def test_degenerate_duplicate_scores(self):
        stump = fit_stump([(60.0, Label.N), (60.0, Label.T)])
        correct = sum(
            1 for s, l in [(60.0, Label.N), (60.0, Label.T)] if stump.predict(s) is l
        )
        assert correct == 1  # balanced accuracy 0.5

    def test_linearly_separable_set_zero_training_error(self):
        samples = [(float(i), Label.N) for i in range(10)] + [
            (float(100 + i), Label.T) for i in range(10)
        ]
        stump = fit_stump(samples)
        assert all(stump.predict(s) is l for s, l in samples)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_stump([(10.0, Label.T), (20.0, Label.T)])

    def test_inverted_polarity_learned(self):
        samples = [(float(i), Label.T) for i in range(5)] + [
            (float(50 + i), Label.N) for i in range(5)
        ]
        stump = fit_stump(samples)
        assert all(stump.predict(s) is l for s, l in samples)

    def test_threshold_tie_breaks_small(self):
        # two equally pure splits; the smaller midpoint must win
        samples = [(0.0, Label.N), (10.0, Label.T), (20.0, Label.N), (30.0, Label.T)]
        stump = fit_stump(samples)
        assert stump.threshold == 5.0

    def test_monotone_transform_keeps_predictions(self):
        rng = random.Random(9)
        samples = [
            (rng.uniform(0, 100), Label.T if rng.random() < 0.5 else Label.N)
            for _ in range(40)
        ]
        if len({l for _, l in samples}) < 2:
            samples.append((5.0, Label.T))
            samples.append((95.0, Label.N))
        stump = fit_stump(samples)
        transform = lambda x: 3.0 * x + 7.0
        stump_t = fit_stump([(transform(s), l) for s, l in samples])
        for s, _ in samples:
            assert stump.predict(s) == stump_t.predict(transform(s))


def quadratic_fit_stump(samples):
    """The rescan-every-sample fit that ``fit_stump`` replaced, kept as its oracle."""
    scores = sorted({s for s, _ in samples})
    if len(scores) == 1:
        n_t = sum(1 for _, l in samples if l is Label.T)
        return Stump(threshold=scores[0], high_is_trustworthy=n_t * 2 >= len(samples))

    def gini(labels):
        if not labels:
            return 0.0
        f_t = sum(1 for l in labels if l is Label.T) / len(labels)
        return 1.0 - f_t * f_t - (1.0 - f_t) * (1.0 - f_t)

    best_t, best_gini, n = None, float("inf"), len(samples)
    for t in [(a + b) / 2.0 for a, b in zip(scores, scores[1:])]:
        left = [l for s, l in samples if s < t]
        right = [l for s, l in samples if s >= t]
        g = (len(left) * gini(left) + len(right) * gini(right)) / n
        if g < best_gini - 1e-12:
            best_gini, best_t = g, t
    right = [l for s, l in samples if s >= best_t]
    left = [l for s, l in samples if s < best_t]
    high_t = sum(1 for l in right if l is Label.T)
    high_n = len(right) - high_t
    if high_t != high_n:
        high_is_t = high_t > high_n
    else:
        high_is_t = sum(1 for l in left if l is Label.T) * 2 <= len(left)
    return Stump(threshold=best_t, high_is_trustworthy=high_is_t)


def _neighbours(base):
    """Consecutive floats: the midpoint of two of them rounds onto one of them."""
    out = [base]
    for _ in range(3):
        out.append(math.nextafter(out[-1], math.inf))
    return out


# few distinct scores (heavy ties), a single one, float neighbours, and wide ranges
_scores = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.sampled_from(_neighbours(1.0) + _neighbours(-3.5) + _neighbours(1e300)),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestFitStumpOracle:
    @given(
        st.lists(st.tuples(_scores, st.sampled_from([Label.T, Label.N])), min_size=2, max_size=60)
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_quadratic_scan(self, samples):
        if len({l for _, l in samples}) < 2:
            samples = samples + [(samples[0][0], Label.T), (samples[-1][0], Label.N)]
        assert fit_stump(samples) == quadratic_fit_stump(samples)

    @pytest.mark.parametrize("score", [0.0, 7.5, _neighbours(2.0)[1]])
    @pytest.mark.parametrize("n_t, n_n", [(3, 1), (1, 3), (2, 2)])
    def test_single_distinct_score(self, score, n_t, n_n):
        samples = [(score, Label.T)] * n_t + [(score, Label.N)] * n_n
        assert fit_stump(samples) == quadratic_fit_stump(samples)

    @pytest.mark.parametrize("high", [Label.T, Label.N])
    def test_both_polarities_on_neighbours(self, high):
        a, b, c, d = _neighbours(1.0)
        low = Label.N if high is Label.T else Label.T
        samples = [(a, low), (b, low), (c, high), (d, high), (b, high)]
        stump = fit_stump(samples)
        assert stump == quadratic_fit_stump(samples)
        assert stump.high_is_trustworthy is (high is Label.T)


class TestStratifiedCv:
    def test_separable_scores_reach_perfect_accuracy(self):
        samples = [(float(i), Label.N) for i in range(20)] + [
            (float(100 + i), Label.T) for i in range(20)
        ]
        report = stratified_cv(samples, folds=10, seed=1)
        assert report.folds == 10
        assert report.mean_balanced_accuracy == 1.0

    def test_fold_balanced_accuracy_arithmetic(self):
        fold = FoldResult(tp=4, fn=0, tn=2, fp=2)
        assert fold.balanced_accuracy == 0.75

    def test_class_proportions_preserved(self):
        samples = [(float(i), Label.N) for i in range(30)] + [
            (float(100 + i), Label.T) for i in range(60)
        ]
        folds = stratified_folds(samples, 10, seed=3)
        for fold in folds:
            labels = [samples[i][1] for i in fold]
            assert labels.count(Label.N) == 3
            assert labels.count(Label.T) == 6

    def test_folds_shrink_to_minority_count(self):
        samples = [(1.0, Label.N), (2.0, Label.N), (3.0, Label.N)] + [
            (float(100 + i), Label.T) for i in range(20)
        ]
        report = stratified_cv(samples, folds=10, seed=0)
        assert report.folds == 3

    def test_tiny_minority_rejected(self):
        samples = [(1.0, Label.N)] + [(float(i), Label.T) for i in range(5)]
        with pytest.raises(ValueError):
            stratified_cv(samples, folds=10, seed=0)

    def test_deterministic_per_seed(self):
        rng = random.Random(2)
        samples = [
            (rng.uniform(0, 100), Label.T if rng.random() < 0.6 else Label.N)
            for _ in range(50)
        ]
        r1 = stratified_cv(samples, folds=5, seed=11)
        r2 = stratified_cv(samples, folds=5, seed=11)
        assert r1.balanced_accuracies == r2.balanced_accuracies
        folds = stratified_folds(samples, 5, 11)
        assert any(stratified_folds(samples, 5, seed) != folds for seed in range(12, 17))

    def test_random_labels_hover_at_baseline(self):
        # permutation-null Monte Carlo with 1,000 samples
        rng = random.Random(77)
        samples = [
            (rng.uniform(0, 100), Label.T if rng.random() < 0.5 else Label.N)
            for _ in range(1000)
        ]
        report = stratified_cv(samples, folds=10, seed=5)
        assert abs(report.mean_balanced_accuracy - 0.5) <= 0.05
        assert report.baseline == 0.5


class TestWorthyList:
    def make_scores(self):
        corpus = build_corpus(
            [
                RawPost("p1", "v1", 0.0, ("https://known-t.com/a",), "original"),
                RawPost("p2", "v1", 0.0, ("https://known-n.com/b",), "original"),
                RawPost("p3", "v1", 0.0, ("https://maybe.com/c",), "original"),
                RawPost("p4", "v2", 0.0, ("https://maybe.com/c",), "original"),
                RawPost("p5", "v2", 0.0, ("https://mystery.com/d",), "original"),
            ]
        )
        kb = KnowledgeBase(scores={"known-t.com": 90, "known-n.com": 20})
        voters = [profile("v1", 85.0), profile("v2", 25.0)]
        scores = publisher_scores(voters, corpus, kb)
        return scores, fit_stump(labeled_samples(scores))

    def test_only_unclassified_listed(self):
        scores, stump = self.make_scores()
        entries = worthy_list(scores, stump)
        assert {e.domain for e in entries} == {"maybe.com", "mystery.com"}

    def test_ranked_by_voters_then_score(self):
        scores, stump = self.make_scores()
        entries = worthy_list(scores, stump)
        assert [e.domain for e in entries] == ["maybe.com", "mystery.com"]
        assert entries[0].n_voters == 2

    def test_predictions_follow_fitted_stump(self):
        # known-t scores 85 and known-n 25, so the stump splits at 55, high is T
        corpus = build_corpus(
            [
                RawPost("p1", "v1", 0.0, ("https://known-t.com/a",), "original"),
                RawPost("p2", "v1", 0.0, ("https://maybe.com/c",), "original"),
                RawPost("p3", "v2", 0.0, ("https://known-n.com/b",), "original"),
                RawPost("p4", "v2", 0.0, ("https://mystery.com/d",), "original"),
            ]
        )
        kb = KnowledgeBase(scores={"known-t.com": 90, "known-n.com": 20})
        scores = publisher_scores([profile("v1", 85.0), profile("v2", 25.0)], corpus, kb)
        entries = {e.domain: e for e in worthy_list(scores, fit_stump(labeled_samples(scores)))}
        assert entries["maybe.com"].predicted is Label.T
        assert entries["mystery.com"].predicted is Label.N

    def test_no_unclassified_gives_empty_list(self):
        corpus = build_corpus(
            [RawPost("p1", "v1", 0.0, ("https://known-t.com/a",), "original")]
        )
        kb = KnowledgeBase(scores={"known-t.com": 90})
        scores = publisher_scores([profile("v1", 50.0)], corpus, kb)
        # one class only: no stump can be fit
        assert worthy_list(scores, None) == []

    def test_prediction_below_threshold_is_untrustworthy(self):
        corpus = build_corpus(
            [
                RawPost("p1", "hi", 0.0, ("https://good.com/a",), "original"),
                RawPost("p2", "lo", 0.0, ("https://bad.com/b",), "original"),
                RawPost("p3", "lo2", 0.0, ("https://odd.com/c",), "original"),
            ]
        )
        kb = KnowledgeBase(scores={"good.com": 95, "bad.com": 5})
        voters = [profile("hi", 90.0), profile("lo", 10.0), profile("lo2", 12.0)]
        scores = publisher_scores(voters, corpus, kb)
        entries = worthy_list(scores, fit_stump(labeled_samples(scores)))
        assert entries[0].domain == "odd.com"
        assert entries[0].predicted is Label.N
