"""The corpus's link matrices and their products against the paths they replaced.

``profiles_oracle``, ``publisher_scores_oracle``, ``coverage_oracle`` and
``sweep_oracle`` copy the dict-of-frozensets implementations of voter
profiles, publisher scores, coverage and the θ sweep that walked one voter
list per (strategy, θ); they build on the set-based voter rule kept in
``test_voters``. The products on the corpus's A (``user_urls``) and Bᵀ
(``publisher_users``) must reproduce them field by field and bit for bit.
``publisher_users_oracle`` builds Bᵀ as the transpose of B, the user ×
publisher matrix, which the corpus no longer keeps.
"""

import dataclasses
import random
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustnet import bicm, classify, pipeline, projection
from trustnet.classify import CoverageReport, PublisherScore
from trustnet.ingest import (
    KnowledgeBase,
    Label,
    Links,
    RawPost,
    build_corpus,
    fold_sum,
    load_knowledge_base,
    load_posts,
)
from trustnet.pipeline import PipelineConfig, SweepPoint
from trustnet.projection import ValidatedNetwork
from trustnet.synth import SyntheticSpec, generate_synthetic
from trustnet.voters import (
    ALL_STRATEGIES,
    StrategyKind,
    VoterProfile,
    build_voter_profiles,
    characterize,
)

from conftest import corpus_arrays, dense
from test_voters import _mean_score, article_set, select_voters, user_publishers


def profiles_oracle(strategy, corpus, validated, kb):
    diets = user_publishers(corpus)
    profiles = []
    for user in sorted(select_voters(strategy, corpus, validated)):
        articles = article_set(user, strategy, corpus, validated)
        if not articles:
            continue
        profiles.append(
            VoterProfile(
                user_id=user,
                n_articles=len(articles),
                value=_mean_score(articles, corpus, kb),
                diet=len(diets[user]),
            )
        )
    return profiles


def publisher_scores_oracle(voters, corpus, kb):
    reached = user_publishers(corpus)
    votes = defaultdict(list)
    for voter in voters:
        if voter.value is None:
            continue
        for publisher in reached.get(voter.user_id, ()):
            votes[publisher].append(voter.value)
    return [
        PublisherScore(
            domain=pub,
            score=fold_sum(vals) / len(vals),
            n_voters=len(vals),
            kb_label=kb.label(pub),
        )
        for pub, vals in sorted(votes.items())
    ]


def coverage_oracle(voters, corpus, kb):
    diets = user_publishers(corpus)
    reached = set().union(*(diets.get(v.user_id, ()) for v in voters))
    covered = {level: 0 for level in Label}
    universe = {level: 0 for level in Label}
    for publisher in corpus.publishers:
        level = kb.label(publisher)
        universe[level] += 1
        if publisher in reached:
            covered[level] += 1
    return CoverageReport(covered=covered, universe=universe)


def sweep_oracle(config, corpus, network, kb, profiles):
    validated_pubs = {corpus.url_publisher[u] for u in network.validated_urls}
    nec_knowledge = sum(1 for p in validated_pubs if kb.label(p) is not Label.UNC)
    points = []
    for kind, profs in profiles.items():
        for theta in config.thetas():
            surviving = [v for v in profs if v.diet >= theta]
            scores = publisher_scores_oracle(
                [v for v in surviving if v.value is not None], corpus, kb)
            cov = coverage_oracle(surviving, corpus, kb)
            try:
                report = classify.stratified_cv(
                    classify.labeled_samples(scores), folds=config.cv_folds, seed=config.cv_seed
                )
            except ValueError:
                report = None
            points.append(SweepPoint(
                strategy=kind.value,
                theta=theta,
                n_voters=len(surviving),
                covered={l.value: cov.covered[l] for l in Label},
                balanced_accuracy_mean=report.mean_balanced_accuracy if report else None,
                balanced_accuracy_std=report.std_balanced_accuracy if report else None,
                knowledge=nec_knowledge if kind is StrategyKind.DS_URL_NEC
                else cov.covered[Label.T] + cov.covered[Label.N],
            ))
    return points


def exact(value):
    """``value`` with floats as hex digits and other leaves typed, so == compares bits."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value).__name__, [exact(getattr(value, f.name)) for f in fields]
    if isinstance(value, dict):
        return [(exact(k), exact(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if type(value) is float:
        return "float", value.hex()
    return type(value).__name__, value


def check_against_oracle(corpus, network, kb, config):
    """Every value built on the link matrices equals the set-based one, bit for bit."""
    profiles = {kind: build_voter_profiles(kind, corpus, network, kb) for kind in ALL_STRATEGIES}
    oracle = {kind: profiles_oracle(kind, corpus, network, kb) for kind in ALL_STRATEGIES}
    assert exact(profiles) == exact(oracle)
    for profs in profiles.values():
        valued = [v for v in profs if v.value is not None]
        assert exact(classify.publisher_scores(profs, corpus, kb)) == exact(
            publisher_scores_oracle(valued, corpus, kb))
        assert exact(classify.coverage(profs, corpus, kb)) == exact(
            coverage_oracle(profs, corpus, kb))
    sweep = pipeline.compute_sweep(config, corpus, network, kb, profiles)
    assert exact(sweep) == exact(sweep_oracle(config, corpus, network, kb, oracle))
    return profiles


def publisher_users_oracle(corpus):
    """Bᵀ as B's stable argsort by publisher, with B the distinct (user, publisher) links."""
    publishers = sorted(set(corpus.domains))
    codes = np.array([publishers.index(p) for p in corpus.domains], dtype=np.int64)
    n = len(publishers)
    pairs = np.unique(corpus.link_user * n + codes[corpus.link_url])
    b_rows, b_cols = pairs // n, pairs % n
    by_publisher = np.argsort(b_cols, kind="stable")  # (publisher, user) order
    return Links(b_cols[by_publisher], b_rows[by_publisher], (n, len(corpus.users)))


def same_links(got, want):
    """``got`` and ``want`` hold equal int64 arrays and shapes."""
    assert got.rows.dtype == got.cols.dtype == np.int64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.rows, want.rows)
    np.testing.assert_array_equal(got.cols, want.cols)


def reloaded(corpus):
    """The corpus as a rerun reads it back from its ingest stage directory.

    The directory holds the set-based stage's bytes; the reload has the
    fresh corpus's arrays and link matrices.
    """
    with tempfile.TemporaryDirectory() as tmp:
        stage_dir = Path(tmp)
        pipeline.write_csv(stage_dir / "interactions.csv", ["user_id", "url", "publisher"],
                           sorted(corpus.interactions))
        pipeline.write_csv(stage_dir / "shares.csv", ["url", "n_shares"],
                           sorted(Counter(corpus.share_events).items()))
        again = pipeline.load_corpus(stage_dir, {"n_skipped_urls": corpus.skipped_urls})
    assert corpus_arrays(again) == corpus_arrays(corpus)
    return again


def network_over(corpus, urls):
    """A validated network whose edges chain ``urls`` together."""
    urls = sorted(urls)
    return ValidatedNetwork(
        urls=corpus.urls,
        edges=[(a, b, 1e-6) for a, b in zip(urls, urls[1:])],
        alpha=0.05,
        n_hypotheses=1,
        bh_threshold=1e-6,
    )


@st.composite
def worlds(draw):
    """(corpus, validated network, knowledge base, config) of a random small world."""
    n_pubs = draw(st.integers(1, 5))
    urls = [f"https://p{p}.com/a{a}" for p in range(n_pubs) for a in range(draw(st.integers(1, 4)))]
    n_users = draw(st.integers(1, 9))
    shares = draw(st.lists(
        st.sets(st.sampled_from(urls), min_size=1, max_size=len(urls)),
        min_size=n_users, max_size=n_users))
    posts = [RawPost(f"p{i}", f"user{i:02d}", 0.0, tuple(sorted(s)), "original")
             for i, s in enumerate(shares)]
    corpus = build_corpus(posts)
    scores = draw(st.lists(st.one_of(st.none(), st.integers(0, 100)),
                           min_size=n_pubs, max_size=n_pubs))
    kb = KnowledgeBase(scores={f"p{p}.com": s for p, s in enumerate(scores) if s is not None})
    # everything validated leaves DS-ALL-WO-USR-NEC empty
    shared = corpus.urls
    validated = set(shared) if draw(st.booleans()) else draw(st.sets(st.sampled_from(shared)))
    theta_min = draw(st.integers(0, 3))
    config = PipelineConfig(theta_min=theta_min, theta_max=theta_min + draw(st.integers(0, 4)),
                            cv_folds=draw(st.integers(2, 4)), cv_seed=draw(st.integers(0, 3)))
    return corpus, network_over(corpus, validated), kb, config


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(worlds())
    def test_random_worlds_match_the_set_based_path(self, world):
        corpus, network, kb, config = world
        same_links(corpus.publisher_users, publisher_users_oracle(corpus))
        profiles = check_against_oracle(corpus, network, kb, config)
        # a rerun reads its corpus back from ingest/interactions.csv and shares.csv
        again = reloaded(corpus)
        assert again.users == corpus.users
        assert Counter(again.share_events) == Counter(corpus.share_events)
        assert exact(check_against_oracle(again, network, kb, config)) == exact(profiles)

    def test_the_edge_cases_are_covered(self):
        # unc-only shares only UNC articles, outsider nothing validated, and
        # with every URL validated DS-ALL-WO-USR-NEC has no voter
        posts = [
            RawPost("p1", "alice", 0.0, ("https://t.com/a", "https://n.com/b"), "original"),
            RawPost("p2", "unc-only", 0.0, ("https://u.com/c",), "original"),
            RawPost("p3", "outsider", 0.0, ("https://t.com/d", "https://u.com/e"), "original"),
            RawPost("p4", "bob", 0.0, ("https://n.com/b", "https://u.com/c"), "retweet"),
        ]
        corpus = build_corpus(posts)
        kb = KnowledgeBase(scores={"t.com": 90, "n.com": 15})
        config = PipelineConfig(theta_max=3, cv_folds=2)
        partial = network_over(corpus, {"https://t.com/a", "https://n.com/b", "https://u.com/c"})
        profiles = check_against_oracle(corpus, partial, kb, config)
        by_user = {v.user_id: v for v in profiles[StrategyKind.USERS_ALL]}
        assert by_user["unc-only"].value is None
        assert [v.user_id for v in profiles[StrategyKind.DS_ALL_WO_USR_NEC]] == ["outsider"]
        assert [v.n_articles for v in profiles[StrategyKind.DS_URL_NEC]] == [2, 2, 1]
        everything = network_over(corpus, corpus.urls)
        assert check_against_oracle(corpus, everything, kb, config)[
            StrategyKind.DS_ALL_WO_USR_NEC] == []
        again = reloaded(corpus)
        assert sorted(again.share_events) == [
            "https://n.com/b", "https://n.com/b", "https://t.com/a", "https://t.com/d",
            "https://u.com/c", "https://u.com/c", "https://u.com/e"]
        check_against_oracle(again, partial, kb, config)


class TestIndex:
    def test_matrices_are_int64_with_ascending_columns(self):
        corpus = build_corpus([
            RawPost("p1", "b", 0.0, ("https://y.com/2", "https://x.com/1"), "original"),
            RawPost("p2", "a", 0.0, ("https://x.com/1",), "original"),
        ])
        assert corpus.users == ("a", "b")
        assert corpus.urls == ("https://x.com/1", "https://y.com/2")
        assert corpus.publishers == ("x.com", "y.com")
        assert corpus.user_row == {"a": 0, "b": 1}
        for m in (corpus.user_urls, corpus.publisher_users):
            assert m.rows.dtype == m.cols.dtype == np.int64
            keys = m.rows * m.shape[1] + m.cols  # distinct links, ascending by (row, column)
            assert (np.diff(keys) > 0).all()
        assert dense(corpus.user_urls).tolist() == [[1, 0], [1, 1]]
        assert dense(corpus.publisher_users).tolist() == [[1, 1], [0, 1]]
        assert bicm.build_graph(corpus).biadjacency is corpus.user_urls

    def test_build_graph_derives_only_a(self):
        corpus = build_corpus([
            RawPost("p1", "b", 0.0, ("https://y.com/2", "https://x.com/1"), "original"),
            RawPost("p2", "a", 0.0, ("https://x.com/1",), "original"),
        ])
        bicm.build_graph(corpus)
        fields = {f.name for f in dataclasses.fields(corpus)}
        assert set(vars(corpus)) - fields == {"user_urls"}

    def test_counts_past_int8_are_exact(self):
        # one user shares 300 URLs of 300 publishers, and 200 users share one URL:
        # an int8 product would wrap both counts
        wide = [f"https://p{i:03d}.com/a" for i in range(300)]
        posts = [RawPost("wide", "heavy", 0.0, tuple(wide), "original")]
        posts += [RawPost(f"c{i}", f"crowd{i:03d}", 0.0, (wide[0], "https://hub.com/x"), "original")
                  for i in range(200)]
        corpus = build_corpus(posts)
        kb = KnowledgeBase(scores={f"p{i:03d}.com": i % 101 for i in range(300)})
        graph = bicm.build_graph(corpus)
        assert graph.user_degrees[corpus.user_row["heavy"]] == 300
        assert graph.user_degrees.tolist().count(2) == 200
        assert graph.url_degrees[corpus.urls.index(wide[0])] == 201
        assert graph.url_degrees[corpus.urls.index("https://hub.com/x")] == 200
        _, _, observed = projection.cooccurrences(graph)
        assert observed.max() == 200
        network = network_over(corpus, corpus.urls)
        heavy = {v.user_id: v for v in
                 build_voter_profiles(StrategyKind.USERS_ALL, corpus, network, kb)}["heavy"]
        assert (heavy.n_articles, heavy.diet) == (300, 300)
        assert heavy.value == characterize("heavy", StrategyKind.USERS_ALL, corpus, network, kb)
        scores = {s.domain: s for s in classify.publisher_scores(
            [VoterProfile(f"crowd{i:03d}", 2, 1.0, 2) for i in range(200)], corpus, kb)}
        assert scores["hub.com"].n_voters == 200


class TestVoteOrder:
    def test_reversed_voter_list_gives_identical_bits(self):
        posts = [RawPost(f"p{i}", f"v{i}", 0.0, ("https://pub.com/a",), "original")
                 for i in range(3)]
        corpus = build_corpus(posts)
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit
        voters = [VoterProfile(f"v{i}", 1, value, 1) for i, value in enumerate((0.1, 0.2, 0.3))]
        forward = classify.publisher_scores(voters, corpus, KnowledgeBase())
        backward = classify.publisher_scores(voters[::-1], corpus, KnowledgeBase())
        assert exact(forward) == exact(backward)
        assert forward[0].score.hex() == (((0.1 + 0.2) + 0.3) / 3).hex()

    def test_shuffled_voters_score_as_sorted_ones(self, tmp_path):
        posts, kb_csv = tmp_path / "posts.jsonl", tmp_path / "kb.csv"
        generate_synthetic(SyntheticSpec(60, 4, 5, seed=3), posts, kb_csv)
        corpus = build_corpus(load_posts(posts)[0])
        kb = load_knowledge_base(kb_csv)
        network = network_over(corpus, corpus.urls[::3])
        profs = build_voter_profiles(StrategyKind.USERS_ALL, corpus, network, kb)
        shuffled = profs[:]
        random.Random(0).shuffle(shuffled)
        assert exact(classify.publisher_scores(shuffled, corpus, kb)) == exact(
            publisher_scores_oracle([v for v in profs if v.value is not None], corpus, kb))


@pytest.mark.parametrize("spec", [SyntheticSpec(60, 4, 5, seed=1),
                                  SyntheticSpec(90, 5, 4, seed=2)])
def test_rerun_with_cached_ingest_matches_the_oracle(spec, tmp_path):
    generate_synthetic(spec, tmp_path / "posts.jsonl", tmp_path / "kb.csv")
    config = PipelineConfig(posts=str(tmp_path / "posts.jsonl"),
                            knowledge_base=str(tmp_path / "kb.csv"),
                            out_dir=str(tmp_path / "run"), theta_max=8)
    first = pipeline.run_pipeline(config)
    rerun = pipeline.run_pipeline(config)  # every cacheable stage, ingest too, is loaded
    for result in (first, rerun):
        profiles = check_against_oracle(result.corpus, result.network, result.kb, config)
        assert exact(profiles) == exact(result.profiles)
        oracle = sweep_oracle(config, result.corpus, result.network, result.kb, profiles)
        assert exact(result.report["classify"]["sweep"]) == exact(
            [dataclasses.asdict(p) for p in oracle])
