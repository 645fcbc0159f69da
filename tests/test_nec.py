import random
from collections import defaultdict

import pytest

from trustnet import nec
from trustnet.ingest import KnowledgeBase, Label, RawPost, build_corpus
from trustnet.projection import ValidatedNetwork


def make_network(edges, extra_urls=()):
    urls = sorted({u for e in edges for u in e[:2]} | set(extra_urls))
    n = len(urls)
    return ValidatedNetwork(
        urls=tuple(urls),
        edges=[(a, b, p) for a, b, p in edges],
        alpha=0.05,
        n_hypotheses=max(1, n * (n - 1) // 2),
        bh_threshold=max((p for *_, p in edges), default=0.0),
    )


def clique(names, p=1e-4):
    return [(a, b, p) for i, a in enumerate(names) for b in names[i + 1 :]]


def two_k5s():
    left = [f"x{i}" for i in range(5)]
    right = [f"y{i}" for i in range(5)]
    return make_network(clique(left) + clique(right)), left, right


class TestLouvain:
    def test_two_disjoint_cliques_split_exactly(self):
        net, left, right = two_k5s()
        part = nec.louvain(net, seed=1)
        assert part.community_ids() == [0, 1]
        groups = [part.members(0), part.members(1)]
        assert set(left) in groups and set(right) in groups

    def test_two_clique_modularity_is_half(self):
        net, _, _ = two_k5s()
        part = nec.louvain(net, seed=1)
        assert part.modularity == pytest.approx(0.5, abs=1e-9)

    def test_single_edge_is_one_community(self):
        net = make_network([("a", "b", 1e-3)])
        part = nec.louvain(net, seed=0)
        assert part.community_ids() == [0]
        assert part.members(0) == {"a", "b"}

    def test_empty_network_gives_all_unclustered(self):
        net = make_network([], extra_urls=["a", "b", "c"])
        part = nec.louvain(net, seed=0)
        assert set(part.assignment.values()) == {nec.UNCLUSTERED}
        assert part.modularity == 0.0

    def test_urls_outside_edges_marked_unclustered(self):
        net = make_network([("a", "b", 1e-3)], extra_urls=["zzz"])
        part = nec.louvain(net, seed=0)
        assert part.assignment["zzz"] == nec.UNCLUSTERED

    def test_community_ids_contiguous_and_no_singletons(self):
        rng = random.Random(2)
        edges = set()
        for _ in range(120):
            a, b = rng.sample(range(30), 2)
            edges.add((f"n{min(a,b):02d}", f"n{max(a,b):02d}"))
        net = make_network([(a, b, 1e-3) for a, b in sorted(edges)])
        part = nec.louvain(net, seed=5)
        ids = part.community_ids()
        assert ids == list(range(len(ids)))
        for c in ids:
            assert len(part.members(c)) >= 2

    def test_pass_modularity_nondecreasing(self):
        rng = random.Random(8)
        for trial in range(5):
            edges = set()
            for _ in range(80):
                a, b = rng.sample(range(24), 2)
                edges.add((f"n{min(a,b):02d}", f"n{max(a,b):02d}"))
            net = make_network([(a, b, 1e-3) for a, b in sorted(edges)])
            part = nec.louvain(net, seed=trial)
            qs = part.pass_modularities
            assert all(b >= a - 1e-9 for a, b in zip(qs, qs[1:]))

    def test_final_beats_singleton_partition(self):
        net, _, _ = two_k5s()
        part = nec.louvain(net, seed=3)
        singleton = {u: i for i, u in enumerate(sorted(net.validated_urls))}
        assert part.modularity >= nec.modularity(net, singleton)

    def test_edge_permutation_invariance(self):
        rng = random.Random(21)
        edges = [(a, b, 1e-3) for a, b in {
            (f"n{min(p):02d}", f"n{max(p):02d}")
            for p in (rng.sample(range(20), 2) for _ in range(60))
        }]
        nets = []
        for _ in range(3):
            rng.shuffle(edges)
            nets.append(make_network(list(edges)))
        parts = [nec.louvain(n, seed=4).assignment for n in nets]
        assert parts[0] == parts[1] == parts[2]


class TestRelabel:
    def test_singleton_joins_the_neighbour_with_the_largest_gain(self):
        # x has two edges into community 5 and one into community 3, the smaller id
        raw = {"x": 0, "a1": 5, "a2": 5, "a3": 5, "b1": 3, "b2": 3}
        edges = [("a1", "x"), ("a2", "x"), ("b1", "x"), ("a1", "a2"), ("a2", "a3"), ("b1", "b2")]
        final = nec._relabel(raw, edges)
        assert final["x"] == final["a1"] != final["b1"]
        assert nec.modularity_of_edges(edges, final) == pytest.approx(5 / 24)  # 1/6 via b

    def test_equal_gains_go_to_the_smaller_louvain_id(self):
        raw = {"x": 0, "a1": 5, "a2": 5, "b1": 3, "b2": 3}
        edges = [("a1", "x"), ("b1", "x"), ("a1", "a2"), ("b1", "b2")]
        final = nec._relabel(raw, edges)
        assert final["x"] == final["b1"] != final["a1"]

    def test_a_merge_updates_the_target_degree(self):
        # x1 ties and joins 3; 3's total degree then grows, so x2 prefers 5
        raw = {"x1": 0, "x2": 1, "a1": 5, "a2": 5, "b1": 3, "b2": 3}
        edges = [("a1", "x1"), ("b1", "x1"), ("a2", "x2"), ("b2", "x2"),
                 ("a1", "a2"), ("b1", "b2")]
        final = nec._relabel(raw, edges)
        assert final["x1"] == final["b1"]
        assert final["x2"] == final["a1"] != final["b1"]


class TestModularity:
    def test_single_community_connected_graph_is_zero(self):
        net = make_network(clique([f"n{i}" for i in range(4)]))
        assignment = {u: 0 for u in net.validated_urls}
        assert nec.modularity(net, assignment) == pytest.approx(0.0, abs=1e-12)

    def test_two_equal_cliques_half(self):
        net, left, right = two_k5s()
        assignment = {u: 0 for u in left} | {u: 1 for u in right}
        assert nec.modularity(net, assignment) == pytest.approx(0.5, abs=1e-12)

    def test_singletons_in_clique_negative(self):
        # K5, every node its own community: Q = -sum (d_i/2m)^2 = -1/5
        nodes = [f"n{i}" for i in range(5)]
        net = make_network(clique(nodes))
        assignment = {u: i for i, u in enumerate(nodes)}
        assert nec.modularity(net, assignment) == pytest.approx(-0.2, abs=1e-12)

    def test_matches_weighted_formula_on_random_partitions(self):
        def weighted_oracle(weights, assignment):
            two_m = 0.0
            d_c, m_c = defaultdict(float), defaultdict(float)
            for (a, b), w in weights.items():
                two_m += 2.0 * w
                ca, cb = assignment[a], assignment[b]
                d_c[ca] += w
                d_c[cb] += w
                if ca == cb:
                    m_c[ca] += w
            m = two_m / 2.0
            return sum(m_c[c] / m - (d_c[c] / two_m) ** 2 for c in d_c)

        rng = random.Random(21)
        for _ in range(200):
            names = [f"n{i}" for i in range(rng.randint(2, 15))]
            pairs = (tuple(sorted(rng.sample(names, 2))) for _ in range(rng.randint(1, 40)))
            edges = list(dict.fromkeys(pairs))
            assignment = {u: rng.randrange(4) for u in names}
            assert nec.modularity_of_edges(edges, assignment) == weighted_oracle(
                dict.fromkeys(edges, 1.0), assignment
            )

    def test_uncovered_node_rejected(self):
        net = make_network([("a", "b", 1e-3)])
        with pytest.raises(ValueError):
            nec.modularity(net, {"a": 0})


def corpus_for_purity():
    """five URLs: 3 from T publishers, 1 from N, 1 unclassified."""
    posts = [
        RawPost("p1", "u1", 0.0, ("https://t1.com/a", "https://t1.com/b"), "original"),
        RawPost("p2", "u2", 0.0, ("https://t2.com/c", "https://n1.com/d"), "original"),
        RawPost("p3", "u3", 0.0, ("https://unc.com/e",), "original"),
    ]
    corpus = build_corpus(posts)
    kb = KnowledgeBase(scores={"t1.com": 90, "t2.com": 75, "n1.com": 20})
    return corpus, kb


URLS = ["https://t1.com/a", "https://t1.com/b", "https://t2.com/c",
        "https://n1.com/d", "https://unc.com/e"]


class TestPurity:
    def test_all_trustworthy_community(self):
        corpus, kb = corpus_for_purity()
        part = nec.Partition(
            assignment={URLS[0]: 0, URLS[1]: 0, URLS[2]: 0, URLS[3]: -1, URLS[4]: -1},
            modularity=0.0,
        )
        assert nec.purity(part, 0, corpus, kb, Label.T) == 1.0
        assert nec.purity(part, 0, corpus, kb, Label.N) == 0.0

    def test_mixed_community_with_unclassified(self):
        corpus, kb = corpus_for_purity()
        part = nec.Partition(
            assignment={u: 0 for u in URLS}, modularity=0.0
        )
        assert nec.purity(part, 0, corpus, kb, Label.T) == pytest.approx(0.6)
        assert nec.purity(part, 0, corpus, kb, Label.N) == pytest.approx(0.2)

    def test_empty_level_is_zero(self):
        corpus, kb = corpus_for_purity()
        part = nec.Partition(
            assignment={URLS[0]: 0, URLS[1]: 0, URLS[2]: -1, URLS[3]: -1, URLS[4]: -1},
            modularity=0.0,
        )
        assert nec.purity(part, 0, corpus, kb, Label.N) == 0.0

    def test_missing_community_rejected(self):
        corpus, kb = corpus_for_purity()
        part = nec.Partition(assignment={u: -1 for u in URLS}, modularity=0.0)
        with pytest.raises(ValueError):
            nec.purity(part, 0, corpus, kb, Label.T)

    def test_purity_sums_below_one(self):
        corpus, kb = corpus_for_purity()
        part = nec.Partition(assignment={u: 0 for u in URLS}, modularity=0.0)
        t = nec.purity(part, 0, corpus, kb, Label.T)
        n = nec.purity(part, 0, corpus, kb, Label.N)
        assert t + n <= 1.0


class TestOverallPurity:
    def test_single_community_equals_its_purity(self):
        corpus, kb = corpus_for_purity()
        part = nec.Partition(
            assignment={URLS[0]: 0, URLS[1]: 0, URLS[2]: 0, URLS[3]: -1, URLS[4]: -1},
            modularity=0.0,
        )
        assert nec.overall_purity(part, corpus, kb, Label.T) == nec.purity(
            part, 0, corpus, kb, Label.T
        )

    def test_pooled_ratio(self):
        corpus, kb = corpus_for_purity()
        # community 0: both T; community 1: one N + one UNC -> pooled T = 2/4
        part = nec.Partition(
            assignment={URLS[0]: 0, URLS[1]: 0, URLS[3]: 1, URLS[4]: 1, URLS[2]: -1},
            modularity=0.0,
        )
        assert nec.overall_purity(part, corpus, kb, Label.T) == pytest.approx(0.5)

    def test_no_communities_is_error(self):
        corpus, kb = corpus_for_purity()
        part = nec.Partition(assignment={u: -1 for u in URLS}, modularity=0.0)
        with pytest.raises(ValueError):
            nec.overall_purity(part, corpus, kb, Label.T)


class TestUnclusteredPurity:
    def test_bucket_ratio(self):
        corpus, kb = corpus_for_purity()
        part = nec.Partition(
            assignment={URLS[0]: 0, URLS[1]: 0, URLS[2]: -1, URLS[3]: -1, URLS[4]: -1},
            modularity=0.0,
        )
        assert nec.unclustered_purity(part, corpus, kb, Label.T) == pytest.approx(1 / 3)
        assert nec.unclustered_purity(part, corpus, kb, Label.N) == pytest.approx(1 / 3)

    def test_empty_bucket_is_error(self):
        corpus, kb = corpus_for_purity()
        part = nec.Partition(assignment={u: 0 for u in URLS}, modularity=0.0)
        with pytest.raises(ValueError):
            nec.unclustered_purity(part, corpus, kb, Label.T)

    def test_partition_sizes_cover_articles(self):
        corpus, kb = corpus_for_purity()
        part = nec.Partition(
            assignment={URLS[0]: 0, URLS[1]: 0, URLS[2]: 1, URLS[3]: 1, URLS[4]: -1},
            modularity=0.0,
        )
        clustered = sum(
            len(part.members(c)) for c in part.community_ids()
        )
        unclustered = len([u for u, c in part.assignment.items() if c == -1])
        assert clustered + unclustered == len(corpus.articles)


class TestNecSummary:
    def test_hand_counted_row(self):
        posts = [
            RawPost("p1", "u1", 0.0, ("https://d.com/a",), "original"),
            RawPost("p2", "u2", 0.0, ("https://d.com/a",), "original"),
            RawPost("p3", "u3", 0.0, ("https://d.com/b",), "original"),
            RawPost("p4", "u1", 1.0, ("https://d.com/a",), "retweet"),
            RawPost("p5", "u2", 1.0, ("https://d.com/b",), "retweet"),
            RawPost("p6", "u3", 2.0, ("https://d.com/b",), "retweet"),
            RawPost("p7", "u1", 3.0, ("https://d.com/b",), "reply"),
        ]
        corpus = build_corpus(posts)
        part = nec.Partition(
            assignment={"https://d.com/a": 0, "https://d.com/b": 0},
            modularity=0.0,
        )
        rows = nec.nec_summary(part, corpus)
        assert len(rows) == 1
        row = rows[0]
        assert (row.n_users, row.n_distinct_urls, row.n_publishers, row.n_shares) == (
            3, 2, 1, 7,
        )

    def test_empty_partition_no_rows(self):
        corpus, _ = corpus_for_purity()
        part = nec.Partition(assignment={u: -1 for u in URLS}, modularity=0.0)
        assert nec.nec_summary(part, corpus) == []

    def test_recount_oracle_on_random_corpus(self):
        rng = random.Random(3)
        posts = []
        for i in range(300):
            user = f"u{rng.randrange(25)}"
            url = f"https://s{rng.randrange(6)}.com/a{rng.randrange(8)}"
            posts.append(RawPost(f"p{i}", user, float(i), (url,), "original"))
        corpus = build_corpus(posts)
        urls = sorted(corpus.articles)
        assignment = {u: i % 3 for i, u in enumerate(urls)}
        part = nec.Partition(assignment=assignment, modularity=0.0)
        rows = {r.community: r for r in nec.nec_summary(part, corpus)}
        for c in range(3):
            members = {u for u, cc in assignment.items() if cc == c}
            users = {usr for usr, u, _ in corpus.interactions if u in members}
            pubs = {corpus.url_publisher[u] for u in members}
            shares = sum(1 for post in posts if post.urls[0] in members)
            row = rows[c]
            assert row.n_users == len(users)
            assert row.n_distinct_urls == len(members)
            assert row.n_publishers == len(pubs)
            assert row.n_shares == shares

    def test_sorted_by_users_descending(self):
        corpus, _ = corpus_for_purity()
        part = nec.Partition(
            assignment={URLS[0]: 1, URLS[1]: 1, URLS[2]: 0, URLS[3]: 0, URLS[4]: -1},
            modularity=0.0,
        )
        rows = nec.nec_summary(part, corpus)
        assert [r.n_users for r in rows] == sorted(
            (r.n_users for r in rows), reverse=True
        )
