import random
from collections import Counter, defaultdict

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


def by_index(edges):
    """Named edges numbered as ``louvain`` numbers the validated URLs.

    Returns the sorted names (node i is ``names[i]``) and each edge once as
    its ordered index pair, in edge order.
    """
    names = sorted({u for a, b, *_ in edges for u in (a, b)})
    index = {u: i for i, u in enumerate(names)}
    return names, list(dict.fromkeys(tuple(sorted((index[a], index[b]))) for a, b, *_ in edges))


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
        names, pairs = by_index(net.edges)
        assert part.modularity >= nec.modularity_of_edges(pairs, [singleton[u] for u in names])

    def test_a_self_loop_is_rejected(self):
        net = make_network([("a", "b", 1e-3), ("b", "b", 1e-3)])
        with pytest.raises(ValueError, match="'b' to itself"):
            nec.louvain(net, seed=0)

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


# ``louvain`` as it was when it built the network three times: a string edge
# list, the integer level-0 graph, and string neighbour sets for a merge of the
# singleton communities left after the last level; with per-node gain closures
# and a nested sweep-modularity loop. Kept as the oracle of ``louvain``, which
# has no such merge and takes only loop-free networks; ``merged`` collects the
# URLs that the oracle's merge moves, so a test can check that it moves none.

def _edges_oracle(network):
    return list(dict.fromkeys((a, b) if a < b else (b, a) for a, b, _ in network.edges))


def _one_level_oracle(graph, rng):
    n = graph.n
    deg = graph.degrees()
    two_w = sum(deg)
    comm = list(range(n))
    sigma_tot = deg.copy()
    sigma_in = graph.loops.copy()
    order = list(range(n))
    rng.shuffle(order)

    def sweep_modularity():
        q = 0.0
        for c in range(n):
            if sigma_tot[c] > 0 or sigma_in[c] > 0:
                q += sigma_in[c] / two_w - (sigma_tot[c] / two_w) ** 2
        return q

    pass_q = []
    moved_any = False
    while True:
        moves = 0
        for node in order:
            c_old = comm[node]
            w_comm = defaultdict(float)
            for nbr, w in graph.adj[node].items():
                w_comm[comm[nbr]] += w
            k_i = deg[node]
            sigma_tot[c_old] -= k_i
            sigma_in[c_old] -= 2.0 * w_comm.get(c_old, 0.0) + graph.loops[node]

            def gain(c):
                return w_comm.get(c, 0.0) - sigma_tot[c] * k_i / two_w

            best_c = c_old
            best_gain = gain(c_old)
            for c in sorted(w_comm):
                if c == c_old:
                    continue
                if gain(c) > best_gain + nec.MIN_GAIN:
                    best_c, best_gain = c, gain(c)
            sigma_tot[best_c] += k_i
            sigma_in[best_c] += 2.0 * w_comm.get(best_c, 0.0) + graph.loops[node]
            comm[node] = best_c
            if best_c != c_old:
                moves += 1
                moved_any = True
        pass_q.append(sweep_modularity())
        if moves == 0:
            break
    return comm, pass_q, moved_any


def _relabel_oracle(raw, edges, merged):
    groups = defaultdict(set)
    for u, c in raw.items():
        groups[c].add(u)
    nbrs = defaultdict(set)
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    sigma = defaultdict(int)
    for u, c in raw.items():
        sigma[c] += len(nbrs[u])
    two_m = 2 * len(edges)
    for c in sorted(groups, key=lambda c: min(groups[c])):
        if len(groups[c]) != 1:
            continue
        (lone,) = groups[c]
        links = Counter(raw[v] for v in nbrs[lone] if raw[v] != c)
        if not links:
            continue
        k = len(nbrs[lone])
        target = max(sorted(links), key=lambda t: links[t] * two_m - k * sigma[t])
        merged.append(lone)
        groups[c].discard(lone)
        groups[target].add(lone)
        raw[lone] = target
        sigma[target] += k
    ordered = sorted(
        (c for c in groups if groups[c]),
        key=lambda c: (-len(groups[c]), min(groups[c])),
    )
    remap = {c: i for i, c in enumerate(ordered)}
    return {u: remap[c] for u, c in raw.items()}


def louvain_oracle(network, seed, merged):
    assignment = {u: nec.UNCLUSTERED for u in network.urls}
    edges = _edges_oracle(network)
    if not edges:
        return nec.Partition(assignment=assignment, modularity=0.0)
    nodes = sorted(network.validated_urls)
    index = {u: i for i, u in enumerate(nodes)}
    level = nec._LevelGraph(len(nodes))
    for a, b in edges:
        i, j = index[a], index[b]
        level.adj[i][j] = level.adj[j][i] = 1.0
    rng = random.Random(seed)
    node_comm = list(range(len(nodes)))
    pass_modularities = []
    while True:
        comm, pass_q, moved = _one_level_oracle(level, rng)
        pass_modularities.extend(pass_q)
        node_comm = [comm[c] for c in node_comm]
        if not moved:
            break
        level, remap = nec._aggregate(level, comm)
        node_comm = [remap[c] for c in node_comm]
    final = _relabel_oracle({nodes[i]: c for i, c in enumerate(node_comm)}, edges, merged)
    assignment.update(final)
    q = nec.modularity_of_edges(edges, assignment)
    return nec.Partition(assignment=assignment, modularity=q, pass_modularities=pass_modularities)


class TestLouvainOracle:
    def test_partitions_equal_the_oracle_bit_for_bit(self):
        # On a loop-free network the oracle's singleton merge never runs: a node
        # alone in its community gains at least k^2/2W > 0 by joining a
        # neighbour, so level 0's last sweep, which moves no node, finds none
        # alone, and later levels only merge. The networks repeat and reverse
        # edges and carry a URL without edges.
        rng = random.Random(32)
        for _ in range(150):
            names = [f"n{i:02d}" for i in rng.sample(range(100), rng.randint(2, 14))]
            pairs = [tuple(rng.sample(names, 2)) for _ in range(rng.randint(1, 3 * len(names)))]
            repeats = [(b, a) if rng.random() < 0.5 else (a, b)
                       for a, b in rng.sample(pairs, len(pairs) // 4)]
            edges = [(a, b, 1e-3) for a, b in pairs + repeats]
            rng.shuffle(edges)
            net = make_network(edges, extra_urls=["zz-no-edge"])
            for seed in range(5):
                merged = []
                want = louvain_oracle(net, seed, merged)
                got = nec.louvain(net, seed)
                assert merged == []
                assert got.assignment == want.assignment
                assert got.modularity.hex() == want.modularity.hex()
                assert [q.hex() for q in got.pass_modularities] == [
                    q.hex() for q in want.pass_modularities]


class TestModularity:
    def test_single_community_connected_graph_is_zero(self):
        net = make_network(clique([f"n{i}" for i in range(4)]))
        names, pairs = by_index(net.edges)
        assignment = {u: 0 for u in net.validated_urls}
        q = nec.modularity_of_edges(pairs, [assignment[u] for u in names])
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_two_equal_cliques_half(self):
        net, left, right = two_k5s()
        names, pairs = by_index(net.edges)
        assignment = {u: 0 for u in left} | {u: 1 for u in right}
        q = nec.modularity_of_edges(pairs, [assignment[u] for u in names])
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_singletons_in_clique_negative(self):
        # K5, every node its own community: Q = -sum (d_i/2m)^2 = -1/5
        nodes = [f"n{i}" for i in range(5)]
        net = make_network(clique(nodes))
        names, pairs = by_index(net.edges)
        assignment = {u: i for i, u in enumerate(nodes)}
        q = nec.modularity_of_edges(pairs, [assignment[u] for u in names])
        assert q == pytest.approx(-0.2, abs=1e-12)

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
        assert clustered + unclustered == len(corpus.urls)


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
        urls = corpus.urls
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
