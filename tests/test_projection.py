import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from trustnet import bicm, projection
from trustnet.ingest import RawPost, build_corpus, load_posts
from trustnet.synth import SyntheticSpec, generate_synthetic

from conftest import dense, raw_posts, traced_peak


def csr(links, dtype=np.int64):
    """scipy's CSR matrix of a ``Links``, the oracle for its products."""
    data = np.ones(links.rows.size, dtype=dtype)
    return sparse.csr_matrix((data, (links.rows, links.cols)), shape=links.shape)


def tail_by_enumeration(probs, k):
    """Oracle: walk every outcome of the n Bernoulli draws."""
    total = 0.0
    n = len(probs)
    for bits in itertools.product((0, 1), repeat=n):
        if sum(bits) >= k:
            prob = 1.0
            for b, p in zip(bits, probs):
                prob *= p if b else 1.0 - p
            total += prob
    return total


class TestPoissonBinomialTail:
    def test_quarter_quarter_k2(self):
        # enumeration over 4 outcomes: only (1,1) with mass 0.0625 reaches 2
        assert projection.poisson_binomial_tail([0.25, 0.25], 2) == pytest.approx(
            0.0625, abs=1e-15
        )

    def test_quarter_quarter_k1(self):
        # 1 - 0.75^2 = 0.4375
        assert projection.poisson_binomial_tail([0.25, 0.25], 1) == pytest.approx(
            0.4375, abs=1e-15
        )

    def test_k_zero_is_one(self):
        assert projection.poisson_binomial_tail([0.9, 0.1, 0.5], 0) == 1.0

    def test_k_above_n_is_zero(self):
        assert projection.poisson_binomial_tail([0.5, 0.5], 3) == 0.0

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            projection.poisson_binomial_tail([0.5, 1.5], 1)
        with pytest.raises(ValueError):
            projection.poisson_binomial_tail([-0.1], 1)

    def test_no_probabilities(self):
        # a sum of no Bernoullis is 0: certain at k = 0, impossible above
        assert projection.poisson_binomial_tail([], 0) == 1.0
        assert projection.poisson_binomial_tail([], 1) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            projection.poisson_binomial_tail([0.5], -1)
        with pytest.raises(ValueError):
            projection.poisson_binomial_tail([0.5], 3)

    def test_matches_enumeration_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            probs = rng.random(n)
            k = int(rng.integers(0, n + 2))
            exact = projection.poisson_binomial_tail(probs, k)
            assert exact == pytest.approx(tail_by_enumeration(probs, k), abs=1e-12)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=9),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=120, deadline=None)
    def test_enumeration_property(self, probs, k):
        if k > len(probs) + 1:
            k = len(probs) + 1
        exact = projection.poisson_binomial_tail(probs, k)
        assert exact == pytest.approx(tail_by_enumeration(probs, k), abs=1e-12)

    def test_monotone_nonincreasing_in_k(self):
        rng = np.random.default_rng(4)
        probs = rng.random(15)
        tails = [projection.poisson_binomial_tail(probs, k) for k in range(17)]
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))

    def test_far_tail_keeps_relative_precision(self):
        # tail near 1e-20: one minus the mass below it would round to 0
        probs = np.linspace(0.03, 0.06, 15)
        exact = projection.poisson_binomial_tail(probs, 15)
        oracle = tail_by_enumeration(probs, 15)
        assert 1e-22 < oracle < 1e-19
        assert exact == pytest.approx(oracle, rel=1e-9)

    def test_class_tails_match_expanded_rows(self):
        rng = np.random.default_rng(8)
        q = rng.random((6, 4)) * 0.5
        q[2, 1] = 0.0
        q[4, 3] = 1.0
        sizes = np.array([1, 3, 2, 4])
        rows = np.repeat(np.arange(6), 3)
        ks = rng.integers(0, 12, size=rows.size)
        got = projection.class_tails(q, sizes, rows, ks)
        for r, k, t in zip(rows, ks, got):
            expanded = np.repeat(q[r], sizes)
            assert t == pytest.approx(tail_by_enumeration(expanded, k), abs=1e-12)


def binomial_pmfs_oracle(n, q, width):
    """The row-major binomial kernel the count-major one replaced: [r, j] is P(X_r = j)."""
    j = np.arange(width)
    with np.errstate(divide="ignore", invalid="ignore"):
        odds = np.log(q) - np.log1p(-q)
        steps = np.log(n - j[:-1]) - np.log(j[1:]) + odds[:, None]
        logs = np.cumsum(np.concatenate([(n * np.log1p(-q))[:, None], steps], axis=1), axis=1)
    return np.where(q[:, None] == 1.0, (j == n).astype(float), np.exp(logs))


class TestBinomialPmfs:
    @given(st.integers(0, 300), st.integers(0, 300),
           st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                    min_size=1, max_size=6))
    @example(n=5, cut=0, probs=[0.0, 1.0, 0.5])  # width 1
    @example(n=20, cut=7, probs=[0.0, 1.0, 0.3])  # width 8 < n + 1
    @example(n=4, cut=4, probs=[1.0, 0.25])  # width n + 1
    @settings(max_examples=200, deadline=None)
    def test_bits_equal_the_row_major_kernel_transposed(self, n, cut, probs):
        width = 1 + cut % (n + 1)
        q = np.array(probs)
        got = projection._binomial_pmfs(n, q, width)
        want = binomial_pmfs_oracle(n, q, width)
        assert got.shape == (width, q.size)
        assert np.array_equal(got.view(np.int64), want.T.view(np.int64))


def class_pmfs_oracle(q, sizes, length):
    """The row-major class-pmf convolution the count-major kernel replaced: [r, k] is P(V_r = k)."""
    pmf = np.zeros((q.shape[0], length))
    pmf[:, 0] = 1.0
    for n, qc in zip(sizes.tolist(), q.T):
        if qc.any():
            factor = binomial_pmfs_oracle(n, qc, min(n + 1, length))
            out = pmf * factor[:, :1]
            for j in range(1, factor.shape[1]):
                out[:, j:] += pmf[:, : length - j] * factor[:, j : j + 1]
            pmf = out
    return pmf


class TestClassPmfs:
    @pytest.mark.parametrize("length", [1, 2, 64])
    @pytest.mark.parametrize("seed", range(6))
    def test_bits_equal_the_row_major_convolution(self, length, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_classes = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        q = rng.random((n_rows, n_classes)) ** rng.uniform(0.2, 8.0, n_classes)
        q[rng.random(q.shape) < 0.2] = 0.0
        q[rng.random(q.shape) < 0.1] = 1.0
        q[:, rng.integers(n_classes)] = 0.0  # a class no row reaches
        # class sizes below and above the pmf length
        sizes = np.where(rng.random(n_classes) < 0.5, rng.integers(1, 4, n_classes),
                         rng.integers(length, 2 * length + 40, n_classes))
        got = projection._class_pmfs(q, sizes, length)
        want = class_pmfs_oracle(q, sizes, length)
        assert got.shape == (length, n_rows)
        assert np.array_equal(got.T.view(np.int64), want.view(np.int64))


class TestClassTails:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bits_keep_under_duplicates_reorders_and_small_row_groups(self, data):
        n_rows, n_classes = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 3))
        prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.3))
        q = np.array(data.draw(st.lists(st.lists(prob, min_size=n_classes, max_size=n_classes),
                                        min_size=n_rows, max_size=n_rows)))
        # supports past the pmf length, so the tail bound decides when a row is done
        sizes = np.array(data.draw(st.lists(st.integers(1, 400), min_size=n_classes,
                                            max_size=n_classes)))
        tests = data.draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, 80)),
                                   min_size=1, max_size=12))
        rows, ks = (np.array([t[i] for t in tests], dtype=np.int64) for i in (0, 1))
        want = projection.class_tails(q, sizes, rows, ks).view(np.int64)
        order = data.draw(st.permutations(range(rows.size)))
        again = data.draw(st.lists(st.integers(0, rows.size - 1), max_size=8))
        shuffled = np.array(order + again, dtype=np.int64)
        got = projection.class_tails(q, sizes, rows[shuffled], ks[shuffled])
        np.testing.assert_array_equal(got.view(np.int64), want[shuffled])
        with mock.patch.object(projection, "CELLS", 1 << 6):  # a row or two per group
            np.testing.assert_array_equal(
                projection.class_tails(q, sizes, rows, ks).view(np.int64), want)

    def test_pmf_length_is_exact_around_powers_of_two(self, monkeypatch):
        # the first pmf length is the least power of two >= need; ceil(np.log2) misses 2**49 + 1
        class Length(Exception):
            pass

        def stop(q, sizes, length):
            raise Length(length)

        monkeypatch.setattr(projection, "_class_pmfs", stop)
        for n in sorted({m for b in range(54) for m in (2**b - 1, 2**b, 2**b + 1)} - {0, 2**53 + 1}):
            # one class of n - 1 certain links: support n - 1 and need n
            with pytest.raises(Length) as length:
                projection.class_tails(np.ones((1, 1)), np.array([n - 1]), np.zeros(1, np.int64),
                                       np.zeros(1, np.int64))
            assert length.value.args[0] == next(2**b for b in itertools.count() if 2**b >= n), n

    def test_peak_follows_cells_not_rows(self):
        # 4,000 class pairs at pmf length 128: a kernel as wide as the batch and a
        # count x class-pair table of every tail took ~80 x CELLS * 8 bytes; groups take ~6
        rng = np.random.default_rng(5)
        q = rng.uniform(0.02, 0.2, (4000, 3))
        ks = rng.integers(1, 30, q.shape[0])
        tails, peak = traced_peak(projection.class_tails, q, np.array([60, 60, 60]),
                                  np.arange(q.shape[0]), ks)
        assert tails.size == q.shape[0] and (tails > 0.0).all()
        assert peak <= 8 * projection.CELLS * 8


def counts_of(graph):
    """``cooccurrences`` as a {(url_a, url_b): observed} dict, in its order."""
    url_a, url_b, observed = projection.cooccurrences(graph)
    return dict(zip(zip(url_a.tolist(), url_b.tolist()), observed.tolist()))


class TestClassPairs:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_keys_and_rows_equal_unique_with_inverse(self, data):
        # the counting tables' bounds: no pair, one class, up to 40² class pairs and counts to 50
        n_cls = data.draw(st.integers(1, 40))
        url_cls = np.array(data.draw(st.lists(st.integers(0, n_cls - 1), min_size=1, max_size=60)),
                           dtype=np.int64)
        url = st.integers(0, url_cls.size - 1)
        pairs = data.draw(st.lists(st.tuples(url, url), max_size=200))
        dtype = data.draw(st.sampled_from([np.int64, np.int32]))  # cooccurrences gives int32
        url_a, url_b = (np.array([p[i] for p in pairs], dtype=dtype) for i in (0, 1))
        max_count = data.draw(st.integers(1, 50))
        observed = np.array(data.draw(st.lists(st.integers(1, max_count), min_size=len(pairs),
                                               max_size=len(pairs))), dtype=dtype)
        before = [a.copy() for a in (url_cls, url_a, url_b, observed)]
        ca, cb = url_cls[url_a], url_cls[url_b]
        key = np.minimum(ca, cb) * n_cls + np.maximum(ca, cb)
        width = int(observed.max(initial=0)) + 1
        tests, index = np.unique(key * width + observed, return_inverse=True)
        want = (*np.unique(tests // width, return_inverse=True), tests % width, index)
        got = projection._class_pairs(url_cls, url_a, url_b, observed, n_cls)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        keys, rows, ks, index = got
        np.testing.assert_array_equal(keys[rows[index]], key)  # each pair reads its own test
        np.testing.assert_array_equal(ks[index], observed)
        for a, b in zip(before, (url_cls, url_a, url_b, observed)):
            np.testing.assert_array_equal(a, b)

    def test_pair_pvalues_peak_stays_within_six_pair_arrays(self, tmp_path):
        # planted scale M: an argsort and inverse over the class-pair keys took it past 11,
        # per-batch gathers of each finished row's tails past 9, and int64 copies of the
        # co-occurrence columns with a count x class-pair table of tails to 7.4
        generate_synthetic(SyntheticSpec(500, 20, 15), tmp_path / "posts.jsonl", tmp_path / "kb.csv")
        graph = bicm.build_graph(build_corpus(load_posts(tmp_path / "posts.jsonl")[0]))
        model = bicm.solve(graph)
        n_pairs = len(projection.cooccurrences(graph)[0])
        tests, peak = traced_peak(projection.pair_pvalues, graph, model)
        assert len(tests) == n_pairs > 80_000
        assert peak <= 6 * n_pairs * np.dtype(np.int64).itemsize


class TestCooccurrences:
    def test_disjoint_audiences_absent(self):
        g = bicm.BipartiteGraph.from_links([("u1", "a"), ("u2", "b")])
        assert [c.size for c in projection.cooccurrences(g)] == [0, 0, 0]

    def test_shared_pair_counted(self):
        g = bicm.BipartiteGraph.from_links(
            [("u1", "a"), ("u1", "b"), ("u2", "a"), ("u2", "b")]
        )
        columns = projection.cooccurrences(g)
        assert [c.tolist() for c in columns] == [[0], [1], [2]]
        assert all(c.dtype == np.int32 for c in columns)  # as the CSR product's columns were

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            adj = rng.random((12, 9)) < 0.35
            links = [(f"u{i}", f"a{j}") for i, j in zip(*np.nonzero(adj))]
            if not links:
                continue
            g = bicm.BipartiteGraph.from_links(links)
            matrix = dense(g.biadjacency)
            expected = {}
            for a in range(g.n_urls):
                for b in range(a + 1, g.n_urls):
                    c = int(np.sum(matrix[:, a] & matrix[:, b]))
                    if c:
                        expected[(a, b)] = c
            got = counts_of(g)
            assert got == expected
            assert list(got) == sorted(expected)

    @staticmethod
    def assert_matches_the_csr_product(g):
        adj = csr(g.biadjacency, np.int32)
        overlap = sparse.triu(adj.T @ adj, k=1).tocsr()
        overlap.sort_indices()
        pairs = overlap.tocoo()
        for got, want in zip(projection.cooccurrences(g), (pairs.row, pairs.col, pairs.data)):
            assert got.dtype == np.int32 and got.tolist() == want.tolist()

    def test_a_url_past_cells_and_a_heavy_user_match_the_csr_product(self):
        rng = np.random.default_rng(3)
        adj = rng.random((300, 400)) < 0.1
        adj[:, 0] = True
        adj[:, 1:120] |= rng.random((300, 119)) < 0.95  # URL 0's links meet > CELLS later links
        adj[7] = True  # one user shares every URL
        g = graph_of(adj)
        later = adj[:, 1:].sum(axis=1)
        assert later.sum() > projection.CELLS
        self.assert_matches_the_csr_product(g)

    def test_no_cooccurring_pair_gives_empty_int32_columns(self):
        g = graph_of(np.eye(6, dtype=bool))
        columns = projection.cooccurrences(g)
        assert [(c.dtype, c.size) for c in columns] == [(np.int32, 0)] * 3
        self.assert_matches_the_csr_product(g)

    @pytest.mark.parametrize("cells", [1, 5, 64])
    def test_blocks_of_any_size_match_the_csr_product(self, cells):
        rng = np.random.default_rng(cells)
        with mock.patch.object(projection, "CELLS", cells):
            for _ in range(30):
                adj = rng.random(tuple(rng.integers(1, 14, 2))) < rng.random()
                if adj.any():
                    self.assert_matches_the_csr_product(graph_of(adj))


class TestPairPvalue:
    def test_observed_zero_gives_one(self):
        g = bicm.BipartiteGraph.from_links([("u1", "a1"), ("u2", "a2")])
        model = bicm.solve(g)
        t = projection.pair_pvalue(model, (0, 1), 0)
        assert t.pvalue == 1.0

    def test_symmetric_two_user_model(self):
        # all link probabilities 0.5, so q = 0.25 per user; P(V >= 2) = 0.0625
        g = bicm.BipartiteGraph.from_links(
            [("u1", "a1"), ("u2", "a2")]
        )
        model = bicm.solve(g, tol=1e-12)
        t = projection.pair_pvalue(model, (0, 1), 2)
        assert t.pvalue == pytest.approx(0.0625, abs=1e-9)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(23)
        adj = rng.random((40, 6)) < 0.4
        links = [(f"u{i:02d}", f"a{j}") for i, j in zip(*np.nonzero(adj))]
        g = bicm.BipartiteGraph.from_links(links)
        model = bicm.solve(g, tol=1e-10)
        p = bicm.probability_matrix(model)
        a, b = 0, 1
        q = p[:, a] * p[:, b]
        observed = 3
        exact = projection.pair_pvalue(model, (a, b), observed).pvalue
        n_samples = 40_000
        draws = rng.random((n_samples, q.size)) < q
        hits = (draws.sum(axis=1) >= observed).mean()
        se = np.sqrt(exact * (1 - exact) / n_samples)
        assert abs(exact - hits) <= 3 * se + 1e-12

    def test_far_tail_pair_against_enumeration(self):
        # 15 users with link probabilities 0.17-0.23: co-share chances 0.03-0.05
        n = 15
        model = bicm.BicmModel(
            x=np.linspace(0.2, 0.3, n), y=np.ones(2), forced_links=frozenset(),
            residual=0.0, iterations=0,
        )
        q = bicm.probability_matrix(model)[:, 0] ** 2
        oracle = tail_by_enumeration(q, 14)
        assert 1e-21 < oracle < 1e-17
        got = projection.pair_pvalue(model, (0, 1), 14).pvalue
        assert got == pytest.approx(oracle, rel=1e-9)


def expanded_tails_agree(graph, model):
    """Every pair's class-reduced tail equals the per-user tail of its pair."""
    p = bicm.probability_matrix(model)
    tests = projection.pair_pvalues(graph, model)
    assert [(t.url_a, t.url_b) for t in tests] == sorted(counts_of(graph))
    for t in tests:
        q = p[:, t.url_a] * p[:, t.url_b]
        assert t.pvalue == pytest.approx(
            projection.poisson_binomial_tail(q, t.observed), abs=1e-12
        )
        if q.size <= 10:
            assert t.pvalue == pytest.approx(tail_by_enumeration(q, t.observed), abs=1e-12)
        single = projection.pair_pvalue(model, (t.url_a, t.url_b), t.observed)
        assert single.pvalue == pytest.approx(t.pvalue, rel=1e-12)


def pair_tests_oracle(graph, model):
    """``pair_pvalues`` built through a pair dict and one ``PairTest`` per pair."""
    adj = csr(graph.biadjacency, np.int32)
    overlap = sparse.triu(adj.T @ adj, k=1).tocsr()
    overlap.sort_indices()
    pairs = overlap.tocoo()
    counts = dict(zip(zip(pairs.row.tolist(), pairs.col.tolist()), pairs.data.tolist()))
    pairs = np.fromiter(
        itertools.chain.from_iterable(counts), dtype=np.int64, count=2 * len(counts)
    )
    observed = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    p, sizes, url_cls = projection._class_probabilities(model)
    ends = np.sort(url_cls[pairs.reshape(-1, 2)], axis=1)
    n_cls = p.shape[1]
    keys, rows = np.unique(ends[:, 0] * n_cls + ends[:, 1], return_inverse=True)
    tails = projection.class_tails(
        (p[:, keys // n_cls] * p[:, keys % n_cls]).T, sizes, rows, observed
    )
    return [
        projection.PairTest(a, b, k, t)
        for (a, b), k, t in zip(counts, observed.tolist(), tails.tolist())
    ]


def singleton_class_probabilities(model):
    """``_class_probabilities`` as it was when each node with a forced link stood alone."""

    def classes(fitness, own):
        ids = np.unique(fitness, return_inverse=True)[1]
        own = np.unique(own)
        ids[own] = ids.size + np.arange(own.size)
        return np.unique(ids, return_inverse=True)[1]

    forced = np.array(sorted(model.forced_links), dtype=np.int64).reshape(-1, 2)
    user_cls = classes(model.x, forced[:, 0])
    url_cls = classes(model.y, forced[:, 1])
    x = np.nan_to_num(model.x[np.unique(user_cls, return_index=True)[1]], posinf=0.0)
    y = np.nan_to_num(model.y[np.unique(url_cls, return_index=True)[1]], posinf=0.0)
    t = np.outer(x, y)
    p = t / (1.0 + t)
    p[user_cls[forced[:, 0]], url_cls[forced[:, 1]]] = 1.0
    return p, np.bincount(user_cls), url_cls


def graph_of(adj):
    links = [(f"u{i:02d}", f"a{j:02d}") for i, j in zip(*np.nonzero(adj))]
    return bicm.BipartiteGraph.from_links(links)


class TestClassReduction:
    def test_random_graphs(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            g = graph_of(rng.random((40, 15)) < 0.3)
            expanded_tails_agree(g, bicm.solve(g))

    def test_pinned_user_and_url(self):
        rng = np.random.default_rng(42)
        adj = rng.random((12, 8)) < 0.3
        adj[0, :] = True          # a full-degree user: pinned, fitness inf
        adj[:, 3] = True          # a URL every user shared: pinned
        g = graph_of(adj)
        model = bicm.solve(g)
        assert np.isinf(model.x).any() and np.isinf(model.y).any()
        assert model.forced_links
        expanded_tails_agree(g, model)

    def test_exhausted_nodes_carry_zero_fitness(self):
        # u0 shares every URL; a2 is only shared by u0, so peeling leaves it at 0
        g = bicm.BipartiteGraph.from_links(
            [("u0", "a0"), ("u0", "a1"), ("u0", "a2"), ("u1", "a0"),
             ("u2", "a1"), ("u3", "a0"), ("u3", "a1")]
        )
        model = bicm.solve(g)
        assert (model.y == 0.0).any()
        expanded_tails_agree(g, model)

    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**54),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_small_biadjacencies(self, n, m, seed, full_row, full_col):
        rng = np.random.default_rng(seed)
        adj = rng.random((n, m)) < 0.45
        adj[0, :] |= full_row
        adj[:, 0] |= full_col
        if not adj.any():
            return
        g = graph_of(adj)
        try:
            model = bicm.solve(g)
        except bicm.ConvergenceError:
            return
        expanded_tails_agree(g, model)
        got = list(projection.pair_pvalues(g, model))
        oracle = pair_tests_oracle(g, model)
        fields = [[(type(v), v) for v in vars(t).values()] for t in got]
        assert fields == [[(type(v), v) for v in vars(t).values()] for t in oracle]

    def test_validation_builds_no_pair_objects(self, monkeypatch):
        made = []
        pair_test = projection.PairTest

        def counting(*args, **kwargs):
            made.append(args)
            return pair_test(*args, **kwargs)

        monkeypatch.setattr(projection, "PairTest", counting)
        # two blocks of 4 URLs, each shared mostly by its own half of 60 users
        block = np.arange(60)[:, None] * 2 // 60 == np.arange(8)[None, :] // 4
        g = graph_of(np.random.default_rng(8).random((60, 8)) < np.where(block, 0.8, 0.05))
        net = projection.validate_projection(g, bicm.solve(g))
        assert net.n_tested > 0 and net.n_edges > 0
        assert made == []

    def test_a_url_every_user_shares_keeps_the_fitness_classes(self, tmp_path, monkeypatch):
        # planted scale M, seed 0, plus one URL that every user shares: one forced link per user
        generate_synthetic(SyntheticSpec(500, 20, 15, seed=0), tmp_path / "posts.jsonl",
                           tmp_path / "kb.csv")
        posts = list(raw_posts(tmp_path / "posts.jsonl"))
        posts += [RawPost(f"all-{u}", u, 0.0, ("https://everyone.com/story",), "original")
                  for u in sorted({p.user_id for p in posts})]
        graph = bicm.build_graph(build_corpus(posts))
        model = bicm.solve(graph)
        assert len(model.forced_links) == graph.n_users
        _, sizes, _ = projection._class_probabilities(model)
        assert sizes.size == np.unique(model.x).size
        tests = projection.pair_pvalues(graph, model)
        network = projection.validate_projection(graph, model)
        monkeypatch.setattr(projection, "_class_probabilities", singleton_class_probabilities)
        assert singleton_class_probabilities(model)[1].size == graph.n_users
        want_tests = projection.pair_pvalues(graph, model)
        want = projection.validate_projection(graph, model)
        assert network.n_edges > 0
        assert [e[:2] for e in network.edges] == [e[:2] for e in want.edges]
        np.testing.assert_allclose(tests.pvalue, want_tests.pvalue, rtol=1e-12, atol=0.0)


def bh_oracle(pvalues, alpha, m):
    """Literal BH definition: sort, find the largest passing rank."""
    ordered = sorted(pvalues)
    r = 0
    for i, p in enumerate(ordered, start=1):
        if p <= i * alpha / m:
            r = i
    if r == 0:
        return set()
    cutoff = ordered[r - 1]
    return {i for i, p in enumerate(pvalues) if p <= cutoff}


def bh_scan_oracle(pvalues, alpha, n_hypotheses):
    """The sort-based scan ``bh_scan`` replaced: one cutoff r * alpha / M per sorted p-value."""
    order = np.sort(pvalues)
    cutoffs = np.arange(1.0, order.size + 1)
    cutoffs *= alpha
    cutoffs /= n_hypotheses
    passing = order <= cutoffs
    if not passing.any():
        return 0, 0.0
    r = int(np.max(np.where(passing)[0])) + 1
    return r, float(order[r - 1])


#: p-values with heavy ties: the extremes, cutoffs r * alpha / M of small M, and a few others
TIED_PVALUES = [0.0, 5e-324, 1e-300, 1e-12, 0.0025, 0.005, 0.01, 0.0125, 0.02, 0.025, 0.05,
                0.1, 0.25, 0.5, 1.0]


class TestBhScanOracle:
    @given(st.lists(st.one_of(st.sampled_from(TIED_PVALUES), st.floats(0.0, 1.0)), max_size=60),
           st.integers(0, 30), st.integers(0, 30),
           st.sampled_from([1e-6, 0.01, 0.05, 0.1, 0.2, 0.5, 0.999]))
    @example(values=[0.0, 0.0, 5e-324], ones=0, untested=0, alpha=0.05)
    @example(values=[0.0025] * 4 + [1.0], ones=3, untested=12, alpha=0.05)  # ties on their cutoff
    @settings(max_examples=300, deadline=None)
    def test_rank_and_threshold_bits_equal_the_sort_scan(self, values, ones, untested, alpha):
        pv = np.array(values + [1.0] * ones, dtype=float)  # tested pairs at p = 1 pad the list
        m = max(pv.size + untested, 1)
        rank, threshold = projection.bh_scan(pv, alpha, m)
        want_rank, want_threshold = bh_scan_oracle(pv, alpha, m)
        assert (rank, threshold.hex()) == (want_rank, want_threshold.hex())
        assert type(rank) is int and type(threshold) is float


class TestBhValidation:
    def test_hand_executed_scan(self):
        pv = np.array([0.001, 0.01, 0.02, 0.04, 0.9])
        rank, threshold = projection.bh_scan(pv, 0.05, 5)
        assert rank == 4
        assert threshold == 0.04

    def test_all_ones_rejects_nothing(self):
        pv = np.ones(10)
        rank, threshold = projection.bh_scan(pv, 0.05, 10)
        assert rank == 0

    def test_single_small_pvalue_validated(self):
        rank, threshold = projection.bh_scan(np.array([0.01]), 0.05, 1)
        assert rank == 1

    def test_matches_brute_force_over_random_trials(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            m = n + int(rng.integers(0, 50))
            pv = rng.random(n)
            rank, threshold = projection.bh_scan(pv, 0.05, m)
            expected = bh_oracle(pv.tolist(), 0.05, m)
            got = {i for i, p in enumerate(pv) if rank and p <= threshold}
            assert got == expected

    def test_untested_pairs_at_one_change_nothing(self):
        rng = np.random.default_rng(6)
        pv = rng.random(20) * 0.2
        m = 400
        r1, t1 = projection.bh_scan(pv, 0.05, m)
        padded = np.concatenate([pv, np.ones(m - pv.size)])
        r2, t2 = projection.bh_scan(padded, 0.05, m)
        assert (r1, t1) == (r2, t2)

    def test_shrinking_alpha_never_adds_edges(self):
        rng = np.random.default_rng(31)
        pv = rng.random(200) * 0.3
        m = 500
        kept_sets = []
        for alpha in (0.2, 0.1, 0.05, 0.01):
            rank, threshold = projection.bh_scan(pv, alpha, m)
            kept_sets.append(frozenset(np.nonzero(pv <= threshold)[0]) if rank else frozenset())
        for bigger, smaller in zip(kept_sets, kept_sets[1:]):
            assert smaller <= bigger

    def test_validated_network_contract(self):
        rng = np.random.default_rng(12)
        adj = rng.random((30, 12)) < 0.5
        links = [(f"u{i:02d}", f"a{j:02d}") for i, j in zip(*np.nonzero(adj))]
        g = bicm.BipartiteGraph.from_links(links)
        model = bicm.solve(g)
        net = projection.validate_projection(g, model, alpha=0.4)
        assert net.n_hypotheses == g.n_urls * (g.n_urls - 1) // 2
        counts = counts_of(g)
        index = g.url_index
        for a, b, p in net.edges:
            assert p <= net.bh_threshold <= net.alpha
            ia, ib = sorted((index[a], index[b]))
            assert counts[(ia, ib)] >= 1

    def test_edges_in_ascending_url_index_order(self):
        # three blocks of 4 URLs, each shared mostly by its own third of 100 users
        rng = np.random.default_rng(14)
        block = np.arange(100)[:, None] * 3 // 100 == np.arange(12)[None, :] // 4
        adj = rng.random((100, 12)) < np.where(block, 0.8, 0.05)
        links = [(f"u{i:03d}", f"a{j:02d}") for i, j in zip(*np.nonzero(adj))]
        g = bicm.BipartiteGraph.from_links(links)
        net = projection.validate_projection(g, bicm.solve(g))
        index = g.url_index
        pairs = [(index[a], index[b]) for a, b, _ in net.edges]
        assert len(pairs) > 1
        assert all(a < b for a, b in pairs)
        assert pairs == sorted(pairs)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(13)
        adj = rng.random((25, 10)) < 0.4
        links = [(f"u{i:02d}", f"a{j}") for i, j in zip(*np.nonzero(adj))]
        g = bicm.BipartiteGraph.from_links(links)
        net = projection.validate_projection(g, bicm.solve(g), alpha=0.3)
        renamed = [(u, a.replace("a", "z")) for u, a in links]
        g2 = bicm.BipartiteGraph.from_links(renamed)
        net2 = projection.validate_projection(g2, bicm.solve(g2), alpha=0.3)
        edges1 = {(a.replace("a", "z"), b.replace("a", "z")) for a, b, _ in net.edges}
        edges2 = {(a, b) for a, b, _ in net2.edges}
        assert edges1 == edges2

    def test_empty_tests_give_empty_network(self):
        g = bicm.BipartiteGraph.from_links([("u1", "a1"), ("u2", "a2")])
        empty = np.empty(0, dtype=np.int64)
        net = projection.bh_validate(projection.PairTests(empty, empty, empty, np.empty(0)), 0.05, 1, g)
        assert net.edges == []
        assert net.validated_urls == set()
