import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from trustnet import bicm
from trustnet.ingest import RawPost, build_corpus

from conftest import dense


def graph_from(links):
    return bicm.BipartiteGraph.from_links(links)


THREE_BY_THREE = [("u1", "a1"), ("u1", "a2"), ("u2", "a1"), ("u3", "a3")]

# Oracle for the (2,1,1) x (2,1,1) degree system, derived independently of the
# solver: with u = P(deg2-deg2 link), v = P(deg2-deg1), w = P(deg1-deg1), the
# constraints collapse to u + 2v = 2, v + 2w = 1 and consistency of the
# fitness products forces v^2 (2v-1)(1+v) = 2 (1-v)^4. Root found by brentq
# and frozen below.
ORACLE_V = 0.5684414426685216
ORACLE_U = 0.8631171146629568
ORACLE_W = 0.2157792786657392


class TestBuildGraph:
    def test_two_users_two_urls(self):
        posts = [
            RawPost("p1", "u1", 0.0, ("https://s1.com/a",), "original"),
            RawPost("p2", "u2", 0.0, ("https://s2.com/b",), "original"),
        ]
        g = bicm.build_graph(build_corpus(posts))
        assert (g.n_users, g.n_urls, g.n_links) == (2, 2, 2)

    def test_repeat_shares_collapse_to_one_link(self):
        posts = [
            RawPost(f"p{i}", "u1", float(i), ("https://s1.com/a",), "original")
            for i in range(3)
        ]
        g = bicm.build_graph(build_corpus(posts))
        assert g.n_links == 1

    def test_degree_conservation(self):
        posts = [
            RawPost("p1", "u1", 0.0, ("https://s1.com/a", "https://s2.com/b"), "original"),
            RawPost("p2", "u2", 0.0, ("https://s1.com/a",), "original"),
            RawPost("p3", "u3", 0.0, ("https://s3.com/c",), "original"),
        ]
        g = bicm.build_graph(build_corpus(posts))
        assert g.user_degrees.sum() == g.url_degrees.sum() == 4

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bicm.build_graph(build_corpus([]))

    def test_ids_sorted_whatever_the_link_order(self):
        links = [("u3", "a2"), ("u1", "a3"), ("u2", "a1"), ("u1", "a2")]
        first = graph_from(links)
        for order in itertools.permutations(links):
            g = graph_from(order)
            assert g.user_ids == ("u1", "u2", "u3")
            assert g.url_ids == ("a1", "a2", "a3")
            assert (dense(g.biadjacency) == dense(first.biadjacency)).all()

    def test_zero_degree_nodes_absent(self):
        g = graph_from([("u1", "a1")])
        assert g.user_ids == ("u1",)
        assert g.url_ids == ("a1",)


class TestSolve:
    def test_all_degree_one_gives_uniform_half(self):
        g = graph_from([("u1", "a1"), ("u2", "a2")])
        model = bicm.solve(g)
        p = bicm.probability_matrix(model)
        assert np.allclose(p, 0.5, atol=1e-7)

    def test_full_degree_user_is_pinned(self):
        g = graph_from(
            [("u1", "a1"), ("u1", "a2"), ("u1", "a3"), ("u2", "a1"), ("u3", "a2")]
        )
        model = bicm.solve(g)
        p = bicm.probability_matrix(model)
        assert (p[g.user_ids.index("u1")] == 1.0).all()
        assert bicm.degree_residual(g, model) <= 1e-8

    def test_three_by_three_matches_independent_oracle(self):
        g = graph_from(THREE_BY_THREE)
        model = bicm.solve(g, tol=1e-10)
        p = bicm.probability_matrix(model)
        idx_u = {u: i for i, u in enumerate(g.user_ids)}
        idx_a = g.url_index
        assert p[idx_u["u1"], idx_a["a1"]] == pytest.approx(ORACLE_U, abs=1e-8)
        assert p[idx_u["u1"], idx_a["a2"]] == pytest.approx(ORACLE_V, abs=1e-8)
        assert p[idx_u["u2"], idx_a["a3"]] == pytest.approx(ORACLE_W, abs=1e-8)
        # recompute the oracle root live; the frozen value must be its root
        f = lambda v: v * v * (2 * v - 1) * (1 + v) - 2 * (1 - v) ** 4
        assert brentq(f, 0.5 + 1e-12, 1 - 1e-12, xtol=1e-14) == pytest.approx(
            ORACLE_V, abs=1e-12
        )
        # all six degree constraints hold
        exp_k, exp_d = bicm.expected_degrees(model)
        assert np.allclose(exp_k, g.user_degrees, rtol=1e-8)
        assert np.allclose(exp_d, g.url_degrees, rtol=1e-8)

    def test_equal_degrees_share_fitness_exactly(self):
        g = graph_from(THREE_BY_THREE)
        model = bicm.solve(g)
        assert model.x[g.user_ids.index("u2")] == model.x[g.user_ids.index("u3")]
        assert model.y[g.url_index["a2"]] == model.y[g.url_index["a3"]]

    def test_permutation_equivariance(self):
        g = graph_from(THREE_BY_THREE)
        model = bicm.solve(g)
        renamed = [(u.replace("u", "z"), a.replace("a", "b")) for u, a in THREE_BY_THREE]
        g2 = graph_from(renamed)
        model2 = bicm.solve(g2)
        for u, a in THREE_BY_THREE:
            i, j = g.user_ids.index(u), g.url_index[a]
            i2 = g2.user_ids.index(u.replace("u", "z"))
            j2 = g2.url_index[a.replace("a", "b")]
            assert model.x[i] == pytest.approx(model2.x[i2], rel=1e-12)
            assert model.y[j] == pytest.approx(model2.y[j2], rel=1e-12)

    def test_degree_reproduction_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n, m = rng.integers(10, 40), rng.integers(10, 60)
            density = rng.uniform(0.05, 0.3)
            adj = rng.random((n, m)) < density
            links = [(f"u{i}", f"a{j}") for i, j in zip(*np.nonzero(adj))]
            if not links:
                continue
            g = graph_from(links)
            model = bicm.solve(g, tol=1e-8)
            assert bicm.degree_residual(g, model) <= 1e-8

    def test_newton_polish_rescues_a_stalled_sweep(self, monkeypatch):
        # the fixed point stalls on this 9-link graph after 271 sweeps
        links = [("u00", "a00"), ("u00", "a01"), ("u00", "a04"), ("u01", "a00"),
                 ("u01", "a02"), ("u01", "a04"), ("u02", "a04"), ("u03", "a00"),
                 ("u04", "a04")]
        g = graph_from(links)
        stalled = []
        polish = bicm._newton_polish

        def counted(xs, ys, ks, ds, ck, ed, tol):
            stalled.append(bicm._class_residual(xs, ys, ks, ds, ck, ed))
            return polish(xs, ys, ks, ds, ck, ed, tol)

        monkeypatch.setattr(bicm, "_newton_polish", counted)
        model = bicm.solve(g, tol=1e-8)
        assert model.iterations == 271
        assert len(stalled) == 1 and stalled[0] > 1e-8
        assert bicm.degree_residual(g, model) <= 1e-8

    def test_non_convergence_raises_with_residual(self):
        # tol below machine precision on an irregular system cannot be met
        rng = np.random.default_rng(3)
        adj = rng.random((20, 30)) < 0.2
        links = [(f"u{i:02d}", f"a{j:02d}") for i, j in zip(*np.nonzero(adj))]
        with pytest.raises(bicm.ConvergenceError) as err:
            bicm.solve(graph_from(links), tol=1e-18, max_iter=5)
        assert err.value.residual > 0

    def test_bad_parameters(self):
        g = graph_from(THREE_BY_THREE)
        with pytest.raises(ValueError):
            bicm.solve(g, tol=0.0)
        with pytest.raises(ValueError):
            bicm.solve(g, max_iter=0)


# The pin-and-peel rule as two hand-copied halves, one per layer, with the
# pinned nodes as sets: the oracle the one-step rule in bicm must match.
def reduce_degenerate_oracle(k: np.ndarray, d: np.ndarray):
    """Pin full-degree nodes to probability-1 links and peel exhausted nodes.

    Returns (active_users, active_urls, remaining user degrees, remaining URL
    degrees, forced link index pairs, pinned user set, pinned URL set).
    Iterates because pinning can cascade.
    """
    k = k.astype(np.int64).copy()
    d = d.astype(np.int64).copy()
    active_u = np.ones(k.size, dtype=bool)
    active_a = np.ones(d.size, dtype=bool)
    forced: list[tuple[int, int]] = []
    pinned_users: set[int] = set()
    pinned_urls: set[int] = set()
    changed = True
    while changed:
        changed = False
        m_eff = int(active_a.sum())
        full_u = active_u & (k == m_eff) & (k > 0)
        if full_u.any():
            url_idx = np.where(active_a)[0]
            for i in np.where(full_u)[0]:
                pinned_users.add(int(i))
                forced.extend((int(i), int(a)) for a in url_idx)
            d[active_a] -= int(full_u.sum())
            k[full_u] = 0
            active_u[full_u] = False
            changed = True
        n_eff = int(active_u.sum())
        full_a = active_a & (d == n_eff) & (d > 0)
        if full_a.any():
            user_idx = np.where(active_u)[0]
            for a in np.where(full_a)[0]:
                pinned_urls.add(int(a))
                forced.extend((int(i), int(a)) for i in user_idx)
            k[active_u] -= int(full_a.sum())
            d[full_a] = 0
            active_a[full_a] = False
            changed = True
        dead_u = active_u & (k == 0)
        if dead_u.any():
            active_u[dead_u] = False
            changed = True
        dead_a = active_a & (d == 0)
        if dead_a.any():
            active_a[dead_a] = False
            changed = True
    return active_u, active_a, k, d, forced, pinned_users, pinned_urls


@st.composite
def biadjacencies(draw):
    """1x1 to 8x8 boolean matrices of any density, 0-2 rows or columns forced full."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    density = draw(st.floats(0.0, 1.0))
    adj = draw(arrays(np.float64, (n, m), elements=st.floats(0.0, 1.0))) < density
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            adj[draw(st.integers(0, n - 1)), :] = True
        else:
            adj[:, draw(st.integers(0, m - 1))] = True
    if not adj.any():
        adj[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = True
    return adj


def solved_bytes(graph):
    """What ``solve`` returns on ``graph``, as bytes, or the error it raises."""
    try:
        model = bicm.solve(graph)
    except bicm.ConvergenceError as err:
        return str(err)
    return (model.x.tobytes(), model.y.tobytes(), model.forced_links, model.residual,
            model.iterations)


class TestReduceDegenerate:
    @given(biadjacencies())
    # u1 pins, then a1 links every user left and pins, which exhausts u2 and
    # a3; u3 is then full on a2 alone and pins in the second pass
    @example(np.array([[True, True, True], [True, False, False], [True, True, False]]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_two_layer_oracle(self, adj):
        # from_links drops the rows and columns that hold no link
        g = graph_from([(f"u{i}", f"a{j}") for i, j in zip(*np.nonzero(adj))])
        got = bicm._reduce_degenerate(g.user_degrees, g.url_degrees)
        want = reduce_degenerate_oracle(g.user_degrees, g.url_degrees)
        for mine, theirs in zip(got[:4], want[:4]):
            assert np.array_equal(mine, theirs)
        assert set(got[4]) == set(want[4])
        assert (set(np.flatnonzero(got[5])), set(np.flatnonzero(got[6]))) == want[5:]

        def oracle_with_masks(k, d):
            *head, pinned_users, pinned_urls = reduce_degenerate_oracle(k, d)
            masks = np.zeros(k.size, dtype=bool), np.zeros(d.size, dtype=bool)
            masks[0][list(pinned_users)] = True
            masks[1][list(pinned_urls)] = True
            return (*head, *masks)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bicm, "_reduce_degenerate", oracle_with_masks)
            want_solved = solved_bytes(g)
        assert solved_bytes(g) == want_solved


class TestLinkProbability:
    def test_zero_fitness_gives_zero(self):
        model = _toy_model(x=[0.0, 1.0], y=[1.0, 1.0])
        assert bicm.probability_matrix(model)[0, 0] == 0.0

    def test_unit_product_gives_half(self):
        model = _toy_model(x=[1.0, 1.0], y=[1.0, 1.0])
        assert bicm.probability_matrix(model)[0, 0] == 0.5

    def test_forced_link_is_one(self):
        model = _toy_model(x=[np.inf, 1.0], y=[1.0, 1.0], forced={(0, 0), (0, 1)})
        assert bicm.probability_matrix(model)[0, 0] == 1.0


def _toy_model(x, y, forced=()):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return bicm.BicmModel(
        x=x,
        y=y,
        forced_links=frozenset(forced),
        residual=0.0,
        iterations=0,
    )


def enumerate_ensemble(model):
    """Brute-force distribution over all biadjacency matrices."""
    p = bicm.probability_matrix(model)
    n, m = p.shape
    total = 0.0
    mean_k = np.zeros(n)
    mean_d = np.zeros(m)
    for bits in itertools.product((0, 1), repeat=n * m):
        a = np.array(bits, dtype=float).reshape(n, m)
        prob = float(np.prod(np.where(a == 1, p, 1.0 - p)))
        total += prob
        mean_k += prob * a.sum(axis=1)
        mean_d += prob * a.sum(axis=0)
    return total, mean_k, mean_d


class TestEnsemble:
    @pytest.mark.parametrize(
        "links",
        [
            [("u1", "a1"), ("u2", "a2")],
            [("u1", "a1"), ("u1", "a2"), ("u2", "a1")],
            THREE_BY_THREE,
            [("u1", "a1"), ("u1", "a2"), ("u1", "a3"), ("u1", "a4"),
             ("u2", "a1"), ("u2", "a2"), ("u3", "a3")],
        ],
    )
    def test_enumeration_normalizes_and_matches_constraints(self, links):
        g = graph_from(links)
        assert g.n_users * g.n_urls <= 12
        model = bicm.solve(g, tol=1e-12)
        total, mean_k, mean_d = enumerate_ensemble(model)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(mean_k - g.user_degrees)) <= 1e-8
        assert np.max(np.abs(mean_d - g.url_degrees)) <= 1e-8


class TestSample:
    def test_all_zero_probabilities_give_empty_graph(self):
        model = _toy_model(x=[0.0, 0.0], y=[1.0, 1.0])
        g = bicm.sample(graph_from([("u0", "a0"), ("u1", "a1")]), model, seed=1)
        assert g.n_links == 0
        assert g.n_users == 0

    def test_all_forced_gives_complete_graph(self):
        g = graph_from([(u, a) for u in ("u1", "u2") for a in ("a1", "a2", "a3")])
        model = bicm.solve(g)
        sampled = bicm.sample(g, model, seed=1)
        assert sampled.n_links == 6

    def test_seed_reproducibility(self):
        g = graph_from(THREE_BY_THREE)
        model = bicm.solve(g)
        s1 = bicm.sample(g, model, seed=9)
        s2 = bicm.sample(g, model, seed=9)
        assert (dense(s1.biadjacency) == dense(s2.biadjacency)).all()

    def test_monte_carlo_mean_degrees(self):
        g = graph_from(THREE_BY_THREE)
        model = bicm.solve(g, tol=1e-10)
        p = bicm.probability_matrix(model)
        n_samples = 10_000
        counts = {u: 0 for u in g.user_ids}
        for s in range(n_samples):
            drawn = bicm.sample(g, model, seed=s)
            idx = {u: i for i, u in enumerate(drawn.user_ids)}
            for u in g.user_ids:
                if u in idx:
                    counts[u] += int(drawn.user_degrees[idx[u]])
        for i, u in enumerate(g.user_ids):
            mean = counts[u] / n_samples
            se = np.sqrt(np.sum(p[i] * (1 - p[i])) / n_samples)
            assert abs(mean - g.user_degrees[i]) <= 3 * se + 1e-9
