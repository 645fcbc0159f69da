"""Statistical validation of URL co-occurrences against the null model.

For every URL pair sharing at least one user, the observed co-occurrence
count is compared to its null distribution: a sum of independent Bernoulli
variables with success probabilities p_{i,a} * p_{i,b} (one per user).

Under the null a link probability depends only on the two fitnesses and on
whether the link is forced, so users with equal fitness and equal forced-link
partners form one class, and URLs another. A pair's count distribution then
depends only on its unordered URL-class pair: it is the convolution of one
Binomial(n_c, q_c) per user class c. One pmf per class pair, built count-major
(a row per count, a column per class pair) in row groups of bounded size, serves
each distinct (class pair, count) test, whose tail is summed directly, so far-tail
p-values keep their relative precision. A Benjamini-Hochberg scan over the distinct
p-values, sized to all possible URL pairs, keeps the validated URL network. Pairs
stay numpy arrays, 20 bytes each, up to that cut: only validated edges become tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bicm import BicmModel, BipartiteGraph

#: a truncated pmf may drop at most this fraction of the smallest tail read from it
TRUNCATION = 1e-16
#: most cells of a work block: counts x class pairs of a pmf row group, or co-occurrence meetings
CELLS = 1 << 15


@dataclass(frozen=True)
class PairTest:
    url_a: int
    url_b: int
    observed: int
    pvalue: float


@dataclass(frozen=True)
class PairTests:
    """Tests as parallel arrays, one entry per pair; iterating yields ``PairTest``s."""

    url_a: np.ndarray
    url_b: np.ndarray
    observed: np.ndarray
    pvalue: np.ndarray

    def __len__(self) -> int:
        return self.pvalue.size

    def __iter__(self):
        columns = (self.url_a, self.url_b, self.observed, self.pvalue)
        return map(PairTest, *(c.tolist() for c in columns))


@dataclass
class ValidatedNetwork:
    """URL pairs that co-occurred significantly more than the null predicts.

    ``urls`` is the full tested universe (every URL of the bipartite graph);
    the validated node set A_val contains only URLs incident to a surviving
    edge. ``validated_urls`` is A_val and ``url_mask`` marks it over ``urls``;
    each is built once, on first use, so ``edges`` must not change after that.
    """

    urls: tuple[str, ...]
    edges: list[tuple[str, str, float]]
    alpha: float
    n_hypotheses: int
    bh_threshold: float
    n_tested: int = 0

    @cached_property
    def validated_urls(self) -> frozenset[str]:
        return frozenset(url for a, b, _ in self.edges for url in (a, b))

    @cached_property
    def url_mask(self) -> np.ndarray:
        """Read-only bool over ``urls``: set on each validated URL."""
        mask = np.array([url in self.validated_urls for url in self.urls], dtype=bool)
        mask.flags.writeable = False
        return mask

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def cooccurrences(graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common users of every URL column pair that has any.

    Link (u, a) meets each later link (u, b) of its user's row, so a < b. The
    links are walked URL-major in blocks of at most ``CELLS`` meetings, cut
    between URLs (a URL with more fills a block alone), and ``np.unique``
    counts each block's a·n + b keys. Returns int32 (url_a, url_b, observed),
    ascending by (url_a, url_b).
    """
    adj, n = graph.biadjacency, graph.n_urls
    later = np.cumsum(graph.user_degrees)[adj.rows] - np.arange(1, adj.rows.size + 1)  # meetings
    order = np.argsort(adj.cols, kind="stable")  # URL-major, users ascending
    first = np.concatenate(([0], np.cumsum(graph.url_degrees)))  # URL j's links in ``order``
    reach = np.concatenate(([0], np.cumsum(later[order])))[first]  # meetings before URL j
    columns, j = [[np.empty(0, dtype=np.int32)] for _ in range(3)], 0
    while j < n:
        stop = max(int(np.searchsorted(reach, reach[j] + CELLS, side="right")) - 1, j + 1)
        links = order[first[j]:first[stop]]
        meets = later[links]
        met = np.repeat(links + 1 - np.cumsum(meets) + meets, meets) + np.arange(meets.sum())
        keys, counts = np.unique(np.repeat(adj.cols[links] * n, meets) + adj.cols[met],
                                 return_counts=True)
        for column, part in zip(columns, (keys // n, keys % n, counts)):
            column.append(part.astype(np.int32))
        j = stop
    # joined a column at a time, so each column's blocks are freed before the next is joined
    return tuple(np.concatenate(columns.pop(0)) for _ in range(3))


def _binomial_pmfs(n: int, q: np.ndarray, width: int) -> np.ndarray:
    """Binomial(n, q[r]) pmf over 0..width-1, count-major: [j, r] is P(X_r = j).

    From summed log ratios pmf[j+1] / pmf[j] = (n - j) / (j + 1) * q / (1 - q);
    in log space no entry is lost where (1 - q)^n underflows. Built in one array.
    """
    j = np.arange(width - 1)
    pmf = np.empty((width, q.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(n, np.log1p(-q), out=pmf[0])
        np.add.outer(np.log(n - j) - np.log(j + 1), np.log(q) - np.log1p(-q), out=pmf[1:])
        np.cumsum(pmf, axis=0, out=pmf)
    np.exp(pmf, out=pmf)
    pmf[:, q == 1.0] = (np.arange(width) == n)[:, None]
    return pmf


def _class_pmfs(q: np.ndarray, sizes: np.ndarray, length: int) -> np.ndarray:
    """Pmf over 0..length-1 of sum_c Binomial(sizes[c], q[r, c]), count-major: [k, r] is P(V_r = k).

    Entries below ``length`` need only entries below it: the truncation is exact.
    No count above ``top`` has mass yet, so only those terms are added; each skipped
    one is an exact 0.0 and the rest add in ascending j order, bit for bit as in full.
    """
    pmf = np.zeros((length, q.shape[0]))
    pmf[0] = 1.0
    out, term = np.zeros_like(pmf), np.empty_like(pmf)
    top = 0
    for n, qc in zip(sizes.tolist(), q.T):
        if qc.any():
            factor = _binomial_pmfs(n, qc, min(n + 1, length))
            reach = min(top + n, length - 1) + 1
            np.multiply(pmf[:reach], factor[0], out=out[:reach])
            for j, f in enumerate(factor[1:], 1):
                m = min(top + 1, length - j)
                out[j : j + m] += np.multiply(pmf[:m], f, out=term[:m])
            pmf, out, top = out, pmf, reach - 1
    return pmf


def class_tails(q: np.ndarray, sizes: np.ndarray, rows: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """P(V_r >= k) per test, where V_r = sum_c Binomial(sizes[c], q[r, c]).

    Test t reads row ``rows[t]`` of ``q`` at count ``ks[t]``. Each row's pmf
    is built once, with rows of similar length batched, and its upper tail is
    summed directly. The pmf is log-concave, so once r = pmf[L-1] / pmf[L-2]
    is below 1 the mass past L is at most pmf[L-1] * r / (1 - r); L doubles
    until that bound is below TRUNCATION times the row's smallest tail.
    Batches run in equal row groups of at most CELLS // L rows; finished rows write their tests' tails.
    """
    support = (q > 0) @ sizes
    kmax = np.zeros(q.shape[0], dtype=np.int64)
    np.maximum.at(kmax, rows, ks)
    # first guess: past the largest count and 9 sd above the mean
    guess = np.maximum(kmax, q @ sizes + 9.0 * np.sqrt((q * (1.0 - q)) @ sizes)) + 40
    need = np.minimum(support + 1, np.ceil(guess).astype(np.int64))
    tails = np.ones(rows.size)  # k = 0 is certain
    slot = np.full(q.shape[0], -1)  # a finished row's column in its group, else -1
    todo = np.bincount(rows, minlength=q.shape[0]) > 0
    while todo.any():
        pending = np.flatnonzero(todo)
        bits = np.ceil(np.log2(need[pending])).astype(np.int64)
        batch, length = pending[bits == bits.min()], 1 << int(bits.min())
        for group in np.array_split(batch, -(-batch.size // max(CELLS // length, 1))):
            pmf = _class_pmfs(q[group], sizes, length)
            above = np.cumsum(np.pad(pmf, ((0, 1), (0, 0)))[::-1], axis=0)[::-1]
            smallest = above[np.minimum(kmax[group], length), np.arange(group.size)]
            with np.errstate(divide="ignore", invalid="ignore"):
                last, r = pmf[-1], pmf[-1] / pmf[max(length - 2, 0)]
                done = (length > support[group]) | (last == 0.0) | (
                    (r < 1.0) & (last * r / (1.0 - r) <= TRUNCATION * smallest))
            slot[group[done]] = np.flatnonzero(done)
            t = np.flatnonzero((slot[rows] >= 0) & (ks > 0))  # counts past L read above[L], 0.0
            tails[t] = np.minimum(above[np.minimum(ks[t], length), slot[rows[t]]], 1.0)
            slot[group] = -1
            todo[group[done]] = False
            del pmf, above, last  # before the next group's kernel
        need[batch] = np.minimum(support[batch] + 1, 2 * length)
    return tails


def poisson_binomial_tail(probs, k: int) -> float:
    """P(sum of independent Bernoulli(probs) >= k), summed directly.

    Equal probabilities pool into one binomial of the pair-test kernel.
    k = 0 returns 1 exactly.
    """
    p = np.asarray(probs, dtype=float)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if not 0 <= k <= p.size + 1:
        raise ValueError(f"k={k} outside [0, {p.size + 1}]")
    values, sizes = np.unique(p, return_counts=True)
    return float(class_tails(values[None, :], sizes, np.zeros(1, dtype=np.int64), np.array([k]))[0])


def _classes(fitness: np.ndarray, node: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Class id per node: equal fitness and the same sorted forced partners, in that order.

    Forced link t joins ``node[t]`` to ``partner[t]``; without any, classes are fitness ranks.
    """
    partners: dict[int, list[int]] = {}
    for i, a in zip(node.tolist(), partner.tolist()):
        partners.setdefault(i, []).append(a)
    sets: dict[tuple[int, ...], int] = {}
    forced = np.zeros(fitness.size, dtype=np.int64)
    for i, group in partners.items():
        forced[i] = sets.setdefault(tuple(sorted(group)), len(sets) + 1)
    ids = np.unique(fitness, return_inverse=True)[1]
    return np.unique(ids * (len(sets) + 1) + forced, return_inverse=True)[1]


def _class_probabilities(model: BicmModel):
    """(user-class x URL-class link probabilities, users per class, URL class ids).

    Entries equal ``bicm.probability_matrix``'s: forced links are 1, the other
    links of a pinned node 0. Users in one class share their forced URLs and URLs
    in one class their forced users, so a class pair is forced for all its nodes or none.
    """
    forced = np.array(sorted(model.forced_links), dtype=np.int64).reshape(-1, 2)
    user_cls = _classes(model.x, forced[:, 0], forced[:, 1])
    url_cls = _classes(model.y, forced[:, 1], forced[:, 0])
    x = np.nan_to_num(model.x[np.unique(user_cls, return_index=True)[1]], posinf=0.0)
    y = np.nan_to_num(model.y[np.unique(url_cls, return_index=True)[1]], posinf=0.0)
    t = np.outer(x, y)
    p = t / (1.0 + t)
    p[user_cls[forced[:, 0]], url_cls[forced[:, 1]]] = 1.0
    return p, np.bincount(user_cls), url_cls


def pair_pvalue(model: BicmModel, pair: tuple[int, int], observed: int) -> PairTest:
    """Null tail probability of the observed co-occurrence for one URL pair.

    Under the null the two links of user i occur independently, so the
    per-user success probability is p_{i,a} * p_{i,b}.
    """
    a, b = pair
    p, sizes, url_cls = _class_probabilities(model)
    q = np.repeat(p[:, url_cls[a]] * p[:, url_cls[b]], sizes)
    return PairTest(url_a=a, url_b=b, observed=observed, pvalue=poisson_binomial_tail(q, observed))


def _unique_inverse(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(key, return_inverse=True)`` by one argsort, sorting ``key`` in place as work array."""
    order = np.argsort(key)
    key.sort()
    new = np.zeros(key.size, dtype=bool)  # a sorted key other than the one before it
    np.not_equal(key[1:], key[:-1], out=new[1:])
    distinct = np.concatenate((key[:1], key[1:][new[1:]]))
    key[:] = new  # cumsum straight from the bools would cast them in a pair-sized copy
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(key, out=key)
    return distinct, inverse


def _class_pairs(url_cls: np.ndarray, url_a: np.ndarray, url_b: np.ndarray, observed: np.ndarray,
                 n_cls: int):
    """(Class-pair keys min * n_cls + max, row and count per test, test per pair) of the
    distinct (URL-class pair, count) tests, which ascend by (key, count)."""
    ca, cb = url_cls[url_a], url_cls[url_b]
    key = np.minimum(ca, cb)
    key *= n_cls
    key += np.maximum(ca, cb, out=ca)
    del ca, cb  # two pair arrays fewer while the keys are sorted
    width = int(observed.max(initial=0)) + 1
    key *= width  # key * width + count, in place
    key += observed
    tests, index = _unique_inverse(key)
    keys, rows = np.unique(tests // width, return_inverse=True)
    return keys, rows, tests % width, index


def pair_pvalues(graph: BipartiteGraph, model: BicmModel) -> PairTests:
    """Tests for every co-occurring URL pair; one tail serves each distinct (URL-class pair, count).

    The tests come in ascending (url_a, url_b) order, as ``cooccurrences`` gives the pairs.
    """
    url_a, url_b, observed = cooccurrences(graph)
    p, sizes, url_cls = _class_probabilities(model)
    n_cls = p.shape[1]
    keys, rows, ks, index = _class_pairs(url_cls, url_a, url_b, observed, n_cls)
    tails = class_tails((p[:, keys // n_cls] * p[:, keys % n_cls]).T, sizes, rows, ks)
    return PairTests(url_a, url_b, observed, tails.take(index))


def bh_scan(pvalues: np.ndarray, alpha: float, n_hypotheses: int) -> tuple[int, float]:
    """Largest rank r with p_(r) <= r * alpha / M over the realized p-values.

    Hypotheses beyond the realized list implicitly carry p = 1 and can never
    be rejected (r * alpha / M <= alpha < 1), so scanning the realized values
    with their global ranks is exact.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if n_hypotheses < pvalues.size:
        raise ValueError("n_hypotheses smaller than number of realized tests")
    # the largest passing rank closes its tie group: the cutoff only grows with the rank
    values, counts = np.unique(pvalues, return_counts=True)
    ranks = np.cumsum(counts)
    cutoffs = ranks.astype(float)  # r * alpha / M, built in place
    cutoffs *= alpha
    cutoffs /= n_hypotheses
    passing = np.flatnonzero(values <= cutoffs)
    if not passing.size:
        return 0, 0.0
    return int(ranks[passing[-1]]), float(values[passing[-1]])


def bh_validate(
    tests: PairTests, alpha: float, n_hypotheses: int, graph: BipartiteGraph
) -> ValidatedNetwork:
    """Benjamini-Hochberg control over all possible URL pairs.

    Pairs with p-values at or below the realized cutoff become validated
    edges (ties at the boundary included), in the order of ``tests``:
    ascending (url_a, url_b) when they come from ``pair_pvalues``.
    """
    _, threshold = bh_scan(tests.pvalue, alpha, n_hypotheses)
    keep = tests.pvalue <= threshold  # with no rejection no p-value is 0, so cutoff 0.0 keeps none
    a, b, pv = (c[keep].tolist() for c in (tests.url_a, tests.url_b, tests.pvalue))
    ids = graph.url_ids
    edges = [(ids[i], ids[j], t) for i, j, t in zip(a, b, pv)]
    return ValidatedNetwork(
        urls=graph.url_ids,
        edges=edges,
        alpha=alpha,
        n_hypotheses=n_hypotheses,
        bh_threshold=threshold,
        n_tested=len(tests),
    )


def validate_projection(
    graph: BipartiteGraph, model: BicmModel, alpha: float = 0.05
) -> ValidatedNetwork:
    """Full projection: count, test, correct. M = C(n_urls, 2)."""
    n_hyp = graph.n_urls * (graph.n_urls - 1) // 2
    return bh_validate(pair_pvalues(graph, model), alpha, n_hyp, graph)
