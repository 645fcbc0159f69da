"""News Engagement Communities: Louvain partition of the validated URL network.

Includes the purity metrics that quantify how homogeneous each community is
with respect to publisher trust labels, and per-community summary statistics.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ingest import Corpus, KnowledgeBase, Label, Links, fold_sum
from .projection import ValidatedNetwork

UNCLUSTERED = -1


@dataclass(frozen=True)
class Partition:
    """URL -> community id; -1 marks URLs outside every community.

    Nothing changes a partition once it is built, so ``groups`` (community
    id -> its URLs, the -1 bucket included) is derived once, on first use;
    ``members`` and ``community_ids`` read it.
    """

    assignment: dict[str, int]
    modularity: float
    pass_modularities: list[float] = field(default_factory=list)

    @cached_property
    def groups(self) -> dict[int, frozenset[str]]:
        urls_of: dict[int, set[str]] = defaultdict(set)
        for u, c in self.assignment.items():
            urls_of[c].add(u)
        return {c: frozenset(urls) for c, urls in urls_of.items()}

    def members(self, community: int) -> frozenset[str]:
        return self.groups.get(community, frozenset())

    def community_ids(self) -> list[int]:
        return sorted(c for c in self.groups if c != UNCLUSTERED)


@dataclass(frozen=True)
class NecRow:
    community: int
    n_users: int
    n_distinct_urls: int
    n_publishers: int
    n_shares: int


#: a move must beat staying by more than this, so float noise moves nothing
MIN_GAIN = 1e-12


def _edges(network: ValidatedNetwork) -> list[tuple[str, str]]:
    """Each validated edge once, as its ordered URL pair, in network order.

    A list, not a set: modularity sums its terms in this order, and a set's
    order would follow the interpreter's string hash seed.
    """
    return list(dict.fromkeys((a, b) if a < b else (b, a) for a, b, _ in network.edges))


class _LevelGraph:
    """Aggregated graph for one Louvain level (self-weights kept separate)."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[dict[int, float]] = [dict() for _ in range(n)]
        self.loops = [0.0] * n

    def degrees(self) -> list[float]:
        return [sum(nbrs.values()) + self.loops[i] for i, nbrs in enumerate(self.adj)]


def _one_level(graph: _LevelGraph, rng: random.Random):
    """Sequential local moves until no node improves its community.

    Returns (community per node, modularity after each sweep, whether any
    node moved). Ties between equally good target communities break toward
    the smaller community id; a tie with the current community means stay.
    """
    n = graph.n
    deg = graph.degrees()
    two_w = sum(deg)
    comm = list(range(n))
    sigma_tot = deg.copy()
    sigma_in = graph.loops.copy()
    order = list(range(n))
    rng.shuffle(order)

    def sweep_modularity() -> float:
        q = 0.0
        for c in range(n):
            if sigma_tot[c] > 0 or sigma_in[c] > 0:
                q += sigma_in[c] / two_w - (sigma_tot[c] / two_w) ** 2
        return q

    pass_q: list[float] = []
    moved_any = False
    while True:
        moves = 0
        for node in order:
            c_old = comm[node]
            w_comm: dict[int, float] = defaultdict(float)
            for nbr, w in graph.adj[node].items():
                w_comm[comm[nbr]] += w
            k_i = deg[node]
            sigma_tot[c_old] -= k_i
            sigma_in[c_old] -= 2.0 * w_comm.get(c_old, 0.0) + graph.loops[node]

            def gain(c: int) -> float:
                # modularity gain of joining c, rescaled by the constant W
                return w_comm.get(c, 0.0) - sigma_tot[c] * k_i / two_w

            best_c = c_old
            best_gain = gain(c_old)
            for c in sorted(w_comm):
                if c == c_old:
                    continue
                if gain(c) > best_gain + MIN_GAIN:
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


def _aggregate(graph: _LevelGraph, comm: list[int]) -> tuple[_LevelGraph, dict[int, int]]:
    ids = sorted(set(comm))
    remap = {c: i for i, c in enumerate(ids)}
    agg = _LevelGraph(len(ids))
    for i in range(graph.n):
        ci = remap[comm[i]]
        agg.loops[ci] += graph.loops[i]
        for j, w in graph.adj[i].items():
            cj = remap[comm[j]]
            if ci == cj:
                if i < j:
                    agg.loops[ci] += 2.0 * w
            else:
                agg.adj[ci][cj] = agg.adj[ci].get(cj, 0.0) + w
    return agg, remap


def louvain(network: ValidatedNetwork, seed: int = 0) -> Partition:
    """Two-phase Louvain (plain modularity) on the unweighted validated URL network.

    Deterministic for a fixed seed: the node visit order at each level is a
    seeded shuffle of the sorted id order. URLs of the tested universe that
    carry no validated edge are assigned the reserved community -1.
    """
    assignment = {u: UNCLUSTERED for u in network.urls}
    edges = _edges(network)
    if not edges:
        return Partition(assignment=assignment, modularity=0.0)

    nodes = sorted(network.validated_urls)
    index = {u: i for i, u in enumerate(nodes)}
    level = _LevelGraph(len(nodes))
    for a, b in edges:
        i, j = index[a], index[b]
        level.adj[i][j] = level.adj[j][i] = 1.0

    rng = random.Random(seed)
    node_comm = list(range(len(nodes)))
    pass_modularities: list[float] = []
    while True:
        comm, pass_q, moved = _one_level(level, rng)
        pass_modularities.extend(pass_q)
        node_comm = [comm[c] for c in node_comm]
        if not moved:
            break
        level, remap = _aggregate(level, comm)
        node_comm = [remap[c] for c in node_comm]

    final = _relabel({nodes[i]: c for i, c in enumerate(node_comm)}, edges)
    assignment.update(final)
    q = modularity_of_edges(edges, assignment)
    return Partition(
        assignment=assignment,
        modularity=q,
        pass_modularities=pass_modularities,
    )


def _relabel(raw: dict[str, int], edges: list[tuple[str, str]]) -> dict[str, int]:
    """Contiguous ids from 0, largest community first; singletons merged away.

    A validated URL always has a neighbor, so a surviving singleton community
    joins the neighboring community with the largest modularity gain
    ``e_xc - k_x * sigma_c / 2m``, ties to the smaller Louvain id.
    """
    groups: dict[int, set[str]] = defaultdict(set)
    for u, c in raw.items():
        groups[c].add(u)
    nbrs: dict[str, set[str]] = defaultdict(set)
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    sigma: dict[int, int] = defaultdict(int)  # total degree per community
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
        # the gain times 2m, an exact integer; max keeps the first, smallest id of a tie
        target = max(sorted(links), key=lambda t: links[t] * two_m - k * sigma[t])
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


def modularity_of_edges(edges: list[tuple[str, str]], assignment: dict[str, int]) -> float:
    """Q = sum_c (m_c / m - (d_c / 2m)^2) over the given undirected unit edges.

    The terms are summed in the order their communities first appear in ``edges``.
    """
    if not edges:
        return 0.0
    d_c: dict[int, int] = defaultdict(int)
    m_c: dict[int, int] = defaultdict(int)
    for a, b in edges:
        ca, cb = assignment[a], assignment[b]
        d_c[ca] += 1
        d_c[cb] += 1
        if ca == cb:
            m_c[ca] += 1
    m = len(edges)
    return fold_sum(m_c[c] / m - (d_c[c] / (2 * m)) ** 2 for c in d_c)


def purity(
    partition: Partition,
    community: int,
    corpus: Corpus,
    kb: KnowledgeBase,
    level: Label,
) -> float:
    """Share of a community's URLs whose publisher carries the given label.

    Unclassified URLs count in the denominator only.
    """
    members = partition.members(community)
    if not members:
        raise ValueError(f"community {community} does not exist")
    return _label_share(members, corpus, kb, level)


def overall_purity(
    partition: Partition, corpus: Corpus, kb: KnowledgeBase, level: Label
) -> float:
    """Pooled label share over all non-reserved communities."""
    members = [u for c in partition.community_ids() for u in partition.members(c)]
    if not members:
        raise ValueError("partition has no communities")
    return _label_share(members, corpus, kb, level)


def unclustered_purity(
    partition: Partition, corpus: Corpus, kb: KnowledgeBase, level: Label
) -> float:
    """Label share within the reserved -1 bucket."""
    members = partition.members(UNCLUSTERED)
    if not members:
        raise ValueError("no unclustered URLs")
    return _label_share(members, corpus, kb, level)


def _label_share(urls: Collection[str], corpus: Corpus, kb: KnowledgeBase, level: Label) -> float:
    """Share of ``urls`` whose publisher carries ``level``."""
    return sum(1 for u in urls if kb.label(corpus.url_publisher[u]) == level) / len(urls)


def nec_summary(partition: Partition, corpus: Corpus) -> list[NecRow]:
    """Per-community engagement statistics, largest user base first.

    A community's users are the distinct (user, community) keys of its URLs'
    links, and its shares the sum of its URLs' ``corpus.shares``.
    """
    ids = partition.community_ids()
    n = len(ids) + 1  # one more column takes every other URL
    column = {c: k for k, c in enumerate(ids)}
    cols = np.array([column.get(partition.assignment.get(url), n - 1) for url in corpus.urls],
                    dtype=np.int64)
    links = Links.from_keys(corpus.link_user * n + cols[corpus.link_url], (len(corpus.users), n))
    n_users = np.bincount(links.cols, minlength=n).tolist()
    n_shares = np.bincount(cols, corpus.shares, minlength=n).astype(np.int64).tolist()
    rows = [
        NecRow(
            community=c,
            n_users=n_users[k],
            n_distinct_urls=len(partition.members(c)),
            n_publishers=len({corpus.url_publisher[u] for u in partition.members(c)}),
            n_shares=n_shares[k],
        )
        for k, c in enumerate(ids)
    ]
    rows.sort(key=lambda r: (-r.n_users, r.community))
    return rows
