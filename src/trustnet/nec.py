"""News Engagement Communities: Louvain partition of the validated URL network.

Includes the purity metrics that quantify how homogeneous each community is
with respect to publisher trust labels, and per-community summary statistics.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from collections.abc import Collection, Hashable, Mapping, Sequence
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

    Returns (community per node, modularity after each sweep); only the last
    sweep moves no node. Ties between equally good target communities break
    toward the smaller community id; a tie with the current community means stay.
    """
    n = graph.n
    deg = graph.degrees()
    two_w = sum(deg)
    comm = list(range(n))
    sigma_tot = deg.copy()
    sigma_in = graph.loops.copy()
    order = list(range(n))
    rng.shuffle(order)

    pass_q: list[float] = []
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
            # the modularity gain of joining c is w - sigma_tot[c] * k_i / two_w,
            # rescaled by the constant W; c_old's gain never beats itself
            best_c = c_old
            best_gain = w_comm.get(c_old, 0.0) - sigma_tot[c_old] * k_i / two_w
            for c, w in sorted(w_comm.items()):
                gain = w - sigma_tot[c] * k_i / two_w
                if gain > best_gain + MIN_GAIN:
                    best_c, best_gain = c, gain
            sigma_tot[best_c] += k_i
            sigma_in[best_c] += 2.0 * w_comm.get(best_c, 0.0) + graph.loops[node]
            comm[node] = best_c
            moves += best_c != c_old
        pass_q.append(fold_sum(sigma_in[c] / two_w - (sigma_tot[c] / two_w) ** 2
                               for c in range(n) if sigma_tot[c] > 0 or sigma_in[c] > 0))
        if moves == 0:
            break
    return comm, pass_q


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

    The sorted validated URLs are nodes 0..n-1. Each validated edge becomes its
    ordered index pair once, in network order, as modularity sums its terms in
    that order. An edge must join two distinct URLs: a self-loop is a
    ValueError. Deterministic for a fixed seed: the node visit order at each
    level is a seeded shuffle of the sorted id order. Communities are numbered
    from 0, largest first, ties in the order of their smallest node. URLs of
    the tested universe that carry no validated edge are assigned the reserved
    community -1.
    """
    assignment = {u: UNCLUSTERED for u in network.urls}
    nodes = sorted(network.validated_urls)
    index = {u: i for i, u in enumerate(nodes)}
    pairs = ((index[a], index[b]) for a, b, _ in network.edges)
    edges = list(dict.fromkeys((i, j) if i < j else (j, i) for i, j in pairs))
    for i, j in edges:
        if i == j:
            raise ValueError(f"validated edge joins {nodes[i]!r} to itself")
    if not edges:
        return Partition(assignment=assignment, modularity=0.0)

    level = _LevelGraph(len(nodes))
    for i, j in edges:
        level.adj[i][j] = level.adj[j][i] = 1.0

    rng = random.Random(seed)
    node_comm = list(range(len(nodes)))
    pass_modularities: list[float] = []
    while True:
        comm, pass_q = _one_level(level, rng)
        pass_modularities.extend(pass_q)
        node_comm = [comm[c] for c in node_comm]
        if len(pass_q) == 1:  # no node moved
            break
        level, remap = _aggregate(level, comm)
        node_comm = [remap[c] for c in node_comm]

    # largest first; a stable sort keeps ties in the order of their smallest node
    size = Counter(node_comm)
    remap = {c: i for i, c in enumerate(sorted(dict.fromkeys(node_comm), key=lambda c: -size[c]))}
    node_comm = [remap[c] for c in node_comm]
    assignment.update(zip(nodes, node_comm))
    return Partition(
        assignment=assignment,
        modularity=modularity_of_edges(edges, node_comm),
        pass_modularities=pass_modularities,
    )


def modularity_of_edges(edges: Sequence[tuple[Hashable, Hashable]],
                        assignment: Mapping[Hashable, int] | Sequence[int]) -> float:
    """Q = sum_c (m_c / m - (d_c / 2m)^2) over the given undirected unit edges.

    Nodes may be any hashable ids; ``assignment[node]`` is the node's
    community, so a list serves nodes numbered from 0. The terms are summed
    in the order their communities first appear in ``edges``.
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
