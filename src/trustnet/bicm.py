"""Bipartite user-URL graph and its degree-constrained maximum-entropy null model.

The null model assigns every (user, URL) pair an independent link probability
p = x_i * y_a / (1 + x_i * y_a), with per-node fitnesses x, y chosen so the
expected degree of every node matches its observed degree. Equal-degree nodes
share one unknown, so the solve runs on the much smaller degree-class system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .ingest import Corpus, Links, incidence


class ConvergenceError(RuntimeError):
    """Solver failed to reach tolerance; carries the best residual seen."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class BipartiteGraph:
    """Binary user-URL graph as ``Links`` (users × URLs), with both int64 degree sequences."""

    user_ids: tuple[str, ...]
    url_ids: tuple[str, ...]
    biadjacency: Links
    user_degrees: np.ndarray = field(init=False)
    url_degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        n_users, n_urls = self.biadjacency.shape
        self.user_degrees = np.bincount(self.biadjacency.rows, minlength=n_users)
        self.url_degrees = np.bincount(self.biadjacency.cols, minlength=n_urls)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_urls(self) -> int:
        return len(self.url_ids)

    @property
    def n_links(self) -> int:
        return int(self.user_degrees.sum())

    @property
    def url_index(self) -> dict[str, int]:
        return {a: j for j, a in enumerate(self.url_ids)}

    @classmethod
    def from_links(cls, links: Iterable[tuple[str, str]]) -> "BipartiteGraph":
        """Build from (user_id, url_id) pairs; ids sorted, zero-degree nodes dropped."""
        pairs = list(links)
        if not pairs:
            raise ValueError("cannot build a bipartite graph with no links")
        return cls(*incidence(*zip(*pairs)))


def build_graph(corpus: Corpus) -> BipartiteGraph:
    """One link per corpus interaction: the corpus's user × URL matrix ``user_urls``."""
    if not corpus.link_url.size:
        raise ValueError("empty corpus")
    return BipartiteGraph(corpus.users, corpus.urls, corpus.user_urls)


@dataclass
class BicmModel:
    """Solved null model: fitness per node plus links pinned to probability 1.

    Nodes are indexed as in the graph it was solved on, which owns the ids
    and degrees. A pinned (degenerate) node's fitness is stored as ``inf``;
    nodes whose remaining degree was fully explained by pinned partners carry
    fitness 0.
    """

    x: np.ndarray
    y: np.ndarray
    forced_links: frozenset[tuple[int, int]]
    residual: float
    iterations: int


def _pin_full(deg, active, pinned, other_deg, other_active):
    """Pin the active nodes whose remaining degree equals the other layer's active count.

    In place, each pinned node takes one degree from every active partner and
    leaves the system. Returns the (pinned node, partner) index arrays.
    """
    full = active & (deg == other_active.sum()) & (deg > 0)
    own, partners = np.flatnonzero(full), np.flatnonzero(other_active)
    other_deg[other_active] -= own.size
    deg[full] = 0
    active[full] = False
    pinned |= full
    return np.repeat(own, partners.size), np.tile(partners, own.size)


def _reduce_degenerate(k: np.ndarray, d: np.ndarray):
    """Pin full-degree nodes to probability-1 links and peel exhausted nodes.

    Returns (active_users, active_urls, remaining user degrees, remaining URL
    degrees, forced link index pairs, pinned user mask, pinned URL mask).
    Users pin, then URLs, then exhausted nodes drop; repeats while pins cascade.
    """
    k = k.astype(np.int64)
    d = d.astype(np.int64)
    active_u, active_a = np.ones(k.size, dtype=bool), np.ones(d.size, dtype=bool)
    pinned_u, pinned_a = np.zeros(k.size, dtype=bool), np.zeros(d.size, dtype=bool)
    forced: list[tuple[int, int]] = []
    n_active = -1
    while n_active != active_u.sum() + active_a.sum():
        n_active = active_u.sum() + active_a.sum()
        users, urls = _pin_full(k, active_u, pinned_u, d, active_a)
        forced.extend(zip(users.tolist(), urls.tolist()))
        urls, users = _pin_full(d, active_a, pinned_a, k, active_u)
        forced.extend(zip(users.tolist(), urls.tolist()))
        active_u &= k != 0
        active_a &= d != 0
    return active_u, active_a, k, d, forced, pinned_u, pinned_a


def _class_residual(xs, ys, ks, ds, ck, ed) -> float:
    xy = np.outer(xs, ys)
    p = xy / (1.0 + xy)
    row = (ed[None, :] * p).sum(axis=1)
    col = (ck[:, None] * p).sum(axis=0)
    err_u = np.abs(row - ks) / ks
    err_a = np.abs(col - ds) / ds
    return float(max(err_u.max(initial=0.0), err_a.max(initial=0.0)))


#: Most damped Newton steps one polish takes.
_NEWTON_STEPS = 60


def _newton_polish(xs, ys, ks, ds, ck, ed, tol):
    """Damped Newton on the log-fitness class system.

    The product gauge (x -> c*x, y -> y/c) leaves all probabilities unchanged,
    so the Jacobian has a null direction; the least-squares solve picks the
    minimum-norm step.
    """
    K = xs.size
    z = np.concatenate([np.log(xs), np.log(ys)])
    best = _class_residual(xs, ys, ks, ds, ck, ed)
    for _ in range(_NEWTON_STEPS):
        xs = np.exp(z[:K])
        ys = np.exp(z[K:])
        xy = np.outer(xs, ys)
        p = xy / (1.0 + xy)
        w = p * (1.0 - p)
        f_u = (ed[None, :] * p).sum(axis=1) - ks
        f_a = (ck[:, None] * p).sum(axis=0) - ds
        f = np.concatenate([f_u, f_a])
        jac = np.block([
            [np.diag((ed[None, :] * w).sum(axis=1)), ed[None, :] * w],
            [(ck[:, None] * w).T, np.diag((ck[:, None] * w).sum(axis=0))],
        ])
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        scale = 1.0
        for _ in range(40):
            trial = z + scale * step
            txs = np.exp(trial[:K])
            tys = np.exp(trial[K:])
            res = _class_residual(txs, tys, ks, ds, ck, ed)
            if res < best:
                z = trial
                best = res
                break
            scale *= 0.5
        else:
            break
        if best <= tol:
            break
    return np.exp(z[:K]), np.exp(z[K:]), best


def solve(graph: BipartiteGraph, tol: float = 1e-8, max_iter: int = 10_000) -> BicmModel:
    """Fit the null model so every expected degree matches its constraint.

    Deterministic: fixed initialization x = k / sqrt(links), alternating
    fixed-point sweeps on the degree-class system, Newton polish if the sweep
    stalls. Raises ConvergenceError if the max relative degree error stays
    above ``tol`` after ``max_iter`` sweeps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    n, m = graph.n_users, graph.n_urls
    active_u, active_a, k_eff, d_eff, forced, pinned_u, pinned_a = (
        _reduce_degenerate(graph.user_degrees, graph.url_degrees)
    )
    x = np.zeros(n)
    y = np.zeros(m)

    iterations = 0
    residual = 0.0
    if active_u.any():
        uk = k_eff[active_u].astype(float)
        ud = d_eff[active_a].astype(float)
        ks, k_inv = np.unique(uk, return_inverse=True)
        ds, d_inv = np.unique(ud, return_inverse=True)
        ck = np.bincount(k_inv).astype(float)
        ed = np.bincount(d_inv).astype(float)
        total = uk.sum()
        xs = ks / np.sqrt(total)
        ys = ds / np.sqrt(total)

        best = np.inf
        stall = 0
        for iterations in range(1, max_iter + 1):
            denom_x = (ed[None, :] * ys[None, :] / (1.0 + np.outer(xs, ys))).sum(axis=1)
            xs = ks / denom_x
            denom_y = (ck[:, None] * xs[:, None] / (1.0 + np.outer(xs, ys))).sum(axis=0)
            ys = ds / denom_y
            residual = _class_residual(xs, ys, ks, ds, ck, ed)
            if residual <= tol:
                break
            if residual < best * 0.9:
                best = residual
                stall = 0
            else:
                stall += 1
            if stall >= 25:
                xs, ys, residual = _newton_polish(xs, ys, ks, ds, ck, ed, tol)
                break
        if residual > tol:
            xs, ys, residual = _newton_polish(xs, ys, ks, ds, ck, ed, tol)
        if residual > tol:
            raise ConvergenceError(
                f"degree residual {residual:.3e} > tol {tol:.3e} "
                f"after {iterations} sweeps",
                residual,
            )
        x[active_u] = xs[k_inv]
        y[active_a] = ys[d_inv]

    x[pinned_u] = np.inf
    y[pinned_a] = np.inf

    return BicmModel(
        x=x, y=y, forced_links=frozenset(forced), residual=residual, iterations=iterations
    )


def probability_matrix(model: BicmModel) -> np.ndarray:
    """Dense matrix of link probabilities (forced links pinned to 1)."""
    finite_x = np.where(np.isinf(model.x), 0.0, model.x)
    finite_y = np.where(np.isinf(model.y), 0.0, model.y)
    t = np.outer(finite_x, finite_y)
    p = t / (1.0 + t)
    for i, a in model.forced_links:
        p[i, a] = 1.0
    return p


def expected_degrees(model: BicmModel) -> tuple[np.ndarray, np.ndarray]:
    p = probability_matrix(model)
    return p.sum(axis=1), p.sum(axis=0)


def degree_residual(graph: BipartiteGraph, model: BicmModel) -> float:
    """Max relative error of the graph's degrees, recomputed from the full probability matrix."""
    exp_k, exp_d = expected_degrees(model)
    err_u = np.abs(exp_k - graph.user_degrees) / graph.user_degrees
    err_a = np.abs(exp_d - graph.url_degrees) / graph.url_degrees
    return float(max(err_u.max(), err_a.max()))


def sample(graph: BipartiteGraph, model: BicmModel, seed: int) -> BipartiteGraph:
    """Draw one graph from the ensemble of ``graph``; each link is an independent Bernoulli."""
    rng = np.random.default_rng(seed)
    p = probability_matrix(model)
    hits = rng.random(p.shape) < p
    rows, cols = np.nonzero(hits)
    return BipartiteGraph(*incidence([graph.user_ids[i] for i in rows.tolist()],
                                     [graph.url_ids[a] for a in cols.tolist()]))
