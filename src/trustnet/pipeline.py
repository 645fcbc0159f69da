"""End-to-end orchestration: the stage table, its runner, persistence, figures.

``STAGES`` declares the method's chain once: each entry names a stage, the
tag of its algorithm, the stages it reads, the settings its hash covers and
the artifacts a rerun needs in order to reuse it. One runner walks it for
every entry point: ``run_pipeline`` runs every stage, ``run_stages`` one
target stage and the stages it reads (the CLI's stage subcommands and
``emit_figures``, which first refuses a run whose figure inputs fail the
reuse test). The runner owns the reuse test (meta.json holds the stage's
hash, and the artifacts exist), deletes meta.json before a recompute and
writes it last, so a crash leaves nothing reusable, and wraps any failure in
``StageError``.
Each ``stage_<name>(config, upstream, stage_dir, cached) -> (value, meta)``
keeps only its compute, write and load body; ``cached`` is the meta.json the
runner read, or None when the stage must recompute. The runner looks it up
by name at call time, so a wrapper set on the module attribute sees every
call.

All outputs are plain CSV/JSON, byte-identical on one machine for identical
inputs, config and seeds; the README says which bytes can differ across CPUs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import time
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from . import bicm, classify, nec, projection, voters as voters_mod
from .ingest import (
    Corpus,
    KnowledgeBase,
    Label,
    build_corpus,
    load_knowledge_base,
    load_posts,
)
from .voters import ALL_STRATEGIES, StrategyKind, VoterProfile

log = logging.getLogger(__name__)
LINK_BLOCK = 1 << 10  # links per block of interactions.csv lines that ``write_links`` joins

class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    posts: str = ""
    knowledge_base: str = ""
    out_dir: str = "run"
    alpha: float = 0.05
    solver_tol: float = 1e-8
    solver_max_iter: int = 10_000
    louvain_seed: int = 0
    strategies: tuple[str, ...] = tuple(s.value for s in ALL_STRATEGIES)
    theta_min: int = 0
    theta_max: int = 30
    cv_folds: int = 10
    cv_seed: int = 0

    @classmethod
    def from_file(cls, path: str | Path | None, **overrides) -> "PipelineConfig":
        """Config from a JSON file (defaults if ``path`` is None); non-None overrides win.

        A setting no run can use is a ValueError that names its key: an unknown
        key, a value of the wrong type or one out of range. An int field takes
        no bool, a float field takes an int too (stored as a float, so both
        hash alike), and ``strategies`` a non-empty list of distinct str.
        """
        data = {}
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: not valid JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise ValueError(f"{path}: not a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        for f in fields(cls):
            value = data.get(f.name, f.default)
            if f.name == "strategies":
                want = "a list of str"
                ok = isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
            else:
                want = f.type
                kinds = (int, float) if f.type == "float" else type(f.default)
                ok = isinstance(value, kinds) and not isinstance(value, bool)
            if not ok:
                raise ValueError(f"{f.name} must be {want}, got {value!r}")
            if f.type == "float":
                data[f.name] = float(value)
        if "strategies" in data:
            data["strategies"] = tuple(data["strategies"])
        config = cls(**data)
        known, chosen = tuple(k.value for k in ALL_STRATEGIES), config.strategies
        for key, ok, rule in (
            ("strategies", 0 < len(chosen) == len(set(chosen)) and set(chosen) <= set(known),
             f"must list one or more of {known}, none twice"),
            ("cv_folds", config.cv_folds >= 2, "must be >= 2"),
            ("theta_min", 0 <= config.theta_min <= config.theta_max, "must lie in [0, theta_max]"),
            ("alpha", 0 < config.alpha < 1, "must lie in (0, 1)"),
            ("solver_tol", config.solver_tol > 0, "must be positive"),
            ("solver_max_iter", config.solver_max_iter >= 1, "must be >= 1"),
        ):
            if not ok:
                raise ValueError(f"{key} {rule}, got {getattr(config, key)!r}")
        return config

    def thetas(self) -> range:
        return range(self.theta_min, self.theta_max + 1)

    def strategy_kinds(self) -> list[StrategyKind]:
        return [StrategyKind(s) for s in self.strategies]


def _sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_obj(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def write_csv(path: Path, header: list[str], rows) -> None:
    """Header, then rows; ``csv.writer``'s own cell formatting is the artifact format.

    A float cell (numpy's float64 too) is its ``float.__repr__``; ``None`` is an empty cell.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_links(path: Path, corpus: Corpus) -> None:
    """``write_csv`` of ``corpus.link_rows()`` from the link codes: ``csv.writer`` formats each user
    cell (in a row of two) and each (URL, publisher) pair once; each write is LINK_BLOCK lines."""
    def lines(rows) -> list[str]:  # one write per row; a lone empty cell would be written '""'
        csv.writer(SimpleNamespace(write=(out := []).append), lineterminator="\n").writerows(rows)
        return out
    users = np.array([line[:-1] for line in lines((u, "") for u in corpus.users)], dtype=object)
    urls = np.array(lines(zip(corpus.urls, corpus.domains)), dtype=object)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("user_id,url,publisher\n")
        for lo in range(0, corpus.link_url.size, LINK_BLOCK):
            block = slice(lo, lo + LINK_BLOCK)
            fh.write("".join(users[corpus.link_user[block]] + urls[corpus.link_url[block]]))


def read_csv(path: Path) -> Iterator[list[str]]:
    """The rows of a CSV written by ``write_csv``, header dropped, read as they are iterated."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        yield from rows


def write_json(path: Path, obj) -> None:
    """Write through a temporary file, so ``path`` is never left half-written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _read_meta(stage_dir: Path) -> dict | None:
    meta_path = stage_dir / "meta.json"
    if not meta_path.exists():
        return None
    with open(meta_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# ingest stage

def stage_ingest(config: PipelineConfig, upstream: dict, stage_dir: Path, cached: dict | None):
    kb = load_knowledge_base(config.knowledge_base)
    if cached is not None:
        return (load_corpus(stage_dir, cached), kb), cached
    posts, malformed = load_posts(config.posts)
    corpus, n_posts = build_corpus(posts), len(posts)
    del posts  # the share events, held no longer than the corpus needs them
    if not corpus.link_url.size:
        raise ValueError("corpus is empty after ingest")
    write_links(stage_dir / "interactions.csv", corpus)
    write_csv(stage_dir / "shares.csv", ["url", "n_shares"], zip(corpus.urls, corpus.shares.tolist()))
    write_csv(stage_dir / "publishers.csv", ["domain", "score", "label"],
              [(p, kb.score(p), kb.label(p)) for p in corpus.publishers])
    labels = Counter(kb.label(p) for p in corpus.publishers)
    return (corpus, kb), {
        "n_posts": n_posts,
        "n_malformed": malformed,
        "n_skipped_urls": corpus.skipped_urls,
        "n_users": len(corpus.users),
        "n_articles": len(corpus.urls),
        "n_publishers": len(corpus.publishers),
        "n_interactions": corpus.link_url.size,
        "n_share_events": int(corpus.shares.sum()),
        "publisher_labels": {level.value: labels[level] for level in Label},
    }


def load_corpus(stage_dir: Path, meta: dict) -> Corpus:
    """The ingest stage's corpus, read back from ``interactions.csv`` and ``shares.csv``."""
    users, urls, domains, user_codes, url_codes = {}, {}, {}, [], []
    for user, url, domain in read_csv(stage_dir / "interactions.csv"):  # one pass, no transpose
        user_codes.append(users.setdefault(user, len(users)))
        url_codes.append(code := urls.setdefault(url, len(urls)))
        domains.setdefault(code, domain)
    shares = dict(read_csv(stage_dir / "shares.csv"))
    return Corpus.from_codes(list(users), list(urls), list(domains.values()), user_codes, url_codes,
                             [int(shares[url]) for url in urls], int(meta["n_skipped_urls"]))


# ---------------------------------------------------------------------------
# bicm stage

def stage_bicm(config: PipelineConfig, upstream: dict, stage_dir: Path, cached: dict | None):
    corpus, _ = upstream["ingest"]
    graph = bicm.build_graph(corpus)
    if cached is not None:
        return (graph, load_model(stage_dir, graph, cached)), cached
    model = bicm.solve(graph, tol=config.solver_tol, max_iter=config.solver_max_iter)
    rows = [
        (uid, "user", int(graph.user_degrees[i]), float(model.x[i]))
        for i, uid in enumerate(graph.user_ids)
    ] + [
        (aid, "url", int(graph.url_degrees[j]), float(model.y[j]))
        for j, aid in enumerate(graph.url_ids)
    ]
    write_csv(stage_dir / "fitness.csv", ["node_id", "layer", "degree", "fitness"], rows)
    return (graph, model), {
        "tol": config.solver_tol,
        "max_iter": config.solver_max_iter,
        "iterations": model.iterations,
        "residual": model.residual,
        "forced_links": sorted([i, a] for i, a in model.forced_links),
        "n_users": graph.n_users,
        "n_urls": graph.n_urls,
        "n_links": graph.n_links,
    }


def load_model(stage_dir: Path, graph: bicm.BipartiteGraph, meta: dict) -> bicm.BicmModel:
    fitness = {(row[1], row[0]): float(row[3]) for row in read_csv(stage_dir / "fitness.csv")}
    x = np.array([fitness[("user", u)] for u in graph.user_ids])
    y = np.array([fitness[("url", a)] for a in graph.url_ids])
    return bicm.BicmModel(
        x=x,
        y=y,
        forced_links=frozenset((int(i), int(a)) for i, a in meta["forced_links"]),
        residual=float(meta["residual"]),
        iterations=int(meta["iterations"]),
    )


# ---------------------------------------------------------------------------
# projection stage

def stage_projection(config: PipelineConfig, upstream: dict, stage_dir: Path, cached: dict | None):
    graph, model = upstream["bicm"]
    if cached is not None:
        return load_validated(stage_dir, graph, cached), cached
    network = projection.validate_projection(graph, model, alpha=config.alpha)
    write_csv(stage_dir / "validated_edges.csv", ["url_a", "url_b", "pvalue"], network.edges)
    return network, {
        "alpha": network.alpha,
        "n_hypotheses": network.n_hypotheses,
        "n_tested": network.n_tested,
        "n_edges": network.n_edges,
        "bh_threshold": network.bh_threshold,
        "n_validated_urls": len(network.validated_urls),
    }


def load_validated(stage_dir: Path, graph: bicm.BipartiteGraph,
                   meta: dict) -> projection.ValidatedNetwork:
    return projection.ValidatedNetwork(
        urls=graph.url_ids,
        edges=[(a, b, float(p)) for a, b, p in read_csv(stage_dir / "validated_edges.csv")],
        alpha=float(meta["alpha"]),
        n_hypotheses=int(meta["n_hypotheses"]),
        bh_threshold=float(meta["bh_threshold"]),
        n_tested=int(meta["n_tested"]),
    )


# ---------------------------------------------------------------------------
# nec stage

NEC_SUMMARY_HEADER = tuple(f.name for f in fields(nec.NecRow))


def stage_nec(config: PipelineConfig, upstream: dict, stage_dir: Path, cached: dict | None):
    """Value: (partition, summary rows, purity rows); purity lists communities first."""
    if cached is not None:
        summary = [tuple(map(int, row)) for row in read_csv(stage_dir / "nec_summary.csv")]
        purity_rows = [(c, float(t), float(n)) for c, t, n in read_csv(stage_dir / "purity.csv")]
        return (load_partition(stage_dir, cached), summary, purity_rows), cached
    corpus, kb = upstream["ingest"]
    partition = nec.louvain(upstream["projection"], seed=config.louvain_seed)
    write_csv(stage_dir / "partition.csv", ["url", "community"],
              sorted(partition.assignment.items()))
    summary = [astuple(r) for r in nec.nec_summary(partition, corpus)]
    write_csv(stage_dir / "nec_summary.csv", NEC_SUMMARY_HEADER, summary)
    levels = (Label.T, Label.N)
    purity_rows = [(str(c), *(nec.purity(partition, c, corpus, kb, l) for l in levels))
                   for c in partition.community_ids()]
    if partition.community_ids():
        purity_rows.append(
            ("overall", *(nec.overall_purity(partition, corpus, kb, l) for l in levels)))
    if partition.members(nec.UNCLUSTERED):
        purity_rows.append(
            ("unclustered", *(nec.unclustered_purity(partition, corpus, kb, l) for l in levels)))
    write_csv(stage_dir / "purity.csv", ["community", "purity_T", "purity_N"], purity_rows)
    return (partition, summary, purity_rows), {
        "modularity": partition.modularity,
        "pass_modularities": partition.pass_modularities,
        "n_communities": len(partition.community_ids()),
        "n_unclustered": len(partition.members(nec.UNCLUSTERED)),
        "louvain_seed": config.louvain_seed,
    }


def load_partition(stage_dir: Path, meta: dict) -> nec.Partition:
    return nec.Partition(
        assignment={url: int(c) for url, c in read_csv(stage_dir / "partition.csv")},
        modularity=float(meta["modularity"]),
        pass_modularities=list(meta["pass_modularities"]),
    )


# ---------------------------------------------------------------------------
# voters stage

def stage_voters(config: PipelineConfig, upstream: dict, stage_dir: Path, cached: dict | None):
    """Profiles are always rebuilt; ``voters_<strategy>.csv``, written only when not
    cached, holds the voters whose diet reaches θ_min (the sweep's θ keeps ``diet >= θ``)."""
    corpus, kb = upstream["ingest"]
    profiles = {
        kind: voters_mod.build_voter_profiles(kind, corpus, upstream["projection"], kb)
        for kind in config.strategy_kinds()
    }
    if cached is not None:
        return profiles, cached
    for kind, profs in profiles.items():
        write_csv(stage_dir / f"voters_{kind.value}.csv",
                  ["user_id", "strategy", "value", "diet", "n_articles"],
                  [(v.user_id, kind.value, v.value, v.diet, v.n_articles)
                   for v in voters_mod.filter_min_publishers(profs, config.theta_min)])
    return profiles, {
        "strategies": [k.value for k in profiles],
        "theta_min": config.theta_min,
        "n_voters": {k.value: len(v) for k, v in profiles.items()},
    }


# ---------------------------------------------------------------------------
# classify stage and sweep

@dataclass
class SweepPoint:
    strategy: str
    theta: int
    n_voters: int
    covered: dict[str, int]
    balanced_accuracy_mean: float | None
    balanced_accuracy_std: float | None
    knowledge: int


SWEEP_HEADER = (
    "strategy", "theta", "n_voters", "covered_T", "covered_N", "covered_UNC",
    "balanced_accuracy_mean", "balanced_accuracy_std", "knowledge",
)


def _cross_validate(config: PipelineConfig, scores: list[classify.PublisherScore],
                    strategy: str | None = None) -> classify.CvReport | None:
    """CV report of the labeled publishers, or None (a ``strategy``'s full voter set logs why)."""
    try:
        return classify.stratified_cv(
            classify.labeled_samples(scores), folds=config.cv_folds, seed=config.cv_seed
        )
    except ValueError as exc:
        if strategy is not None:
            log.warning("classify %s: CV skipped (%s)", strategy, exc)
        return None


def compute_sweep(
    config: PipelineConfig,
    corpus: Corpus,
    network: projection.ValidatedNetwork,
    kb: KnowledgeBase,
    profiles: dict[StrategyKind, list[VoterProfile]],
) -> list[SweepPoint]:
    """One point per strategy and θ: the strategy's voters whose diet reaches θ.

    θ is a column mask over a strategy's voters: one ``vote_columns`` call
    scores and covers each distinct column, and the CV runs once per distinct
    column; a θ whose column equals the one before reuses that one's results.

    Knowledge counts the distinct labeled publishers needed to characterize
    the voters. Every strategy but DS-URL-NEC characterizes a voter by
    everything they shared, so its knowledge is the labeled publishers its
    voters cover; DS-URL-NEC needs the labeled publishers of the validated
    network, whatever θ.
    """
    validated_pubs = {corpus.url_publisher[u] for u in network.validated_urls}
    nec_knowledge = sum(1 for p in validated_pubs if kb.label(p) is not Label.UNC)
    thetas = config.thetas()
    points = []
    for kind, profs in profiles.items():
        select = np.array([v.diet for v in profs], dtype=np.int64)[:, None] >= np.array(thetas)
        new = np.ones(len(thetas), dtype=bool)  # a column unlike the one before it
        new[1:] = (select[:, 1:] != select[:, :-1]).any(axis=0)
        columns = iter(classify.vote_columns(profs, select[:, new], corpus, kb))
        for theta, n_voters, is_new in zip(thetas, select.sum(axis=0).tolist(), new.tolist()):
            if is_new:
                scores, cov = next(columns)
                report = _cross_validate(config, scores)
            points.append(SweepPoint(
                strategy=kind.value,
                theta=theta,
                n_voters=n_voters,
                covered={l.value: cov.covered[l] for l in Label},
                balanced_accuracy_mean=report.mean_balanced_accuracy if report else None,
                balanced_accuracy_std=report.std_balanced_accuracy if report else None,
                knowledge=nec_knowledge if kind is StrategyKind.DS_URL_NEC
                else cov.covered[Label.T] + cov.covered[Label.N],
            ))
    return points


def stage_classify(config: PipelineConfig, upstream: dict, stage_dir: Path, cached: dict | None):
    """Value: (report section, sweep); every run recomputes it."""
    (corpus, kb), network, profiles = upstream["ingest"], upstream["projection"], upstream["voters"]
    results: dict = {"strategies": {}, "sweep": []}
    coverage_rows = []
    for kind, profs in profiles.items():
        scores = classify.publisher_scores(profs, corpus, kb)
        cov = classify.coverage(profs, corpus, kb)
        cv_report = _cross_validate(config, scores, kind.value)
        stump = None
        try:
            stump = classify.fit_stump(classify.labeled_samples(scores))
        except ValueError:
            pass
        worthy = [asdict(w) for w in classify.worthy_list(scores, stump)]
        write_csv(stage_dir / f"scores_{kind.value}.csv",
                  ["domain", "score", "n_voters", "kb_label", "predicted"],
                  [(s.domain, s.score, s.n_voters, s.kb_label,
                    stump.predict(s.score) if stump else None) for s in scores])
        write_csv(stage_dir / f"worthy_{kind.value}.csv",
                  [f.name for f in fields(classify.WorthyEntry)], [w.values() for w in worthy])
        cv_json = None
        if cv_report is not None:
            cv_json = {
                "folds": cv_report.folds,
                "baseline": cv_report.baseline,
                "confusion": [asdict(r) for r in cv_report.results],
                "balanced_accuracy": cv_report.balanced_accuracies,
                "mean": cv_report.mean_balanced_accuracy,
                "std": cv_report.std_balanced_accuracy,
            }
        write_json(stage_dir / f"cv_{kind.value}.json", cv_json or {})
        coverage_rows.append((kind.value, *(cov.percentage(l) for l in Label)))
        results["strategies"][kind.value] = {
            "n_voters": len(profs),
            "n_valued_voters": sum(1 for v in profs if v.value is not None),
            "coverage": {
                "covered": {l.value: cov.covered[l] for l in Label},
                "universe": {l.value: cov.universe[l] for l in Label},
                "percentage": {l.value: cov.percentage(l) for l in Label},
            },
            "cv": cv_json,
            "worthy": worthy,  # json writes a Label as its value
        }
    write_csv(stage_dir / "coverage.csv", ["strategy", "T", "N", "UNC"], coverage_rows)

    sweep = compute_sweep(config, corpus, network, kb, profiles)
    write_csv(stage_dir / "sweep.csv", SWEEP_HEADER, [
        (p.strategy, p.theta, p.n_voters, *(p.covered[l.value] for l in Label),
         p.balanced_accuracy_mean, p.balanced_accuracy_std, p.knowledge)
        for p in sweep
    ])
    results["sweep"] = [asdict(p) for p in sweep]
    return (results, sweep), {}


# ---------------------------------------------------------------------------
# figures stage

def stage_figures(config: PipelineConfig, upstream: dict, stage_dir: Path, cached: dict | None):
    """Copies of nec's purity rows and classify's sweep; it computes nothing."""
    (partition, _, purity_rows), (_, sweep) = upstream["nec"], upstream["classify"]
    write_csv(
        stage_dir / "fig_nec_purity.csv",
        ["community", "n_urls", "purity_T", "purity_N"],
        [(c, len(partition.members(c)), t, n)
         for c, (_, t, n) in zip(partition.community_ids(), purity_rows)],
    )
    write_csv(
        stage_dir / "fig_voters_vs_theta.csv",
        ["strategy", "theta", "n_voters"],
        [(p.strategy, p.theta, p.n_voters) for p in sweep],
    )
    write_csv(
        stage_dir / "fig_coverage_vs_theta.csv",
        ["strategy", "theta", "level", "covered"],
        [(p.strategy, p.theta, level, p.covered[level])
         for p in sweep for level in ("T", "N", "UNC")],
    )
    write_csv(
        stage_dir / "fig_balanced_accuracy_vs_theta.csv",
        ["strategy", "theta", "balanced_accuracy_mean", "balanced_accuracy_std"],
        [
            (p.strategy, p.theta, p.balanced_accuracy_mean, p.balanced_accuracy_std)
            for p in sweep
        ],
    )
    write_csv(
        stage_dir / "fig_knowledge_vs_theta.csv",
        ["strategy", "theta", "knowledge"],
        [(p.strategy, p.theta, p.knowledge) for p in sweep],
    )
    return None, {}


FIGURE_FILES = (
    "fig_nec_purity.csv",
    "fig_voters_vs_theta.csv",
    "fig_coverage_vs_theta.csv",
    "fig_balanced_accuracy_vs_theta.csv",
    "fig_knowledge_vs_theta.csv",
)


# ---------------------------------------------------------------------------
# the stage table, hashes and the full run

@dataclass(frozen=True)
class Stage:
    name: str
    tag: str  # version of the stage's algorithm: bump it when its output bytes change
    reads: tuple[str, ...]  # stages whose values its function takes
    settings: tuple[str, ...]  # PipelineConfig fields its hash covers
    artifacts: Callable[[PipelineConfig], tuple[str, ...]]  # files besides meta.json a reuse needs
    always_run: bool = False  # a run recomputes it even when its cache is current


#: the method's chain in run order; a stage reads only stages listed before it
STAGES = (
    Stage("ingest", "6", (), (),
          lambda c: ("interactions.csv", "shares.csv", "publishers.csv")),
    Stage("bicm", "1", ("ingest",), ("solver_tol", "solver_max_iter"),
          lambda c: ("fitness.csv",)),
    Stage("projection", "degree-class-2", ("bicm",), ("alpha",),
          lambda c: ("validated_edges.csv",)),
    Stage("nec", "2", ("ingest", "projection"), ("louvain_seed",),
          lambda c: ("partition.csv", "nec_summary.csv", "purity.csv")),
    Stage("voters", "2", ("ingest", "projection"), ("strategies", "theta_min"),
          lambda c: tuple(f"voters_{s}.csv" for s in c.strategies)),
    # its report section is not persisted, so a run cannot reuse classify;
    # emit_figures refuses a run whose classify meta and sweep are not current
    Stage("classify", "1", ("ingest", "projection", "voters"),
          ("theta_max", "cv_folds", "cv_seed"), lambda c: ("sweep.csv",), always_run=True),
    Stage("figures", "1", ("nec", "classify"), (), lambda c: (), always_run=True),
)


def _input_hashes(config: PipelineConfig) -> list[str]:
    """SHA-256 of both input files; an unreadable one fails ingest, the stage that reads it."""
    try:
        return [_sha256_file(config.posts), _sha256_file(config.knowledge_base)]
    except OSError as exc:
        raise StageError("ingest", exc) from exc


def stage_hashes(config: PipelineConfig, inputs: list[str] | None = None) -> dict[str, str]:
    """Per stage, the hash of its tag, its settings and the hashes of the stages it reads.

    Ingest hashes the input files' content: ``inputs`` when the caller has
    already hashed them, otherwise ``_input_hashes(config)``.
    """
    inputs = inputs or _input_hashes(config)
    h: dict[str, str] = {}
    for stage in STAGES:
        h[stage.name] = _hash_obj({
            "stage": stage.name,
            "tag": stage.tag,
            "parents": [h[r] for r in stage.reads] or inputs,  # only ingest reads no stage
            "settings": {f: getattr(config, f) for f in stage.settings},
        })
    return h


def _reusable(stage: Stage, config: PipelineConfig, stage_hash: str) -> dict | None:
    """The stage's meta when it carries ``stage_hash`` and its artifacts exist."""
    stage_dir = Path(config.out_dir) / stage.name
    meta = _read_meta(stage_dir)
    if meta is None or meta.get("config_hash") != stage_hash:
        return None
    return meta if all((stage_dir / f).exists() for f in stage.artifacts(config)) else None


def _run_stage(stage: Stage, config: PipelineConfig, values: dict,
               stage_hash: str, checked: dict | None) -> tuple[object, dict]:
    """Load or compute one stage; (value, meta). Any failure raises StageError.

    ``checked`` is the stage's meta if the caller has already found it reusable.
    """
    started = time.perf_counter()
    stage_dir = Path(config.out_dir) / stage.name
    try:
        cached = None if stage.always_run else checked or _reusable(stage, config, stage_hash)
        if cached is not None:
            log.info("%s: reusing cached artifacts", stage.name)
        else:
            # a crash from here on must leave no meta.json beside new artifacts
            (stage_dir / "meta.json").unlink(missing_ok=True)
        run = globals()[f"stage_{stage.name}"]  # looked up per call: tracers replace it
        value, meta = run(config, values, stage_dir, cached)
        if cached is None:
            meta = {"config_hash": stage_hash, **meta}
            write_json(stage_dir / "meta.json", meta)
    except Exception as exc:
        raise StageError(stage.name, exc) from exc
    log.info("%s: done in %.3f s", stage.name, time.perf_counter() - started)
    return value, meta


def run_stages(config: PipelineConfig, target: str, inputs: list[str] | None = None,
               checked: dict[str, dict] | None = None) -> tuple[dict, dict, dict]:
    """Run ``target`` and every stage it reads, in table order; (values, metas, hashes).

    ``checked`` maps stage names to metas the caller has already found reusable.
    """
    hashes = stage_hashes(config, inputs)
    needed = {target}
    for stage in reversed(STAGES):
        if stage.name in needed:
            needed.update(stage.reads)
    values, metas = {}, {}
    for stage in STAGES:
        if stage.name in needed:
            values[stage.name], metas[stage.name] = _run_stage(
                stage, config, values, hashes[stage.name], (checked or {}).get(stage.name)
            )
    return values, metas, hashes


def emit_figures(config: PipelineConfig) -> Path:
    """Rerun the figures stage of a completed run, as ``run_stages`` runs it.

    A stage the figures read that is absent or stale under ``config`` is
    missing, and a run with a missing stage is refused with a ValueError.
    """
    inputs = _input_hashes(config)
    hashes = stage_hashes(config, inputs)
    figures = STAGES[-1]
    checked = {s.name: _reusable(s, config, hashes[s.name])
               for s in STAGES if s.name in figures.reads}
    missing = [name for name, meta in checked.items() if meta is None]
    if missing:
        raise ValueError(f"incomplete run, missing stages: {', '.join(missing)}")
    run_stages(config, "figures", inputs, checked)
    return Path(config.out_dir) / "figures"


@dataclass
class PipelineResult:
    out_dir: Path
    corpus: Corpus
    kb: KnowledgeBase
    graph: bicm.BipartiteGraph
    model: bicm.BicmModel
    network: projection.ValidatedNetwork
    partition: nec.Partition
    profiles: dict[StrategyKind, list[VoterProfile]]
    report: dict = field(default_factory=dict)


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute every stage in order, persisting artifacts under out_dir."""
    inputs = _input_hashes(config)
    values, metas, hashes = run_stages(config, "figures", inputs)
    (corpus, kb), (graph, model) = values["ingest"], values["bicm"]
    network, profiles, (results, _) = values["projection"], values["voters"], values["classify"]
    partition, summary, _ = values["nec"]
    bicm_meta, nec_meta = metas["bicm"], metas["nec"]
    out = Path(config.out_dir)

    # paths are machine-specific; the report carries content hashes instead
    config_echo = {**asdict(config), "strategies": list(config.strategies)}
    for key in ("posts", "knowledge_base", "out_dir"):
        config_echo.pop(key, None)
    report = {
        "config": config_echo,
        "inputs": {
            "posts_sha256": inputs[0],
            "knowledge_base_sha256": inputs[1],
        },
        "stage_hashes": hashes,
        "ingest": {k: v for k, v in metas["ingest"].items() if k != "config_hash"},
        "bicm": {k: bicm_meta[k] for k in ("iterations", "residual", "n_users", "n_urls", "n_links")}
                | {"n_forced_links": len(bicm_meta["forced_links"])},
        "projection": {k: v for k, v in metas["projection"].items() if k != "config_hash"},
        "nec": {k: nec_meta[k] for k in ("modularity", "n_communities")}
               | {"summary": [dict(zip(NEC_SUMMARY_HEADER, row)) for row in summary]},
        "classify": results,
    }
    write_json(out / "report.json", report)
    return PipelineResult(
        out_dir=out,
        corpus=corpus,
        kb=kb,
        graph=graph,
        model=model,
        network=network,
        partition=partition,
        profiles=profiles,
        report=report,
    )
