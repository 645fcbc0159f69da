"""Spans and counts recorded around the calls into trustnet's modules.

The tracer replaces a module attribute (for example ``trustnet.pipeline.
load_posts``) by a wrapper, so every caller that looks the name up at call
time goes through it. The wrapper records a span: metric name, start, end,
parent span and op id. Counts are read from the arguments and return values
of the wrapped calls after the op has finished, outside the timed region.

A metric ending in ``_s`` is the self time of its spans: their duration minus
the part covered by child spans. The seven ``pipeline.stage.<stage>_s``
metrics are the exception: they are whole stage durations, the parents of
all layer spans, and they are what the stage-coverage check adds up.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass

STAGES = ("ingest", "bicm", "projection", "nec", "voters", "classify", "figures")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def _one(name):
    return lambda args, kwargs, result: {name: 1}


def _posts(args, kwargs, result):
    posts, malformed = result
    return {"ingest.posts": len(posts), "ingest.malformed": malformed}


def _corpus(args, kwargs, result):
    return {
        "ingest.share_events": len(result.share_events),
        "ingest.interactions": len(result.interactions),
    }


def _graph(args, kwargs, result):
    return {
        "bicm.users": result.n_users,
        "bicm.urls": result.n_urls,
        "bicm.user_classes": len(set(result.user_degrees.tolist())),
        "bicm.url_classes": len(set(result.url_degrees.tolist())),
    }


def _model(args, kwargs, result):
    return {"bicm.iterations": result.iterations, "bicm.forced_links": len(result.forced_links)}


def _tests(args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    degree = graph.url_degrees.tolist()
    classes = {
        (min(degree[t.url_a], degree[t.url_b]), max(degree[t.url_a], degree[t.url_b]))
        for t in result
    }
    return {
        "projection.pairs_tested": len(result),
        "projection.class_pairs": len(classes),
        "projection.max_count": max((t.observed for t in result), default=0),
        "projection.zero_pvalues": sum(1 for t in result if t.pvalue == 0.0),
    }


def _network(args, kwargs, result):
    return {"projection.edges": result.n_edges}


def _partition(args, kwargs, result):
    return {
        "nec.communities": len(result.community_ids()),
        "nec.validated_urls": sum(1 for c in result.assignment.values() if c >= 0),
        "nec.passes": len(result.pass_modularities),
    }


def _profiles(args, kwargs, result):
    return {"voters.profiles": len(result)}


def _written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"pipeline.files_written": 1, "pipeline.bytes_written": os.path.getsize(path)}


# (module under trustnet, attribute, metric its self time feeds, counter)
WRAPPED = (
    ("pipeline", "stage_hashes", "pipeline.stage_hashes_s", None),
    *(("pipeline", f"stage_{s}", f"pipeline.stage.{s}_s", None) for s in STAGES),
    ("pipeline", "load_posts", "ingest.load_posts_s", _posts),
    ("pipeline", "build_corpus", "ingest.build_corpus_s", _corpus),
    ("pipeline", "load_knowledge_base", "ingest.load_knowledge_base_s", None),
    ("bicm", "build_graph", "bicm.build_graph_s", _graph),
    ("bicm", "solve", "bicm.solve_s", _model),
    ("projection", "cooccurrences", "projection.cooccurrences_s", None),
    ("projection", "pair_pvalues", "projection.pair_pvalues_s", _tests),
    ("projection", "bh_validate", "projection.bh_validate_s", _network),
    ("nec", "louvain", "nec.louvain_s", _partition),
    *(("nec", f, "nec.stats_s", _one("nec.stats_calls"))
      for f in ("nec_summary", "purity", "overall_purity", "unclustered_purity")),
    ("voters", "build_voter_profiles", "voters.build_profiles_s", _profiles),
    ("voters", "filter_min_publishers", "voters.filter_s", _one("voters.filter_calls")),
    ("classify", "publisher_scores", "classify.publisher_scores_s",
     _one("classify.publisher_scores_calls")),
    ("classify", "coverage", "classify.coverage_s", None),
    ("classify", "stratified_cv", "classify.stratified_cv_s", _one("classify.cv_runs")),
    ("classify", "fit_stump", "classify.fit_stump_s", _one("classify.stump_fits")),
    ("classify", "worthy_list", "classify.worthy_list_s", None),
    ("pipeline", "compute_sweep", "pipeline.compute_sweep_s", None),
    *(("pipeline", f, "pipeline.write_s", _written) for f in ("write_csv", "write_json")),
    *(("pipeline", f, "pipeline.load_s", _one("pipeline.cache_hits"))
      for f in ("load_corpus", "load_model", "load_validated", "load_partition")),
)

COUNTS = (
    "ingest.posts", "ingest.malformed", "ingest.share_events", "ingest.interactions",
    "bicm.users", "bicm.urls", "bicm.user_classes", "bicm.url_classes",
    "bicm.iterations", "bicm.forced_links",
    "projection.pairs_tested", "projection.class_pairs", "projection.max_count",
    "projection.edges", "projection.zero_pvalues",
    "nec.communities", "nec.validated_urls", "nec.passes", "nec.stats_calls",
    "voters.profiles", "voters.filter_calls",
    "classify.publisher_scores_calls", "classify.stump_fits", "classify.cv_runs",
    "pipeline.files_written", "pipeline.bytes_written", "pipeline.cache_hits",
)

# ratio name -> (numerator, denominator)
RATIOS = {
    "ingest.kept_ratio": ("ingest.interactions", "ingest.share_events"),
    "projection.validated_ratio": ("projection.edges", "projection.pairs_tested"),
}

TIMES = tuple(dict.fromkeys(metric for _, _, metric, _ in WRAPPED))

#: every per-layer metric of a traced op, in report order
METRICS = TIMES + COUNTS + tuple(RATIOS) + ("pipeline.cpu_s",)


class Tracer:
    """Wraps trustnet module attributes for one op and records its spans."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[Span] = []
        self.count_errors: list[str] = []
        self._stack: list[int] = []
        self._calls: list[tuple] = []
        self._restore: list[tuple] = []

    def wrap(self, module, attr: str, metric: str, counter=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.count_errors.append(f"{module.__name__}.{attr} not found; not traced")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), metric, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if counter is not None:
                self._calls.append((counter, args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def install(self, package: str = "trustnet") -> None:
        for module_name, attr, metric, counter in WRAPPED:
            module = importlib.import_module(f"{package}.{module_name}")
            self.wrap(module, attr, metric, counter)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def counts(self) -> dict[str, float]:
        """Counts from the recorded calls; a counter that fails is reported, not raised."""
        totals: dict[str, float] = {name: 0 for name in COUNTS}
        for counter, args, kwargs, result in self._calls:
            try:
                for name, value in counter(args, kwargs, result).items():
                    totals[name] += value
            except Exception:  # a changed return type must not stop the run
                self.count_errors.append(traceback.format_exc(limit=2))
        for name, (num, den) in RATIOS.items():
            totals[name] = totals[num] / totals[den] if totals[den] else 0.0
        return totals

    def span_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Metric -> seconds: self time summed per metric, whole duration for stages."""
    own = self_times(spans)
    totals = {name: 0.0 for name in TIMES}
    for s in spans:
        whole = s.name.startswith("pipeline.stage.")
        totals[s.name] = totals.get(s.name, 0.0) + ((s.end - s.start) if whole else own[s.id])
    return totals


def stage_coverage(spans: list[Span], wall_s: float) -> float:
    """Share of the op's wall time inside top-level stage spans."""
    inside = sum(
        s.end - s.start for s in spans
        if s.parent is None and s.name.startswith("pipeline.stage.")
    )
    return inside / wall_s if wall_s > 0 else 0.0


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
