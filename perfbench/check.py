"""Output checks for one op's run directory.

Three checks, all on named values read back from the run directory rather
than on file bytes:

* invariants that hold for any seed (edge p-values under the BH cutoff,
  every URL in the partition, one sweep row per strategy and theta, and the
  number of pairs tested equal to a co-occurrence count this module makes
  itself from ``ingest/interactions.csv``);
* for a workload's default seed, the recorded reference values: validated
  edge pairs, ``n_edges``, the partition, CV means, sweep rows and the order
  of the worthy lists. p-values, the BH cutoff and accuracies compare to an
  absolute ``TOLERANCE``, so a change that only moves a p-value that had
  underflowed, or adds a field, still passes;
* ops with the same config leave byte-identical run directories (the
  caller compares :func:`dir_digest` values).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
from scipy import sparse

TOLERANCE = 1e-12


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dir_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _digest_rows(rows) -> str:
    return hashlib.sha256("\n".join(",".join(r) for r in rows).encode()).hexdigest()


def link_shape(run_dir: Path) -> dict[str, int]:
    """Degree classes, co-occurring URL pairs and their degree-class pairs."""
    rows = _rows(run_dir / "ingest" / "interactions.csv")
    users = {u: i for i, u in enumerate(sorted({r[0] for r in rows}))}
    urls = {a: j for j, a in enumerate(sorted({r[1] for r in rows}))}
    pairs = {(users[r[0]], urls[r[1]]) for r in rows}
    ui = np.fromiter((i for i, _ in pairs), dtype=np.int64, count=len(pairs))
    aj = np.fromiter((j for _, j in pairs), dtype=np.int64, count=len(pairs))
    adj = sparse.csr_matrix(
        (np.ones(len(pairs), dtype=np.int32), (ui, aj)), shape=(len(users), len(urls))
    )
    co = sparse.triu(adj.T @ adj, k=1).tocoo()
    user_deg = np.asarray(adj.sum(axis=1)).ravel()
    url_deg = np.asarray(adj.sum(axis=0)).ravel()
    da, db = url_deg[co.row], url_deg[co.col]
    class_pairs = set(zip(np.minimum(da, db).tolist(), np.maximum(da, db).tolist()))
    return {
        "links": len(pairs),
        "degree_classes": len(set(user_deg.tolist())) + len(set(url_deg.tolist())),
        "cooccurring_pairs": int(co.nnz),
        "class_pairs": len(class_pairs),
    }


def shape_counts(run_dir: Path) -> dict[str, int]:
    """The input's size as the run saw it, for comparing two benchmark runs."""
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    shape = link_shape(run_dir)
    return {
        "posts": report["ingest"]["n_posts"],
        "malformed": report["ingest"]["n_malformed"],
        "links": shape["links"],
        "degree_classes": shape["degree_classes"],
        "pairs_tested": report["projection"]["n_tested"],
        "class_pairs": shape["class_pairs"],
    }


def extract(run_dir: Path) -> dict[str, object]:
    """Named output values of a finished run directory."""
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    edges = _rows(run_dir / "projection" / "validated_edges.csv")
    partition = _rows(run_dir / "nec" / "partition.csv")
    values: dict[str, object] = {
        "projection.n_edges": report["projection"]["n_edges"],
        "projection.n_tested": report["projection"]["n_tested"],
        "projection.bh_threshold": report["projection"]["bh_threshold"],
        "projection.edge_pairs_sha256": _digest_rows([r[:2] for r in edges]),
        "projection.edge_pvalues": [float(r[2]) for r in edges],
        "nec.n_communities": report["nec"]["n_communities"],
        "nec.partition_sha256": _digest_rows(partition),
    }
    for name, strategy in sorted(report["classify"]["strategies"].items()):
        cv = strategy["cv"]
        values[f"cv_mean[{name}]"] = cv["mean"] if cv else None
        values[f"worthy_order[{name}]"] = [w["domain"] for w in strategy["worthy"]]
    rows: dict[str, list] = {}
    for p in report["classify"]["sweep"]:
        rows.setdefault(p["strategy"], []).append(p)
    for name, points in sorted(rows.items()):
        points.sort(key=lambda p: p["theta"])
        values[f"sweep.n_voters[{name}]"] = [p["n_voters"] for p in points]
        values[f"sweep.covered[{name}]"] = [
            [p["covered"]["T"], p["covered"]["N"], p["covered"]["UNC"]] for p in points
        ]
        values[f"sweep.mean_balanced_accuracy[{name}]"] = [
            p["balanced_accuracy_mean"] for p in points
        ]
    return values


#: extracted values that change with cv_seed; the rest depend only on the inputs
CV_DEPENDENT = ("cv_mean[", "sweep.mean_balanced_accuracy[")


def invariants(run_dir: Path) -> list[str]:
    """Problems that would be wrong for any input; empty when all hold."""
    problems = []
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    proj = report["projection"]
    edges = _rows(run_dir / "projection" / "validated_edges.csv")
    if proj["n_edges"] != len(edges) or not edges:
        problems.append(f"n_edges {proj['n_edges']} vs {len(edges)} edge rows")
    if any(float(r[2]) > proj["bh_threshold"] for r in edges):
        problems.append("a validated edge has a p-value above the BH cutoff")
    shape = link_shape(run_dir)
    if proj["n_tested"] != shape["cooccurring_pairs"]:
        problems.append(
            f"n_tested {proj['n_tested']} but {shape['cooccurring_pairs']} co-occurring pairs"
        )
    partition = _rows(run_dir / "nec" / "partition.csv")
    if len(partition) != report["bicm"]["n_urls"]:
        problems.append(f"partition has {len(partition)} URLs of {report['bicm']['n_urls']}")
    ids = {int(c) for _, c in partition if int(c) >= 0}
    if ids != set(range(report["nec"]["n_communities"])):
        problems.append("community ids are not 0..n_communities-1")
    config = report["config"]
    n_theta = config["theta_max"] - config["theta_min"] + 1
    sweep = report["classify"]["sweep"]
    if len(sweep) != n_theta * len(config["strategies"]):
        problems.append(f"{len(sweep)} sweep rows")
    for strategy in config["strategies"]:
        counts = [p["n_voters"] for p in sweep if p["strategy"] == strategy]
        if counts != sorted(counts, reverse=True):
            problems.append(f"voters grow with theta for {strategy}")
    return problems


def _same(ref, got) -> bool:
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(
            _same(r, g) for r, g in zip(ref, got)
        )
    if isinstance(ref, float) and isinstance(got, (int, float)):
        return abs(ref - got) <= TOLERANCE
    return ref == got


def compare(reference: dict[str, object], values: dict[str, object]) -> list[str]:
    """Names whose value differs from the reference; missing names differ."""
    return [
        f"{name} differs from the reference"
        for name, ref in reference.items()
        if name not in values or not _same(ref, values[name])
    ]


def reference_values(reference: dict, cv_seed: int) -> dict[str, object] | None:
    """The recorded values for one cv_seed, or None if none were recorded."""
    per_config = reference["per_cv_seed"].get(str(cv_seed))
    if per_config is None:
        return None
    return {**reference["values"], **per_config}


def split_reference(values: dict[str, object]) -> tuple[dict, dict]:
    """(values that depend only on the inputs, values that depend on cv_seed)."""
    shared = {k: v for k, v in values.items() if not k.startswith(CV_DEPENDENT)}
    per_cv = {k: v for k, v in values.items() if k.startswith(CV_DEPENDENT)}
    return shared, per_cv


def check_run(run_dir: Path, reference: dict[str, object] | None) -> list[str]:
    """All problems with one op's outputs; empty when the op is correct."""
    if not (run_dir / "report.json").is_file():
        return ["no report.json"]
    try:
        problems = invariants(run_dir)
        if reference is not None:
            problems += compare(reference, extract(run_dir))
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems
