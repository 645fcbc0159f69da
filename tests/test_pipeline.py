import csv
import dataclasses
import io
import json
import logging
import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import corpus_arrays, traced_peak, tree_digest, write_spelled
from trustnet import pipeline
from trustnet.ingest import Corpus, Label, build_corpus, load_posts
from trustnet.pipeline import PipelineConfig, StageError, emit_figures, run_pipeline
from trustnet.synth import SyntheticSpec, generate_synthetic

# the acceptance spec: 49 validated edges and 31 communities at alpha 0.05
SPEC = SyntheticSpec(200, 15, 10)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inputs")
    generate_synthetic(SPEC, tmp / "posts.jsonl", tmp / "kb.csv")
    return tmp


def make_config(inputs, out, **kwargs):
    defaults = dict(
        posts=str(inputs / "posts.jsonl"),
        knowledge_base=str(inputs / "kb.csv"),
        out_dir=str(out),
        theta_max=6,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def run(inputs, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = make_config(inputs, out)
    result = run_pipeline(config)
    # the tests below check edges and communities only if there are some
    assert result.network.n_edges > 0
    assert len(result.partition.community_ids()) >= 2
    return result, config


STAGE_FILES = {
    "ingest": ["meta.json", "interactions.csv", "shares.csv", "publishers.csv"],
    "bicm": ["meta.json", "fitness.csv"],
    "projection": ["meta.json", "validated_edges.csv"],
    "nec": ["meta.json", "partition.csv", "nec_summary.csv", "purity.csv"],
    "voters": ["meta.json"],
    "classify": ["meta.json", "coverage.csv", "sweep.csv"],
    "figures": ["meta.json", *pipeline.FIGURE_FILES],
}


#: SHA-256 of each stage directory of the ``run`` fixture, keyed by (stage, tag),
#: and of its report.json. A stage whose bytes change gets a new tag.
PINS = {
    ("ingest", "6"): "fb6592da6089eb86683eac84159da911bfca253261ccb5d70af700857f9fe6ab",
    ("bicm", "1"): "0fee5f3649935debd1e54435a6c67a2e70bced57e03070b0b0f8973a10d122da",
    ("projection", "degree-class-2"):
        "89369fb5f1a3ac8293429c3bb29d5ee9b4cc679e040c3b1cbf16ab26dc1d15b2",
    ("nec", "2"): "4829daba0e741de4da6248bb54fe1e809a75c971cffb0163b1696ae0c2bbdbb3",
    ("voters", "2"): "98efcf600c8efb0254ec1f56cfcda91d4241be73d81677daac4a805edc8bacb5",
    ("classify", "1"): "f8e1e069aef78c4c29a4c944ca60d060cc0150750c5ede924863632d983d3de9",
    ("figures", "1"): "5aa7f0e33c6ca0fdc454bc137ad8de0879f9f72cf4e9f66f5d82c41a7fa66da5",
    "report.json": "0577d2b32e35f745eebfe38dbc902aef0a02cd72f4392ada5f5aef1347a25270",
}


def test_run_directory_bytes_match_stage_tags(run):
    result, _ = run
    for stage in pipeline.STAGES:
        key = (stage.name, stage.tag)
        assert tree_digest(result.out_dir / stage.name) == PINS.get(key), (
            f"the bytes of stage {stage.name!r} (tag {stage.tag!r}) differ from its pin: "
            "if the change is meant, bump the stage's tag in pipeline.STAGES "
            f"and pin the new digest under {key} in PINS"
        )
    assert tree_digest(result.out_dir / "report.json") == PINS["report.json"], (
        "report.json differs from its pin: if a stage's bytes changed, bump its tag "
        "in pipeline.STAGES, then update the pins"
    )


#: SHA-256 of the ingest and bicm stage directories of a run on ``SPEC`` plus
#: one URL that every user shares and one user who shares every URL: 694 forced
#: links, one pinned user and one pinned URL (``PINS``' corpus has none). Later
#: stages are not pinned here: their p-value bits follow numpy's SIMD dispatch.
FORCED_PINS = {
    ("ingest", "6"): "96058ec68328ada10a3ab92cc5989b83a107bf339e5d826067a215fb734d85fe",
    ("bicm", "1"): "062d4960a34624bc25d2fb56f1c3a713ef01877528d150632241314fe881cce1",
}


def write_forced_link_inputs(inputs: Path, out: Path) -> None:
    """``inputs`` plus posts that give a URL every user shares and a user who shares every URL."""
    lines = (inputs / "posts.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    everyone, completist = "https://everyone.example/story", "u9999"
    users = sorted({r["user_id"] for r in records} | {completist})
    urls = sorted({url for r in records for url in r["urls"]} | {everyone})
    extra = [(f"e{i:05d}", user, everyone) for i, user in enumerate(users)]
    extra += [(f"c{i:05d}", completist, url) for i, url in enumerate(urls)]
    for post_id, user, url in extra:
        record = {"post_id": post_id, "user_id": user, "timestamp": 1_800_000_000,
                  "urls": [url], "kind": "original"}
        lines.append(json.dumps(record, sort_keys=True))
    (out / "posts.jsonl").write_text("\n".join(lines) + "\n")
    (out / "kb.csv").write_bytes((inputs / "kb.csv").read_bytes())


def test_forced_link_run_bytes_match_pins(inputs, tmp_path):
    write_forced_link_inputs(inputs, tmp_path)
    result = run_pipeline(make_config(tmp_path, tmp_path / "run"))
    assert len(result.model.forced_links) == 694
    assert (np.isinf(result.model.x).sum(), np.isinf(result.model.y).sum()) == (1, 1)
    assert result.network.n_edges > 0
    for stage in pipeline.STAGES[:2]:
        key = (stage.name, stage.tag)
        assert tree_digest(result.out_dir / stage.name) == FORCED_PINS.get(key), key


class TestRunArtifacts:
    def test_all_stage_files_present(self, run):
        result, _ = run
        for stage, files in STAGE_FILES.items():
            for name in files:
                assert (result.out_dir / stage / name).exists(), f"{stage}/{name}"
        assert (result.out_dir / "report.json").exists()

    def test_one_voter_table_per_strategy(self, run):
        result, config = run
        voters_dir = result.out_dir / "voters"
        assert sorted(p.name for p in voters_dir.glob("voters_*.csv")) == sorted(
            f"voters_{s}.csv" for s in config.strategies
        )
        assert not list(voters_dir.glob("*_theta*.csv"))

    def test_stage_metas_carry_config_hash(self, run):
        result, config = run
        hashes = pipeline.stage_hashes(config)
        for stage in STAGE_FILES:
            meta = json.loads((result.out_dir / stage / "meta.json").read_text())
            assert meta["config_hash"] == hashes[stage]

    def test_validated_edges_have_observed_cooccurrence(self, run):
        from trustnet import projection

        result, _ = run
        url_a, url_b, observed = projection.cooccurrences(result.graph)
        counts = dict(zip(zip(url_a.tolist(), url_b.tolist()), observed.tolist()))
        index = result.graph.url_index
        for a, b, _ in result.network.edges:
            ia, ib = sorted((index[a], index[b]))
            assert counts[(ia, ib)] >= 1

    def test_partition_covers_all_articles(self, run):
        result, _ = run
        assert set(result.partition.assignment) == set(result.corpus.urls)

    def test_every_community_is_connected(self, run):
        # Louvain can leave a community disconnected (Traag et al., Sci. Rep. 9:5233)
        result, _ = run
        nbrs = defaultdict(set)
        for a, b, _ in result.network.edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        for c in result.partition.community_ids():
            members = result.partition.members(c)
            start = min(members)
            seen, stack = {start}, [start]
            while stack:
                for v in nbrs[stack.pop()] & members - seen:
                    seen.add(v)
                    stack.append(v)
            assert seen == members, f"community {c} is not connected"


def count_meta_reads(monkeypatch) -> list[str]:
    """Stage directory names, one per ``pipeline._read_meta`` call from now on."""
    read_meta, reads = pipeline._read_meta, []

    def counting_read_meta(stage_dir):
        reads.append(stage_dir.name)
        return read_meta(stage_dir)

    monkeypatch.setattr(pipeline, "_read_meta", counting_read_meta)
    return reads


class TestDeterminism:
    def test_reruns_are_byte_identical(self, inputs, tmp_path_factory):
        out1 = tmp_path_factory.mktemp("det1")
        out2 = tmp_path_factory.mktemp("det2")
        run_pipeline(make_config(inputs, out1, theta_max=3))
        run_pipeline(make_config(inputs, out2, theta_max=3))
        files1 = sorted(p.relative_to(out1) for p in Path(out1).rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in Path(out2).rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_run_bytes_do_not_depend_on_the_hash_seed(self, inputs, tmp_path):
        # str hashes, and so the order of sets of URLs, change with PYTHONHASHSEED;
        # the second corpus spells each URL four ways and has malformed lines
        write_spelled(inputs / "posts.jsonl", tmp_path / "spelled.jsonl")
        script = (
            "import sys; from trustnet.pipeline import PipelineConfig, run_pipeline; "
            "run_pipeline(PipelineConfig(posts=sys.argv[1], knowledge_base=sys.argv[2], "
            "out_dir=sys.argv[3], theta_max=6))"
        )
        src = str(Path(pipeline.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        for posts in (inputs / "posts.jsonl", tmp_path / "spelled.jsonl"):
            outs = [tmp_path / posts.stem / f"seed{seed}" for seed in (0, 1)]
            for seed, out in enumerate(outs):
                subprocess.run(
                    [sys.executable, "-c", script, str(posts), str(inputs / "kb.csv"), str(out)],
                    env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path},
                    check=True, timeout=300,
                )
            files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
                     for out in outs]
            assert files[0] == files[1] and files[0]
            for rel in files[0]:
                assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_cached_stages_are_reused(self, inputs, tmp_path_factory, caplog):
        out = tmp_path_factory.mktemp("cache")
        config = make_config(inputs, out, theta_max=2)
        run_pipeline(config)
        stamp = (out / "bicm" / "fitness.csv").stat().st_mtime_ns
        import logging

        with caplog.at_level(logging.INFO):
            run_pipeline(config)
        assert (out / "bicm" / "fitness.csv").stat().st_mtime_ns == stamp
        assert any("reusing cached" in m for m in caplog.messages)

    def test_reused_ingest_keeps_the_skipped_url_count(self, inputs, tmp_path, caplog):
        hostless = {"kind": "original", "post_id": "hostless", "timestamp": 0,
                    "urls": ["notaurl"], "user_id": "u0000"}
        posts = tmp_path / "posts.jsonl"
        posts.write_text((inputs / "posts.jsonl").read_text() + json.dumps(hostless) + "\n")
        config = make_config(inputs, tmp_path / "out", posts=str(posts), theta_max=2)
        assert run_pipeline(config).corpus.skipped_urls == 1
        with caplog.at_level(logging.INFO):
            rerun = run_pipeline(config)
        assert "ingest: reusing cached artifacts" in caplog.messages
        assert rerun.corpus.skipped_urls == 1

    def test_cv_seed_rerun_reloads_the_fresh_corpus(self, inputs, tmp_path, caplog):
        config = make_config(inputs, tmp_path, theta_max=2)
        fresh = run_pipeline(config).corpus
        with caplog.at_level(logging.INFO):
            reloaded = run_pipeline(dataclasses.replace(config, cv_seed=1)).corpus
        assert "ingest: reusing cached artifacts" in caplog.messages
        assert corpus_arrays(reloaded) == corpus_arrays(fresh)

    def test_louvain_seed_rerun_counts_shares_from_the_reused_ingest(self, inputs, tmp_path,
                                                                     caplog):
        rerun = tmp_path / "rerun"
        run_pipeline(make_config(inputs, rerun, theta_max=2))
        with caplog.at_level(logging.INFO):
            run_pipeline(make_config(inputs, rerun, theta_max=2, louvain_seed=1))
        assert "ingest: reusing cached artifacts" in caplog.messages
        assert "nec: reusing cached artifacts" not in caplog.messages
        fresh = tmp_path / "fresh"
        run_pipeline(make_config(inputs, fresh, theta_max=2, louvain_seed=1))
        summary = Path("nec", "nec_summary.csv")
        assert (rerun / summary).read_bytes() == (fresh / summary).read_bytes()

    def test_rerun_reads_each_checked_meta_once(self, inputs, tmp_path, monkeypatch):
        config = make_config(inputs, tmp_path / "reads", theta_max=2)
        first = run_pipeline(config)
        reads = count_meta_reads(monkeypatch)
        again = run_pipeline(config)
        assert sorted(reads) == sorted(s.name for s in pipeline.STAGES if not s.always_run)
        assert again.report == first.report

    def test_emit_figures_reads_each_meta_once(self, inputs, tmp_path, monkeypatch):
        config = make_config(inputs, tmp_path / "reads", theta_max=2)
        run_pipeline(config)
        reads = count_meta_reads(monkeypatch)
        emit_figures(config)
        # its refusal check reads nec and classify; the runner the other reused stages
        assert sorted(reads) == ["bicm", "classify", "ingest", "nec", "projection", "voters"]

    def test_changing_alpha_invalidates_projection_only(self, inputs, tmp_path_factory):
        out = tmp_path_factory.mktemp("inval")
        config = make_config(inputs, out, theta_max=2)
        run_pipeline(config)
        bicm_stamp = (out / "bicm" / "fitness.csv").stat().st_mtime_ns
        proj_stamp = (out / "projection" / "validated_edges.csv").stat().st_mtime_ns
        config2 = make_config(inputs, out, theta_max=2, alpha=0.01)
        run_pipeline(config2)
        assert (out / "bicm" / "fitness.csv").stat().st_mtime_ns == bicm_stamp
        assert (out / "projection" / "validated_edges.csv").stat().st_mtime_ns != proj_stamp

    def test_projection_from_per_user_tails_recomputes(self, inputs, tmp_path_factory, caplog):
        out = tmp_path_factory.mktemp("tails")
        config = make_config(inputs, out, theta_max=2)
        run_pipeline(config)
        hashes = pipeline.stage_hashes(config)
        # the projection hash a run directory got before the tails were tagged
        per_user_hash = pipeline._hash_obj(
            {"stage": "projection", "parent": hashes["bicm"], "alpha": config.alpha,
             "method": "exact"}
        )
        assert per_user_hash != hashes["projection"]
        meta_path = out / "projection" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["config_hash"] = per_user_hash
        meta_path.write_text(json.dumps(meta))
        stamp = (out / "projection" / "validated_edges.csv").stat().st_mtime_ns
        import logging

        with caplog.at_level(logging.INFO):
            run_pipeline(config)
        assert not any("projection: reusing cached" in m for m in caplog.messages)
        assert (out / "projection" / "validated_edges.csv").stat().st_mtime_ns != stamp
        assert json.loads(meta_path.read_text())["config_hash"] == hashes["projection"]

    @pytest.mark.parametrize("artifact", [
        "voters/voters_DS-ALL.csv", "nec/purity.csv", "ingest/publishers.csv",
    ])
    def test_deleted_artifact_is_rewritten(self, inputs, tmp_path, artifact):
        out = tmp_path / "repair"
        config = make_config(inputs, out, theta_max=2)
        run_pipeline(config)
        blob = (out / artifact).read_bytes()
        (out / artifact).unlink()
        run_pipeline(config)
        assert (out / artifact).read_bytes() == blob

    def test_bumped_tag_recomputes_its_stage_and_later_readers(
        self, inputs, tmp_path, monkeypatch, caplog
    ):
        out = tmp_path / "tagged"
        config = make_config(inputs, out, theta_max=2)
        run_pipeline(config)
        stages = tuple(
            dataclasses.replace(s, tag=s.tag + "-next") if s.name == "nec" else s
            for s in pipeline.STAGES
        )
        monkeypatch.setattr(pipeline, "STAGES", stages)
        stamp = (out / "nec" / "partition.csv").stat().st_mtime_ns
        with caplog.at_level(logging.INFO):
            run_pipeline(config)
        reused = {m.split(":")[0] for m in caplog.messages if "reusing cached artifacts" in m}
        assert reused == {"ingest", "bicm", "projection", "voters"}
        assert (out / "nec" / "partition.csv").stat().st_mtime_ns != stamp
        meta = json.loads((out / "nec" / "meta.json").read_text())
        assert meta["config_hash"] == pipeline.stage_hashes(config)["nec"]

    def test_every_setting_feeds_a_stage_hash(self, inputs):
        config = make_config(inputs, "unused")
        hashes = pipeline.stage_hashes(config)
        for f in dataclasses.fields(PipelineConfig):
            if f.name in ("posts", "knowledge_base", "out_dir"):
                continue
            value = getattr(config, f.name)
            other = value[:-1] if isinstance(value, tuple) else value + 1
            changed = pipeline.stage_hashes(dataclasses.replace(config, **{f.name: other}))
            assert changed != hashes, f.name

    def test_int_for_a_float_setting_hashes_like_the_float(self, inputs, tmp_path):
        configs = []
        for name, tol in (("int", 1), ("float", 1.0)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"solver_tol": tol}))
            configs.append(PipelineConfig.from_file(
                path, posts=str(inputs / "posts.jsonl"), knowledge_base=str(inputs / "kb.csv")
            ))
        assert type(configs[0].solver_tol) is float
        assert pipeline.stage_hashes(configs[0]) == pipeline.stage_hashes(configs[1])

    def test_crash_before_meta_leaves_nothing_reusable(self, inputs, tmp_path, monkeypatch):
        # the S spec validates 49 edges at alpha 0.05 and 1 at 1e-4
        out = tmp_path / "crash"
        run_pipeline(make_config(inputs, out, theta_max=2))
        edges_path = out / "projection" / "validated_edges.csv"
        edges = edges_path.read_bytes()
        write_json = pipeline.write_json

        def crash_on_projection_meta(path, obj):
            if path.parent.name == "projection" and path.name == "meta.json":
                raise OSError("disk full")
            write_json(path, obj)

        monkeypatch.setattr(pipeline, "write_json", crash_on_projection_meta)
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(inputs, out, theta_max=2, alpha=1e-4))
        assert err.value.stage == "projection"
        assert edges_path.read_bytes() != edges  # the crashed run wrote its own edges
        monkeypatch.undo()
        run_pipeline(make_config(inputs, out, theta_max=2))
        assert edges_path.read_bytes() == edges


class TestModelPersistence:
    def test_round_trip_preserves_forced_links_and_fitness(self, tmp_path):
        import numpy as np

        from trustnet import bicm

        # u1 has full degree, so the model carries pinned links and inf fitness
        g = bicm.BipartiteGraph.from_links(
            [("u1", "a1"), ("u1", "a2"), ("u1", "a3"), ("u2", "a1"), ("u3", "a2")]
        )
        model = bicm.solve(g)
        stage_dir = tmp_path / "bicm"
        rows = [
            (uid, "user", int(g.user_degrees[i]), float(model.x[i]))
            for i, uid in enumerate(g.user_ids)
        ] + [
            (aid, "url", int(g.url_degrees[j]), float(model.y[j]))
            for j, aid in enumerate(g.url_ids)
        ]
        pipeline.write_csv(
            stage_dir / "fitness.csv", ["node_id", "layer", "degree", "fitness"], rows
        )
        pipeline.write_json(
            stage_dir / "meta.json",
            {
                "config_hash": "x",
                "iterations": model.iterations,
                "residual": model.residual,
                "forced_links": sorted([i, a] for i, a in model.forced_links),
            },
        )
        loaded = pipeline.load_model(stage_dir, g, pipeline._read_meta(stage_dir))
        assert loaded.forced_links == model.forced_links
        assert np.array_equal(loaded.x, model.x)
        assert np.array_equal(loaded.y, model.y)
        assert np.array_equal(
            bicm.probability_matrix(loaded), bicm.probability_matrix(model)
        )


class TestStageErrors:
    def test_missing_knowledge_base_fails_at_ingest(self, inputs, tmp_path):
        config = make_config(inputs, tmp_path / "out")
        config.knowledge_base = str(tmp_path / "missing.csv")
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"

    def test_bad_posts_fail_with_stage_name(self, inputs, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        config = make_config(inputs, tmp_path / "out", posts=str(bad))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"

    def test_emit_figures_lists_missing_stages(self, inputs, tmp_path):
        config = make_config(inputs, tmp_path / "empty-run")
        (tmp_path / "empty-run").mkdir()
        with pytest.raises(ValueError, match="missing stages"):
            emit_figures(config)

    def test_emit_figures_refuses_a_stale_ingest_and_rebuilds_a_deleted_one(
        self, inputs, tmp_path
    ):
        # nec's hash covers ingest's, so other posts make nec, and classify after it, stale
        config = make_config(inputs, tmp_path / "run", theta_max=2)
        run_pipeline(config)
        interactions = tmp_path / "run" / "ingest" / "interactions.csv"
        blob = interactions.read_bytes()
        interactions.unlink()
        emit_figures(config)
        assert interactions.read_bytes() == blob
        posts = tmp_path / "posts.jsonl"
        posts.write_text((inputs / "posts.jsonl").read_text() + "\n")
        other = dataclasses.replace(config, posts=str(posts))
        with pytest.raises(ValueError, match="missing stages: nec, classify"):
            emit_figures(other)


class TestFigureTables:
    def read_rows(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            return list(reader)

    def test_nec_knowledge_constant_for_nec_strategy(self, run):
        result, _ = run
        rows = self.read_rows(result.out_dir / "figures" / "fig_knowledge_vs_theta.csv")
        values = {r["knowledge"] for r in rows if r["strategy"] == "DS-URL-NEC"}
        assert len(values) == 1

    def test_theta_zero_coverage_equals_unfiltered(self, run):
        from trustnet import classify

        result, config = run
        rows = self.read_rows(result.out_dir / "figures" / "fig_coverage_vs_theta.csv")
        for kind, profiles in result.profiles.items():
            cov = classify.coverage(profiles, result.corpus, result.kb)
            for level in ("T", "N", "UNC"):
                row = next(
                    r
                    for r in rows
                    if r["strategy"] == kind.value
                    and r["theta"] == "0"
                    and r["level"] == level
                )
                assert int(row["covered"]) == cov.covered[classify.Label(level)]

    def test_voter_counts_nonincreasing_in_theta(self, run):
        result, _ = run
        rows = self.read_rows(result.out_dir / "figures" / "fig_voters_vs_theta.csv")
        by_strategy = {}
        for r in rows:
            by_strategy.setdefault(r["strategy"], []).append(
                (int(r["theta"]), int(r["n_voters"]))
            )
        for series in by_strategy.values():
            series.sort()
            counts = [c for _, c in series]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_coverage_identical_across_ds_strategies(self, run):
        from trustnet import classify

        result, _ = run
        from trustnet.voters import StrategyKind

        cov_all = classify.coverage(
            result.profiles[StrategyKind.DS_ALL], result.corpus, result.kb
        )
        cov_nec = classify.coverage(
            result.profiles[StrategyKind.DS_URL_NEC], result.corpus, result.kb
        )
        assert cov_all.covered == cov_nec.covered

    def test_knowledge_counts_labeled_publishers_of_surviving_voters(self, run):
        from trustnet.ingest import Label
        from trustnet.voters import StrategyKind, filter_min_publishers
        from test_voters import user_publishers

        result, config = run
        diets = user_publishers(result.corpus)
        checked = 0
        for point in result.report["classify"]["sweep"]:
            if point["strategy"] == StrategyKind.DS_URL_NEC.value:
                continue
            surviving = filter_min_publishers(
                result.profiles[StrategyKind(point["strategy"])], point["theta"]
            )
            # these strategies characterize a voter by everything they shared
            pubs = set().union(*(diets[v.user_id] for v in surviving))
            assert point["knowledge"] == sum(
                1 for p in pubs if result.kb.label(p) is not Label.UNC
            )
            checked += 1
        assert checked == 3 * len(config.thetas())

    def test_emit_figures_leaves_run_directory_byte_identical(self, run):
        # emit_figures reruns classify and figures, so compare every file, not only figures/
        _, config = run
        files = sorted(p for p in Path(config.out_dir).rglob("*") if p.is_file())
        before = {p: p.read_bytes() for p in files}
        emit_figures(config)
        assert sorted(p for p in Path(config.out_dir).rglob("*") if p.is_file()) == files
        for path, blob in before.items():
            assert path.read_bytes() == blob, path

    def test_emit_figures_matches_run_output(self, run, inputs, tmp_path_factory):
        result, config = run
        before = {
            name: (result.out_dir / "figures" / name).read_bytes()
            for name in pipeline.FIGURE_FILES
        }
        emit_figures(config)
        for name, blob in before.items():
            assert (result.out_dir / "figures" / name).read_bytes() == blob


class TestReportDocument:
    def test_report_contains_every_section(self, run):
        result, _ = run
        report = json.loads((result.out_dir / "report.json").read_text())
        for key in ("config", "ingest", "bicm", "projection", "nec", "classify"):
            assert key in report
        assert report["projection"]["n_edges"] == result.network.n_edges

    def test_nec_summary_table_matches_report(self, run):
        result, _ = run
        with open(result.out_dir / "nec" / "nec_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        report = json.loads((result.out_dir / "report.json").read_text())
        assert len(rows) == len(report["nec"]["summary"])
        for row, entry in zip(rows, report["nec"]["summary"]):
            assert int(row["n_users"]) == entry["n_users"]


def test_inputs_are_hashed_once_per_run(inputs, tmp_path, monkeypatch):
    calls = []
    sha256_file = pipeline._sha256_file

    def counting(path):
        calls.append(path)
        return sha256_file(path)

    monkeypatch.setattr(pipeline, "_sha256_file", counting)
    report = run_pipeline(make_config(inputs, tmp_path / "run", theta_max=2)).report
    assert len(calls) == 2
    assert report["inputs"] == {
        "posts_sha256": sha256_file(inputs / "posts.jsonl"),
        "knowledge_base_sha256": sha256_file(inputs / "kb.csv"),
    }


def _fmt(value) -> str:
    """The per-cell formatting ``write_csv`` applied before it left cells to csv.writer."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, Label):
        return value.value
    return str(value)


def test_write_csv_cells_match_explicit_formatting(tmp_path):
    row = [
        "a,b", 'q"', "", Label.T, Label.UNC, 3, -7, 1.5, 0.1, 5e-324, -0.0,
        math.nan, math.inf, -math.inf, None, True, False,
        np.float64(0.1), np.float64(-0.0), np.float32(0.1), np.int64(7),
    ]
    rows = [row, [None], [np.float64(1e-300), Label.N]]
    pipeline.write_csv(tmp_path / "t.csv", ["h1", "h2"], rows)
    with open(tmp_path / "expected.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["h1", "h2"])
        for r in rows:
            writer.writerow([_fmt(v) for v in r])
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def write_link_rows(path, corpus):
    pipeline.write_csv(path, ["user_id", "url", "publisher"], corpus.link_rows())


def test_write_links_equals_write_csv_of_the_link_rows(tmp_path):
    # cells csv.writer quotes, and an empty user cell: alone in a row it would be written ""
    users, urls = ("", "a,b", 'q"', "x\ny", "z"), ("", "u,1", 'u"2', "u\n3")
    rows = np.arange(len(users) * len(urls), dtype=np.int64)
    corpus = Corpus(users, urls, ("", "p,1", "p2", 'p"3'), rows // len(urls), rows % len(urls),
                    np.ones(len(urls), dtype=np.int64))
    pipeline.write_links(tmp_path / "links.csv", corpus)
    write_link_rows(tmp_path / "rows.csv", corpus)
    assert (tmp_path / "links.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_links_peak_does_not_grow_with_the_links(tmp_path):
    generate_synthetic(SyntheticSpec(500, 20, 15), tmp_path / "posts.jsonl", tmp_path / "kb.csv")
    m = build_corpus(load_posts(tmp_path / "posts.jsonl")[0])  # planted scale M
    # over the same ids, at least 4x M's links: distinct (user, URL) pairs drawn at random
    n = len(m.urls)
    draws = np.random.default_rng(0).integers(0, len(m.users) * n, 5 * m.link_url.size)
    keys = np.unique(draws)
    big = Corpus(m.users, m.urls, m.domains, keys // n, keys % n, m.shares)
    assert big.link_url.size >= 4 * m.link_url.size > 4 * pipeline.LINK_BLOCK
    peaks = []
    for name, corpus in (("m", m), ("big", big)):
        _, peak = traced_peak(pipeline.write_links, tmp_path / f"{name}.csv", corpus)
        peaks.append(peak)
        write_link_rows(tmp_path / f"{name}_rows.csv", corpus)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_rows.csv").read_bytes()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_stage_functions_are_looked_up_at_call_time(inputs, tmp_path, monkeypatch):
    # tracers wrap pipeline.stage_<name>; every entry point must call through the attribute
    from trustnet.cli import main

    calls = []
    stage_nec = pipeline.stage_nec

    def counting(*args, **kwargs):
        calls.append(1)
        return stage_nec(*args, **kwargs)

    monkeypatch.setattr(pipeline, "stage_nec", counting)
    run_pipeline(make_config(inputs, tmp_path / "run", theta_max=2))
    assert len(calls) == 1
    code = main([
        "communities",
        "--posts", str(inputs / "posts.jsonl"),
        "--knowledge-base", str(inputs / "kb.csv"),
        "--out", str(tmp_path / "staged"),
    ])
    assert code == 0
    assert len(calls) == 2


def test_nec_summary_is_computed_once_per_run(inputs, tmp_path, monkeypatch):
    # a rerun that reuses nec reads its summary back from nec_summary.csv
    calls = []
    nec_summary = pipeline.nec.nec_summary

    def counting(*args, **kwargs):
        calls.append(1)
        return nec_summary(*args, **kwargs)

    monkeypatch.setattr(pipeline.nec, "nec_summary", counting)
    config = make_config(inputs, tmp_path / "run", theta_max=2)
    first = run_pipeline(config).report
    assert len(calls) == 1
    second = run_pipeline(config).report
    assert len(calls) == 1
    assert second["nec"] == first["nec"]
    assert first["nec"]["summary"]


def test_purity_is_computed_by_the_nec_stage_only(inputs, tmp_path, monkeypatch):
    # the figures copy nec's purity rows: a fresh run computes each community's T and N
    # purity once, and a rerun that reuses nec computes none
    assert pipeline.STAGES[-1].reads == ("nec", "classify")
    calls = []
    purity = pipeline.nec.purity

    def counting(*args, **kwargs):
        calls.append(1)
        return purity(*args, **kwargs)

    monkeypatch.setattr(pipeline.nec, "purity", counting)
    config = make_config(inputs, tmp_path / "run", theta_max=2)
    result = run_pipeline(config)
    assert len(calls) == 2 * len(result.partition.community_ids())
    figure = result.out_dir / "figures" / "fig_nec_purity.csv"
    fresh = figure.read_bytes()
    calls.clear()
    run_pipeline(dataclasses.replace(config, cv_seed=1))
    assert calls == []
    assert figure.read_bytes() == fresh


def test_validated_urls_are_not_rebuilt_per_theta(inputs, tmp_path, monkeypatch):
    # the network's validated URL set and its URL mask are each built once per
    # run, whatever θ: fresh, and on a rerun that loads the network from disk
    from trustnet import projection

    built = {"validated_urls": [], "url_mask": []}
    for name, networks in built.items():
        prop = vars(projection.ValidatedNetwork)[name]

        def counting(self, build=prop.func, networks=networks):
            networks.append(self)
            return build(self)

        monkeypatch.setattr(prop, "func", counting)
    for theta_max in (2, 6):
        config = make_config(inputs, tmp_path / f"run{theta_max}", theta_max=theta_max)
        for cv_seed in (0, 1):
            for networks in built.values():
                networks.clear()
            result = run_pipeline(dataclasses.replace(config, cv_seed=cv_seed))
            for networks in built.values():
                assert [n is result.network for n in networks] == [True]


def per_theta_tables_oracle(config, profiles) -> dict[tuple[str, int], bytes]:
    """The voters stage's former output: one table per strategy and θ, as bytes.

    Each profile's cells are formatted once, then each θ writes the profiles
    whose diet reaches it, in profile order.
    """
    tables = {}
    for kind, profs in profiles.items():
        cells = {v.user_id: (v.user_id, kind.value, "" if v.value is None else repr(v.value),
                             str(v.diet), str(v.n_articles)) for v in profs}
        for theta in config.thetas():
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["user_id", "strategy", "value", "diet", "n_articles"])
            writer.writerows(cells[v.user_id] for v in profs if v.diet >= theta)
            tables[kind.value, theta] = buf.getvalue().encode()
    return tables


@pytest.mark.parametrize("theta_min", [0, 2])
def test_voter_table_rows_at_each_theta_match_the_per_theta_oracle(inputs, tmp_path, theta_min):
    config = make_config(inputs, tmp_path / "run", theta_min=theta_min)
    result = run_pipeline(config)
    oracle = per_theta_tables_oracle(config, result.profiles)
    # the empty value cell of a voter without a value is part of what is compared
    assert any(v.value is None for profs in result.profiles.values() for v in profs)
    for strategy in config.strategies:
        path = result.out_dir / "voters" / f"voters_{strategy}.csv"
        header, *lines = path.read_bytes().splitlines(keepends=True)
        diets = [int(next(csv.reader([line.decode()]))[3]) for line in lines]
        for theta in config.thetas():
            kept = b"".join(line for line, diet in zip(lines, diets) if diet >= theta)
            assert header + kept == oracle[strategy, theta], (strategy, theta)
        assert min(diets) >= theta_min


def test_theta_max_change_reuses_voters_and_reruns_the_sweep(inputs, tmp_path, caplog):
    out = tmp_path / "run"
    run_pipeline(make_config(inputs, out, theta_max=2))
    stamp = (out / "voters" / "voters_DS-ALL.csv").stat().st_mtime_ns
    config = make_config(inputs, out, theta_max=5)
    with caplog.at_level(logging.INFO):
        run_pipeline(config)
    assert "voters: reusing cached artifacts" in caplog.messages
    assert "classify: reusing cached artifacts" not in caplog.messages
    assert (out / "voters" / "voters_DS-ALL.csv").stat().st_mtime_ns == stamp
    meta = json.loads((out / "classify" / "meta.json").read_text())
    assert meta["config_hash"] == pipeline.stage_hashes(config)["classify"]
    sweep = pipeline.read_csv(out / "classify" / "sweep.csv")
    assert [(s, int(t)) for s, t, *_ in sweep] == [
        (s, t) for s in config.strategies for t in range(6)
    ]


def test_classify_report_covers_every_profile_whatever_theta_min(inputs, tmp_path):
    from trustnet import classify

    result = run_pipeline(make_config(inputs, tmp_path / "run", theta_min=3))
    # θ = 3 drops some voters, so a θ-filtered report would differ
    assert any(v.diet < 3 for profs in result.profiles.values() for v in profs)
    strategies = result.report["classify"]["strategies"]
    for kind, profs in result.profiles.items():
        cov = classify.coverage(profs, result.corpus, result.kb)
        assert strategies[kind.value]["n_voters"] == len(profs)
        assert strategies[kind.value]["coverage"]["covered"] == {
            level.value: cov.covered[level] for level in Label
        }


def test_skipped_cv_warns_once_per_strategy(inputs, tmp_path, monkeypatch, caplog):
    from trustnet import classify

    def refusing(*args, **kwargs):
        raise ValueError("each class needs at least 2 samples")

    monkeypatch.setattr(classify, "stratified_cv", refusing)
    config = make_config(inputs, tmp_path / "run", theta_max=2)
    with caplog.at_level(logging.WARNING, logger="trustnet.pipeline"):
        result = run_pipeline(config)
    skipped = [m for m in caplog.messages if "CV skipped" in m]
    assert skipped == [
        f"classify {s}: CV skipped (each class needs at least 2 samples)"
        for s in config.strategies
    ]
    assert all(p["balanced_accuracy_mean"] is None for p in result.report["classify"]["sweep"])


def test_one_stump_fit_per_strategy_outside_cv(inputs, tmp_path, monkeypatch):
    from trustnet import classify

    fit, cv = classify.fit_stump, classify.stratified_cv
    in_cv, outside = [False], []

    def counting_fit(samples):
        if not in_cv[0]:
            outside.append(len(samples))
        return fit(samples)

    def flagged_cv(*args, **kwargs):
        in_cv[0] = True
        try:
            return cv(*args, **kwargs)
        finally:
            in_cv[0] = False

    monkeypatch.setattr(classify, "fit_stump", counting_fit)
    monkeypatch.setattr(classify, "stratified_cv", flagged_cv)
    config = make_config(inputs, tmp_path / "run", theta_max=2)
    run_pipeline(config)
    # the stump behind scores_<s>.csv's predictions also predicts worthy_<s>.csv's
    assert len(outside) == len(config.strategies)


def test_sweep_scores_every_theta_in_one_call_per_strategy(inputs, tmp_path, monkeypatch):
    """θ is a column mask: the sweep must not evaluate one voter list per (strategy, θ)."""
    from trustnet import classify

    calls = defaultdict(int)

    def counted(name):
        original = getattr(classify, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in ("publisher_scores", "coverage", "vote_columns"):
        monkeypatch.setattr(classify, name, counted(name))
    config = make_config(inputs, tmp_path / "run", theta_max=30)
    run_pipeline(config)
    n = len(config.strategies)
    # the classify report's one voter list per strategy
    assert calls["publisher_scores"] == calls["coverage"] == n
    # each of those makes one vote_columns call; the sweep may make one per strategy
    assert calls["vote_columns"] - calls["publisher_scores"] - calls["coverage"] <= n


def test_benchmark_tracer_counts_a_run(inputs, tmp_path, monkeypatch):
    """perfbench wraps trustnet's module attributes and counts their results.

    A traced name that is gone, a call the wrapper no longer sees, or a return
    type its counter cannot read would break the benchmark's records.
    """
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_pipeline(make_config(inputs, tmp_path / "run", theta_max=2))
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert tracer.count_errors == []
    json.dumps(counts)  # the benchmark writes them as JSON: numpy scalars would fail here
    assert counts["projection.pairs_tested"] == result.report["projection"]["n_tested"]
    assert counts["ingest.share_events"] == result.report["ingest"]["n_share_events"]
    assert counts["ingest.interactions"] == result.report["ingest"]["n_interactions"]
    # a cold run loads nothing from a cache; every other layer is seen
    assert {s.name for s in tracer.spans} == set(tracing.TIMES) - {"pipeline.load_s"}
    assert counts["bicm.users"] > 0 and counts["projection.edges"] > 0
