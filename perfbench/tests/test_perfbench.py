"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import tracing  # noqa: E402
from longtail import LongtailSpec, generate_longtail  # noqa: E402
from run import Bench, Op, unit_of  # noqa: E402
from workloads import LISTED, WORKLOADS, generate  # noqa: E402

# the acceptance-test scale: each op takes about a second
SMALL = {
    "planted": {"users_per_block": 200, "publishers_per_pool": 15, "urls_per_publisher": 10},
    "longtail": {"users": 300, "stories": 200},
}


def _bench(tmp_path, name, trace=False, reference=None, seed=5):
    return Bench(WORKLOADS[name], seed, 0, trace, specs=SMALL, reference=reference,
                 work=tmp_path / "work", records=tmp_path / "records")


@pytest.mark.parametrize("corpus", ["planted", "longtail"])
def test_generation_is_byte_identical_per_seed(tmp_path, corpus):
    files = {}
    for run, seed in (("a", 3), ("b", 3), ("c", 4)):
        posts, kb = tmp_path / f"{run}.jsonl", tmp_path / f"{run}.csv"
        generate(corpus, seed, posts, kb, SMALL[corpus])
        files[run] = (posts.read_bytes(), kb.read_bytes())
    assert files["a"] == files["b"]
    assert files["a"][0] != files["c"][0]


def test_longtail_has_the_planted_defects(tmp_path):
    posts, kb = tmp_path / "p.jsonl", tmp_path / "kb.csv"
    generate_longtail(LongtailSpec(users=300, stories=200), 1, posts, kb)
    text = posts.read_text()
    kinds, bad = set(), 0
    for line in text.splitlines():
        try:
            kinds.add(json.loads(line).get("kind"))
        except json.JSONDecodeError:
            bad += 1
    assert bad > 0 and {"original", "retweet", "reply", "quote", "like"} <= kinds
    assert "://www." in text and ":443" in text and "?utm_source" in text and "#c" in text


def _span(i, name, start, end, parent):
    return tracing.Span(i, name, start, end, parent, 0)


def test_self_time_on_nested_spans():
    spans = [
        _span(0, "pipeline.stage.projection_s", 0.0, 10.0, None),
        _span(1, "projection.pair_pvalues_s", 1.0, 7.0, 0),
        _span(2, "projection.cooccurrences_s", 2.0, 3.0, 1),
        _span(3, "classify.fit_stump_s", 4.0, 4.5, 1),
        _span(4, "projection.bh_validate_s", 8.0, 9.5, 0),
        _span(5, "classify.fit_stump_s", 9.6, 9.8, None),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.5)
    assert own[1] == pytest.approx(6.0 - 1.0 - 0.5)
    assert own[2] == pytest.approx(1.0)
    times = tracing.layer_times(spans)
    assert times["pipeline.stage.projection_s"] == pytest.approx(10.0)  # stages are whole spans
    assert times["projection.pair_pvalues_s"] == pytest.approx(4.5)
    assert times["classify.fit_stump_s"] == pytest.approx(0.7)  # summed over both spans
    assert tracing.stage_coverage(spans, 12.5) == pytest.approx(0.8)


def test_wrapper_records_parent_and_restores():
    import types

    mod = types.ModuleType("toy")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = tracing.Tracer(op=7)
    tracer.wrap(mod, "outer", "toy.outer_s")
    tracer.wrap(mod, "inner", "toy.inner_s", lambda a, k, r: {"nec.passes": r})
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["toy.outer_s", "toy.inner_s"]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].op == 7
    assert tracer.counts()["nec.passes"] == 2
    assert not hasattr(mod.outer, "__wrapped__")


def test_reference_check_passes_right_values_and_fails_wrong_ones(tmp_path):
    with _bench(tmp_path / "ref", "planted-cold", reference={}) as bench:
        bench.setup()
        out = bench.work / "run"
        assert bench.run_op(Op(0, 0, False), out).ok
        shared, per_cv = check.split_reference(check.extract(out))

    right = {"values": shared, "per_cv_seed": {"0": per_cv}}
    result = _bench(tmp_path / "right", "planted-cold", reference=right).run()
    assert result["correct"] and result["failed"] == 0

    p = list(shared["projection.edge_pvalues"])
    p[0] += 1e-9
    wrong = {"values": {**shared, "projection.edge_pvalues": p}, "per_cv_seed": {"0": per_cv}}
    result = _bench(tmp_path / "wrong", "planted-cold", reference=wrong).run()
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_ratio"]["value"] == 0.0


def test_rerun_loads_four_cached_stages(tmp_path):
    result = _bench(tmp_path, "planted-rerun", trace=True).run()
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["pipeline.cache_hits"] == 4
    assert metrics["projection.pairs_tested"] == 0
    assert metrics["classify.cv_runs"] > 0
    assert set(metrics) == set(tracing.METRICS)
    (record,) = [p for p in (tmp_path / "records").glob("*.json") if "spans" not in p.name]
    record = json.loads(record.read_text())
    assert record["stage_coverage"] >= 0.95
    assert record["count_errors"] == []


def test_a_timed_out_op_is_killed_and_the_server_stops(tmp_path):
    # scale M, where an op takes seconds
    bench = Bench(WORKLOADS["planted-cold"], 5, 0, False, reference={},
                  work=tmp_path / "work", records=tmp_path / "records")
    with bench:
        bench.setup()
        bench.deadline = time.monotonic() + 1.0
        assert bench.run_op(Op(0, 0, False), bench.work / "run").problems == ["op timed out"]
        server = bench._server
        assert server.proc.poll() is None  # the server outlives the op it killed
    assert bench._server is None and server.proc.returncode is not None
    with pytest.raises(ProcessLookupError):
        os.killpg(server.proc.pid, 0)  # nothing of its session is left


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, WORKLOADS[name].why) for name in LISTED]
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.METRICS)
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "interactions_per_s", "peak_rss_mb", "setup_s", "success_ratio"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
