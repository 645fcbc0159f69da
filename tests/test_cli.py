import json

import pytest

from trustnet.cli import EXIT_CODES, main


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory):
    # the default spec: 49 validated edges and 31 communities at alpha 0.05
    tmp = tmp_path_factory.mktemp("cli-inputs")
    code = main([
        "synth",
        "--out-posts", str(tmp / "posts.jsonl"),
        "--out-kb", str(tmp / "kb.csv"),
    ])
    assert code == 0
    # the tests below check edges and communities only if there are some
    out = tmp / "guard"
    assert main(["communities", *base_args(tmp, out)]) == 0
    assert json.loads((out / "projection" / "meta.json").read_text())["n_edges"] > 0
    assert json.loads((out / "nec" / "meta.json").read_text())["n_communities"] >= 2
    return tmp


def base_args(synth_inputs, out):
    return [
        "--posts", str(synth_inputs / "posts.jsonl"),
        "--knowledge-base", str(synth_inputs / "kb.csv"),
        "--out", str(out),
        "--theta-max", "3",
    ]


def test_synth_writes_both_files(synth_inputs):
    assert (synth_inputs / "posts.jsonl").exists()
    assert (synth_inputs / "kb.csv").exists()


def test_run_subcommand_full_pipeline(synth_inputs, tmp_path):
    out = tmp_path / "run"
    assert main(["run", *base_args(synth_inputs, out)]) == 0
    assert (out / "report.json").exists()
    assert (out / "figures" / "fig_nec_purity.csv").exists()


def test_stage_subcommands_chain(synth_inputs, tmp_path):
    out = tmp_path / "staged"
    args = base_args(synth_inputs, out)
    assert main(["ingest", *args]) == 0
    assert (out / "ingest" / "interactions.csv").exists()
    assert not (out / "bicm").exists()
    assert main(["solve", *args]) == 0
    assert (out / "bicm" / "fitness.csv").exists()
    assert main(["validate", *args]) == 0
    assert (out / "projection" / "validated_edges.csv").exists()
    assert main(["communities", *args]) == 0
    assert (out / "nec" / "partition.csv").exists()
    assert main(["voters", *args]) == 0
    assert (out / "voters" / "meta.json").exists()
    assert main(["classify", *args]) == 0
    assert (out / "classify" / "sweep.csv").exists()
    assert main(["figures", *args]) == 0
    assert (out / "figures" / "fig_voters_vs_theta.csv").exists()


def test_missing_knowledge_base_is_ingest_failure(synth_inputs, tmp_path, capsys):
    code = main([
        "run",
        "--posts", str(synth_inputs / "posts.jsonl"),
        "--knowledge-base", str(tmp_path / "missing.csv"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_CODES["ingest"]
    assert "ingest" in capsys.readouterr().err


def test_config_file_with_cli_override(synth_inputs, tmp_path):
    config = {
        "posts": str(synth_inputs / "posts.jsonl"),
        "knowledge_base": str(synth_inputs / "kb.csv"),
        "out_dir": str(tmp_path / "from-config"),
        "theta_max": 2,
        "alpha": 0.05,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_override = tmp_path / "overridden"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_override)]) == 0
    assert (out_override / "report.json").exists()
    assert not (tmp_path / "from-config").exists()
    report = json.loads((out_override / "report.json").read_text())
    assert report["config"]["theta_max"] == 2


def test_figures_on_incomplete_run_reports_missing(synth_inputs, tmp_path, capsys):
    out = tmp_path / "incomplete"
    out.mkdir()
    code = main(["figures", *base_args(synth_inputs, out)])
    assert code == EXIT_CODES["figures"]
    err = capsys.readouterr().err
    assert "missing stages" in err


def test_figures_refuses_stale_stages(synth_inputs, tmp_path, capsys):
    out = tmp_path / "stale"
    args = base_args(synth_inputs, out)
    assert main(["run", *args]) == 0
    assert main(["validate", *args, "--alpha", "1e-4"]) == 0
    capsys.readouterr()
    assert main(["figures", *args, "--alpha", "1e-4"]) == EXIT_CODES["figures"]
    assert "missing stages: nec, classify" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, needle",
    [
        ('{"pvalue_method": "exact"}', "pvalue_method"),
        ('{"resolution": 1.0}', "resolution"),
        ("{not json", "config.json"),
        (None, "config.json"),
        ('{"cv_folds": 0}', "cv_folds"),
        ('{"cv_folds": 1}', "cv_folds"),
        ('{"theta_min": -1}', "theta_min"),
        ('{"theta_min": 5}', "theta_min"),  # above base_args' --theta-max 3
        ('{"strategies": ["BOGUS"]}', "strategies"),
        ('{"alpha": 2}', "alpha"),
        ('{"alpha": 0}', "alpha"),
        ('{"alpha": -1}', "alpha"),
        ('{"solver_tol": 0}', "solver_tol"),
        ('{"solver_max_iter": 0}', "solver_max_iter"),
        ('{"cv_folds": "5"}', "cv_folds"),
        ('{"theta_min": null}', "theta_min"),
        ('{"cv_folds": true}', "cv_folds"),
        ('{"louvain_seed": 1.5}', "louvain_seed"),
        ('{"alpha": "0.05"}', "alpha"),
        ('{"alpha": false}', "alpha"),
        ('{"strategies": "DS-ALL"}', "strategies"),
        ('{"strategies": [1]}', "strategies"),
        ('{"strategies": []}', "strategies"),
        ('{"strategies": ["DS-ALL", "DS-ALL"]}', "strategies"),
    ],
    ids=[
        "unknown-key", "removed-key", "malformed-json", "missing-file", "zero-folds",
        "one-fold", "negative-theta-min", "theta-min-above-max", "unknown-strategy",
        "alpha-above-one", "zero-alpha", "negative-alpha", "zero-tol", "zero-max-iter",
        "string-folds", "null-theta-min", "bool-folds", "float-seed", "string-alpha",
        "bool-alpha", "string-strategies", "int-strategy", "no-strategies",
        "repeated-strategy",
    ],
)
def test_config_file_errors_are_usage_errors(synth_inputs, tmp_path, capsys, content, needle):
    cfg = tmp_path / "config.json"
    if content is not None:
        cfg.write_text(content)
    code = main(["run", "--config", str(cfg), *base_args(synth_inputs, tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err
    assert not (tmp_path / "out").exists()  # refused before any stage ran


def test_unrunnable_flag_is_usage_error(synth_inputs, tmp_path, capsys):
    code = main(["run", *base_args(synth_inputs, tmp_path / "out"), "--cv-folds", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cv_folds")
    assert not (tmp_path / "out").exists()


def test_missing_required_inputs_is_usage_error(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "x")]) == 1


def test_invalid_synth_spec_fails_with_synth_code(tmp_path, capsys):
    code = main([
        "synth",
        "--out-posts", str(tmp_path / "p.jsonl"),
        "--out-kb", str(tmp_path / "kb.csv"),
        "--p-in", "0.0",
    ])
    assert code == EXIT_CODES["synth"]


def test_synth_flags_are_the_spec_fields():
    from dataclasses import fields

    from trustnet.cli import build_parser
    from trustnet.synth import SyntheticSpec

    parser = build_parser()
    required = ["synth", "--out-posts", "p", "--out-kb", "k"]
    args = vars(parser.parse_args(required))
    flags = {k: v for k, v in args.items() if k not in ("command", "verbose", "out_posts", "out_kb")}
    spec = {f.name: f.default for f in fields(SyntheticSpec) if not isinstance(f.default, tuple)}
    assert flags == spec
    for name, default in spec.items():
        value = getattr(parser.parse_args([*required, "--" + name.replace("_", "-"), "3"]), name)
        assert value == 3 and type(value) is type(default)
