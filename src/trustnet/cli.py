"""Command line entry point.

Subcommands mirror the pipeline stages; ``run`` executes all of them.
Options can come from a JSON config file (--config) with any flag given on
the command line taking precedence. Each stage failure maps to its own exit
code so callers can tell where a run died.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

from . import pipeline
from .pipeline import PipelineConfig, StageError
from .synth import SyntheticSpec, generate_synthetic

EXIT_CODES = {
    "ingest": 10,
    "bicm": 11,
    "projection": 12,
    "nec": 13,
    "voters": 14,
    "classify": 15,
    "synth": 16,
    "figures": 17,
}

# per stage subcommand, the last stage it runs and its help; the stages that
# stage reads run first, or are reused from the run directory
STAGE_COMMANDS = {
    "ingest": ("ingest", "parse posts and the knowledge base into a corpus"),
    "solve": ("bicm", "fit the bipartite null model"),
    "validate": ("projection", "compute co-occurrence p-values and the FDR projection"),
    "communities": ("nec", "detect news engagement communities"),
    "voters": ("voters", "build one voter table per strategy"),
    "classify": ("classify", "score and classify publishers"),
}


SYNTH_FIELDS = fields(SyntheticSpec)


def _add_config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--posts", help="posts JSONL file")
    p.add_argument("--knowledge-base", dest="knowledge_base", help="domain,score CSV")
    p.add_argument("--out", dest="out_dir", help="run directory for all artifacts")
    p.add_argument("--alpha", type=float, help="FDR significance level (default 0.05)")
    p.add_argument("--tol", dest="solver_tol", type=float, help="solver tolerance")
    p.add_argument("--max-iter", dest="solver_max_iter", type=int)
    p.add_argument("--louvain-seed", dest="louvain_seed", type=int)
    p.add_argument("--theta-min", dest="theta_min", type=int)
    p.add_argument("--theta-max", dest="theta_max", type=int)
    p.add_argument("--cv-folds", dest="cv_folds", type=int)
    p.add_argument("--cv-seed", dest="cv_seed", type=int)
    p.add_argument(
        "--strategy",
        action="append",
        dest="strategies",
        help="restrict to a strategy (repeatable)",
    )


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    return PipelineConfig.from_file(args.config, **overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustnet",
        description="Classify news publisher trustworthiness from sharing networks",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        *((name, help_text) for name, (_, help_text) in STAGE_COMMANDS.items()),
        ("run", "run the full pipeline"),
        ("figures", "emit figure data tables for a completed run"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_config_options(p)

    p = sub.add_parser("synth", help="generate a planted synthetic corpus")
    p.add_argument("--out-posts", required=True)
    p.add_argument("--out-kb", required=True)
    for f in SYNTH_FIELDS:
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command == "synth":
        try:
            spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in SYNTH_FIELDS})
            generate_synthetic(spec, args.out_posts, args.out_kb)
            return 0
        except Exception as exc:
            print(f"stage synth failed: {exc}", file=sys.stderr)
            return EXIT_CODES["synth"]

    try:
        config = _build_config(args)
    except (OSError, ValueError) as exc:  # unreadable or invalid --config file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not config.posts or not config.knowledge_base:
        print("error: --posts and --knowledge-base are required", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            pipeline.run_pipeline(config)
        elif args.command == "figures":
            pipeline.emit_figures(config)
        else:
            pipeline.run_stages(config, STAGE_COMMANDS[args.command][0])
    except StageError as err:
        print(str(err), file=sys.stderr)
        return EXIT_CODES.get(err.stage, 1)
    except ValueError as exc:  # emit_figures refuses missing or stale stages
        print(f"stage figures failed: {exc}", file=sys.stderr)
        return EXIT_CODES["figures"]
    return 0


if __name__ == "__main__":
    sys.exit(main())
