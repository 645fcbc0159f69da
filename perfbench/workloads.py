"""The benchmark's workloads: what each generates and how its ops are configured."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from longtail import LongtailSpec, generate_longtail
from trustnet.synth import SyntheticSpec, generate_synthetic

#: the seed whose outputs are recorded under reference/
DEFAULT_SEED = 0

#: cv_seed of the run that primes planted-rerun's run directory
PRIME_CV_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # input generator, and the reference file name
    why: str
    primed: bool  # set-up runs the pipeline once; every op reruns that directory
    cv_seeds: tuple[int, ...]  # cv_seed of op k is cv_seeds[k % len(cv_seeds)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-cold", "planted",
            "the paper's setting at scale M: projection tails dominate each fresh run",
            False, (0,),
        ),
        Workload(
            "planted-rerun", "planted",
            "the analyst's loop: only cv_seed changes, so cached stages load and the sweep recomputes",
            True, (1, 2),
        ),
        Workload(
            "longtail-cold", "longtail",
            "heavy-tailed users, Zipf stories, URL variants and bad lines: same layers, other shapes",
            False, (0,),
        ),
    )
}

#: the workloads BENCHMARK.json lists. planted-rerun runs with the others
#: (``--all``) but is not listed: its short, interpreter-bound ops follow the
#: host's speed from minute to minute too closely for a regression bound.
LISTED = ("planted-cold", "longtail-cold")

#: generator settings per corpus; tests pass smaller ones
SPECS = {
    # ROADMAP scale M: SyntheticSpec(users_per_block, publishers_per_pool, urls_per_publisher)
    "planted": {"users_per_block": 500, "publishers_per_pool": 20, "urls_per_publisher": 15},
    "longtail": {},
}


def generate(corpus: str, seed: int, posts: Path, kb: Path, spec: dict) -> None:
    """Write the corpus's posts and knowledge base for one seed."""
    if corpus == "planted":
        generate_synthetic(SyntheticSpec(**spec, seed=seed), posts, kb)
    elif corpus == "longtail":
        generate_longtail(LongtailSpec(**spec), seed, posts, kb)
    else:
        raise ValueError(f"unknown corpus {corpus!r}")
