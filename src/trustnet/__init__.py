"""Infer news publisher trustworthiness from user-URL sharing interactions.

Pipeline: parse posts into a user-URL corpus, fit the degree-constrained
maximum-entropy null model of the bipartite sharing graph, keep the URL
pairs whose user co-occurrence beats the null after FDR control, cluster
them into News Engagement Communities, characterize voters from the trust
scores of the publishers they share, and classify publishers from the mean
voter value with a depth-one decision tree.
"""

from .bicm import (
    BicmModel,
    BipartiteGraph,
    ConvergenceError,
    build_graph,
    degree_residual,
    expected_degrees,
    link_probability,
    probability_matrix,
    sample,
    solve,
)
from .classify import (
    CoverageReport,
    CvReport,
    PublisherScore,
    Stump,
    WorthyEntry,
    coverage,
    fit_stump,
    publisher_scores,
    stratified_cv,
    worthy_list,
)
from .ingest import (
    Corpus,
    KnowledgeBase,
    KnowledgeBaseError,
    Label,
    RawPost,
    build_corpus,
    canonical_url,
    extract_domain,
    load_knowledge_base,
    load_posts,
)
from .nec import (
    NecRow,
    Partition,
    UNCLUSTERED,
    louvain,
    modularity,
    nec_summary,
    overall_purity,
    purity,
    unclustered_purity,
)
from .pipeline import PipelineConfig, PipelineResult, StageError, emit_figures, run_pipeline
from .projection import (
    PairTest,
    ValidatedNetwork,
    bh_validate,
    cooccurrences,
    pair_pvalue,
    pair_pvalues,
    poisson_binomial_tail,
    validate_projection,
)
from .synth import SyntheticSpec, generate_synthetic
from .voters import (
    ALL_STRATEGIES,
    StrategyKind,
    VoterProfile,
    article_set,
    build_voter_profiles,
    characterize,
    discussion_supporters,
    filter_min_publishers,
    select_voters,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_STRATEGIES",
    "BicmModel",
    "BipartiteGraph",
    "ConvergenceError",
    "Corpus",
    "CoverageReport",
    "CvReport",
    "KnowledgeBase",
    "KnowledgeBaseError",
    "Label",
    "NecRow",
    "PairTest",
    "Partition",
    "PipelineConfig",
    "PipelineResult",
    "PublisherScore",
    "RawPost",
    "StageError",
    "StrategyKind",
    "Stump",
    "SyntheticSpec",
    "UNCLUSTERED",
    "ValidatedNetwork",
    "VoterProfile",
    "WorthyEntry",
    "article_set",
    "bh_validate",
    "build_corpus",
    "build_graph",
    "build_voter_profiles",
    "canonical_url",
    "characterize",
    "cooccurrences",
    "coverage",
    "degree_residual",
    "discussion_supporters",
    "emit_figures",
    "expected_degrees",
    "extract_domain",
    "filter_min_publishers",
    "fit_stump",
    "generate_synthetic",
    "link_probability",
    "load_knowledge_base",
    "load_posts",
    "louvain",
    "modularity",
    "nec_summary",
    "overall_purity",
    "pair_pvalue",
    "pair_pvalues",
    "poisson_binomial_tail",
    "probability_matrix",
    "publisher_scores",
    "purity",
    "run_pipeline",
    "sample",
    "select_voters",
    "solve",
    "stratified_cv",
    "unclustered_purity",
    "validate_projection",
    "worthy_list",
]
