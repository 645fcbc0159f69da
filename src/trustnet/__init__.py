"""Infer news publisher trustworthiness from user-URL sharing interactions.

Pipeline: parse posts into a user-URL corpus, fit the degree-constrained
maximum-entropy null model of the bipartite sharing graph, keep the URL
pairs whose user co-occurrence beats the null after FDR control, cluster
them into News Engagement Communities, characterize voters from the trust
scores of the publishers they share, and classify publishers from the mean
voter value with a depth-one decision tree.

The package exports the pipeline's entry points; each building block is
imported from its module (``trustnet.bicm``, ``trustnet.projection``, ...).
"""

from .pipeline import PipelineConfig, PipelineResult, StageError, emit_figures, run_pipeline
from .synth import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"
