"""Fitting the bipartite null model to a small sharing graph.

Walks through the first analytic step: given who shared what, fit the
maximum-entropy ensemble that reproduces every user's and every URL's
degree on average, then read off per-link probabilities and draw graphs
from the ensemble.

Run: python demos/01_null_model.py
"""

import numpy as np

from trustnet import bicm

# A toy discussion: six users sharing five articles. u0 is a heavy sharer,
# u5 shared a single niche piece.
links = [
    ("u0", "covid-vax-story"), ("u0", "mask-study"), ("u0", "football-final"),
    ("u1", "covid-vax-story"), ("u1", "mask-study"),
    ("u2", "covid-vax-story"), ("u2", "football-final"),
    ("u3", "mask-study"),
    ("u4", "football-final"), ("u4", "celebrity-gossip"),
    ("u5", "local-politics"),
]
graph = bicm.BipartiteGraph.from_links(links)
print(f"{graph.n_users} users x {graph.n_urls} urls, {graph.n_links} links")
print("user degrees:", dict(zip(graph.user_ids, graph.user_degrees)))
print("url degrees: ", dict(zip(graph.url_ids, graph.url_degrees)))

# Solve for the fitnesses. Equal degrees get identical fitness values.
model = bicm.solve(graph, tol=1e-10)
print(f"\nsolved in {model.iterations} sweeps, residual {model.residual:.2e}")
for uid, x in zip(graph.user_ids, model.x):
    print(f"  fitness[{uid}] = {x:.4f}")

# The key output: a probability for every possible link. Row sums reproduce
# the observed degrees, the definition of the null model.
p = bicm.probability_matrix(model)
print("\nexpected user degrees:", np.round(p.sum(axis=1), 6))
print("observed user degrees:", graph.user_degrees)

# Drawing from the ensemble: each link is an independent coin flip.
drawn = bicm.sample(graph, model, seed=42)
print(f"\none sampled graph has {drawn.n_links} links")
mean_links = np.mean([bicm.sample(graph, model, seed=s).n_links for s in range(200)])
print(f"mean links over 200 samples: {mean_links:.1f} (observed {graph.n_links})")
