"""From co-occurrence counts to a statistically validated URL network.

Two articles shared by the same users *might* just both be popular. The
projection keeps only pairs whose common audience beats what the null
model predicts, with false-discovery-rate control across all pairs.

Run: python demos/02_validated_projection.py
"""

import numpy as np

from trustnet import bicm, projection

rng = np.random.default_rng(1)

# Build a graph with one planted clique: twenty-five "echo chamber" users share
# the same three articles; sixty background users share at random.
links = set()
for u in range(25):
    for a in ("echo-1", "echo-2", "echo-3"):
        links.add((f"echo{u:02d}", a))
articles = [f"bg-{j}" for j in range(12)] + ["echo-1", "echo-2", "echo-3"]
for u in range(60):
    for a in articles:
        if rng.random() < 0.15:
            links.add((f"bg{u:02d}", a))

graph = bicm.BipartiteGraph.from_links(sorted(links))
model = bicm.solve(graph)

# Step 1: count who co-shared what. The counts come as three arrays, one entry
# per URL pair (smaller index first) with at least one common user.
url_a, url_b, observed = projection.cooccurrences(graph)


def count(pair):
    """Common users of a (smaller, larger) URL index pair."""
    hit = (url_a == pair[0]) & (url_b == pair[1])
    return int(observed[hit].sum())


echo_pair = tuple(sorted((graph.url_index["echo-1"], graph.url_index["echo-2"])))
print(f"observed co-occurrences for the planted pair: {count(echo_pair)}")

# Step 2: the null distribution of that count is a sum of independent
# Bernoulli draws, one per user, with probability p_ia * p_ib each.
test = projection.pair_pvalue(model, echo_pair, count(echo_pair))
print(f"its p-value under the null: {test.pvalue:.3g}")

# The same machinery on a background pair gives nothing remarkable.
bg_pair = tuple(sorted((graph.url_index["bg-0"], graph.url_index["bg-1"])))
if count(bg_pair):
    print(f"a background pair: count {count(bg_pair)}, "
          f"p = {projection.pair_pvalue(model, bg_pair, count(bg_pair)).pvalue:.3f}")

# Degree matters: echo-3 also picked up many background sharers, so the
# null expects a larger common audience for its pairs and discounts them.
for names in (("echo-1", "echo-2"), ("echo-1", "echo-3")):
    pr = tuple(sorted(graph.url_index[n] for n in names))
    t = projection.pair_pvalue(model, pr, count(pr))
    degs = [int(graph.url_degrees[graph.url_index[n]]) for n in names]
    print(f"{names[0]} (deg {degs[0]}) -- {names[1]} (deg {degs[1]}): "
          f"count {count(pr)}, p = {t.pvalue:.3g}")

# Step 3: all pairs at once, then Benjamini-Hochberg across every possible
# pair (untested pairs count as p = 1 and can never be selected).
network = projection.validate_projection(graph, model, alpha=0.05)
print(f"\ntested {network.n_tested} co-occurring pairs out of "
      f"{network.n_hypotheses} possible; {network.n_edges} validated")
print(f"realized BH cutoff: {network.bh_threshold:.3g}")
for a, b, p in network.edges:
    print(f"  {a} -- {b}   (p = {p:.3g})")
