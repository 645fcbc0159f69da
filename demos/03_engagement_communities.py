"""News Engagement Communities and their label purity.

Louvain clusters the validated URL network; the purity metrics then ask
how homogeneous each community is in terms of publisher trust labels.

Run: python demos/03_engagement_communities.py
"""

from trustnet import nec
from trustnet.ingest import KnowledgeBase, Label, RawPost, build_corpus
from trustnet.projection import ValidatedNetwork

# Hand-craft a corpus: two camps of users, each sharing its own set of
# articles; trusted-site articles on one side, untrusted on the other.
posts = []
pid = 0
for u in range(6):
    for a in range(4):
        posts.append(RawPost(f"p{pid}", f"left{u}", float(pid),
                             (f"https://reliable{a % 2}.news/story-{a}",), "original"))
        pid += 1
for u in range(5):
    for a in range(4):
        posts.append(RawPost(f"p{pid}", f"right{u}", float(pid),
                             (f"https://dubious{a % 2}.site/clip-{a}",), "original"))
        pid += 1
posts.append(RawPost("extra", "lurker", 0.0, ("https://reliable0.news/orphan",), "original"))
corpus = build_corpus(posts)

kb = KnowledgeBase(scores={
    "reliable0.news": 88, "reliable1.news": 92,
    "dubious0.site": 15, "dubious1.site": 25,
})

# Pretend the projection validated the within-camp pairs (in the full
# pipeline this comes from demos/02): two cliques of four URLs each.
left_urls = [u for u in corpus.urls if "reliable" in u and "orphan" not in u]
right_urls = [u for u in corpus.urls if "dubious" in u]
edges = [(a, b, 1e-6) for urls in (left_urls, right_urls)
         for i, a in enumerate(urls) for b in urls[i + 1:]]
network = ValidatedNetwork(
    urls=corpus.urls,
    edges=edges,
    alpha=0.05,
    n_hypotheses=len(corpus.urls) * (len(corpus.urls) - 1) // 2,
    bh_threshold=1e-6,
)

partition = nec.louvain(network, seed=0)
print(f"{len(partition.community_ids())} communities, "
      f"modularity {partition.modularity:.3f}")
print("unclustered URLs:",
      sorted(u for u, c in partition.assignment.items() if c == nec.UNCLUSTERED))

print("\ncommunity summaries (users / distinct urls / publishers / shares):")
for row in nec.nec_summary(partition, corpus):
    print(f"  community {row.community}: {row.n_users:3d} {row.n_distinct_urls:3d} "
          f"{row.n_publishers:3d} {row.n_shares:4d}")

print("\npurity per community:")
for c in partition.community_ids():
    pt = nec.purity(partition, c, corpus, kb, Label.T)
    pn = nec.purity(partition, c, corpus, kb, Label.N)
    print(f"  community {c}: purity_T = {pt:.2f}  purity_N = {pn:.2f}")
print(f"pooled purity_T = {nec.overall_purity(partition, corpus, kb, Label.T):.2f}")
print(f"unclustered purity_T = {nec.unclustered_purity(partition, corpus, kb, Label.T):.2f}")
