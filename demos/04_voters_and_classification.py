"""Voter strategies, publisher scoring and the depth-one classifier.

Shows the last two pipeline steps on a planted synthetic corpus: pick
voters, average the trust scores of what they share, roll those values up
to publishers, and cross-validate the single-threshold classifier. Ends
with the list of unclassified publishers worth sending to annotators.

Run: python demos/04_voters_and_classification.py
"""

import tempfile
from pathlib import Path

from trustnet import bicm, classify, projection
from trustnet.ingest import Label, build_corpus, load_knowledge_base, load_posts
from trustnet.synth import SyntheticSpec, generate_synthetic
from trustnet.voters import (
    ALL_STRATEGIES,
    StrategyKind,
    build_voter_profiles,
    discussion_supporters,
    filter_min_publishers,
)

tmp = Path(tempfile.mkdtemp())
spec = SyntheticSpec(users_per_block=80, publishers_per_pool=10,
                     urls_per_publisher=8, p_in=0.06, p_out=0.006,
                     unc_fraction=0.2, seed=21)
generate_synthetic(spec, tmp / "posts.jsonl", tmp / "kb.csv")
posts, _ = load_posts(tmp / "posts.jsonl")
corpus = build_corpus(posts)
kb = load_knowledge_base(tmp / "kb.csv")

graph = bicm.build_graph(corpus)
network = projection.validate_projection(graph, bicm.solve(graph), alpha=0.05)
ds = discussion_supporters(corpus, network)
print(f"{len(corpus.users)} users, {len(ds)} discussion supporters, "
      f"{network.n_edges} validated URL pairs")

print("\nvoters and coverage per strategy:")
for kind in ALL_STRATEGIES:
    profiles = build_voter_profiles(kind, corpus, network, kb)
    cov = classify.coverage(profiles, corpus, kb)
    print(f"  {kind.value:<18} voters={len(profiles):4d} "
          f"coverage T {cov.percentage(Label.T):5.1f}%  "
          f"N {cov.percentage(Label.N):5.1f}%  UNC {cov.percentage(Label.UNC):5.1f}%")

# Characterize + classify with the all-users strategy.
profiles = build_voter_profiles(StrategyKind.USERS_ALL, corpus, network, kb)
valued = [v for v in profiles if v.value is not None]
print(f"\n{len(valued)} voters carry a defined characterization value")
print("a few of them:", [(v.user_id, round(v.value, 1), v.diet) for v in valued[:4]])

scores = classify.publisher_scores(valued, corpus, kb)
samples = [(s.score, s.kb_label) for s in scores if s.kb_label is not Label.UNC]
report = classify.stratified_cv(samples, folds=10, seed=0)
print(f"\n10-fold balanced accuracy: {report.mean_balanced_accuracy:.3f} "
      f"+- {report.std_balanced_accuracy:.3f} (baseline {report.baseline})")

stump = classify.fit_stump(samples)
side = ">=" if stump.high_is_trustworthy else "<"
print(f"fitted stump: predict T when score {side} {stump.threshold:.2f}")

print("\nworthy-to-be-ranked unclassified publishers:")
for entry in classify.worthy_list(scores, stump)[:5]:
    print(f"  {entry.domain:<18} score={entry.score:5.1f} "
          f"voters={entry.n_voters:3d} predicted={entry.predicted.value}")

# the diet filter trims low-information voters
for theta in (0, 2, 4, 6):
    kept = filter_min_publishers(profiles, theta)
    print(f"theta={theta}: {len(kept)} voters keep a diet of >= {theta} publishers")
