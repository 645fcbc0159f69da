import numpy as np
import pytest
from scipy.sparse import bmat, csr_matrix
from scipy.sparse.csgraph import connected_components

from trustnet import bicm
from trustnet.ingest import build_corpus, load_knowledge_base, load_posts
from trustnet.synth import SyntheticSpec, generate_synthetic


def small_spec(**kwargs):
    defaults = dict(users_per_block=40, publishers_per_pool=6, urls_per_publisher=5,
                    p_in=0.08, p_out=0.01, unc_fraction=0.2, seed=13)
    defaults.update(kwargs)
    return SyntheticSpec(**defaults)


def test_fixed_seed_gives_identical_files(tmp_path):
    spec = small_spec()
    generate_synthetic(spec, tmp_path / "a.jsonl", tmp_path / "a.csv")
    generate_synthetic(spec, tmp_path / "b.jsonl", tmp_path / "b.csv")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_different_seed_differs(tmp_path):
    generate_synthetic(small_spec(seed=1), tmp_path / "a.jsonl", tmp_path / "a.csv")
    generate_synthetic(small_spec(seed=2), tmp_path / "b.jsonl", tmp_path / "b.csv")
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()


def test_no_unclassified_fraction_covers_all_publishers(tmp_path):
    spec = small_spec(unc_fraction=0.0)
    generate_synthetic(spec, tmp_path / "posts.jsonl", tmp_path / "kb.csv")
    kb = load_knowledge_base(tmp_path / "kb.csv")
    posts, _ = load_posts(tmp_path / "posts.jsonl")
    corpus = build_corpus(posts)
    assert all(kb.score(p) is not None for p in corpus.publishers)


def test_zero_cross_block_sharing_gives_two_components(tmp_path):
    spec = small_spec(p_out=0.0, p_in=0.08, users_per_block=60)
    generate_synthetic(spec, tmp_path / "posts.jsonl", tmp_path / "kb.csv")
    posts, _ = load_posts(tmp_path / "posts.jsonl")
    corpus = build_corpus(posts)
    # construction guarantee: nobody shares across pools at p_out = 0
    pool = lambda pub: int(pub[3:5]) // spec.publishers_per_pool
    for user, _, publisher in corpus.interactions:
        assert pool(publisher) == (0 if int(user[1:]) < spec.users_per_block else 1)
    graph = bicm.build_graph(corpus)
    links = graph.biadjacency
    b = csr_matrix((np.ones(links.rows.size, dtype=np.int8), (links.rows, links.cols)),
                   shape=links.shape)
    n, m = b.shape
    full = bmat(
        [[csr_matrix((n, n), dtype=np.int8), b], [b.T, csr_matrix((m, m), dtype=np.int8)]]
    )
    n_components, _ = connected_components(full, directed=False)
    assert n_components == 2


def test_scores_respect_pool_ranges(tmp_path):
    spec = small_spec(unc_fraction=0.0)
    generate_synthetic(spec, tmp_path / "posts.jsonl", tmp_path / "kb.csv")
    kb = load_knowledge_base(tmp_path / "kb.csv")
    for pub in range(spec.publishers_per_pool):
        assert 70 <= kb.score(f"pub{pub:02d}.example") <= 95
    for pub in range(spec.publishers_per_pool, 2 * spec.publishers_per_pool):
        assert 10 <= kb.score(f"pub{pub:02d}.example") <= 50


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        small_spec(p_in=0.01, p_out=0.05).validate()
    with pytest.raises(ValueError):
        small_spec(p_in=0.5, publisher_focus=0.2).validate()
    with pytest.raises(ValueError):
        small_spec(unc_fraction=1.5).validate()
