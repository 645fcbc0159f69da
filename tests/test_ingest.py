import dataclasses
import json
import logging
import random
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustnet import ingest
from trustnet.ingest import (
    DEFAULT_INCLUDE_KINDS,
    KnowledgeBaseError,
    Label,
    POST_KINDS,
    RawPost,
    build_corpus,
    canonical_url,
    extract_domain,
    fold_sum,
    load_knowledge_base,
    load_posts,
)


def _post(post_id, user, urls, kind="original", ts=1000.0):
    return {"post_id": post_id, "user_id": user, "timestamp": ts, "urls": urls, "kind": kind}


def write_posts(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write((r if isinstance(r, str) else json.dumps(r)) + "\n")


class TestFoldSum:
    def test_adds_left_to_right_on_every_interpreter(self):
        # a compensated sum (the built-in sum from Python 3.12 on) gives 1.0
        assert fold_sum([1e16, 1.0, -1e16]) == 0.0
        assert fold_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3


class TestLoadPosts:
    def test_three_valid_records(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post(f"p{i}", "u1", ["https://a.com/x"]) for i in range(3)])
        posts, warnings = load_posts(p)
        assert len(posts) == 3
        assert warnings == 0
        assert [r.post_id for r in posts] == ["p0", "p1", "p2"]

    def test_truncated_line_is_counted(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post("p0", "u1", ["https://a.com/x"]),
                        _post("p1", "u2", ["https://b.com/y"]),
                        '{"post_id": "p2", "user_id":'])
        posts, warnings = load_posts(p)
        assert len(posts) == 2
        assert warnings == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        p.write_text("")
        posts, warnings = load_posts(p)
        assert posts == []
        assert warnings == 0

    def test_duplicate_post_id_skipped(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post("p0", "u1", []), _post("p0", "u2", [])])
        posts, warnings = load_posts(p)
        assert len(posts) == 1
        assert warnings == 1

    def test_bad_kind_and_missing_fields(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post("p0", "u1", [], kind="repost"),
                        {"post_id": "p1", "user_id": "u1"}])
        posts, warnings = load_posts(p)
        assert posts == []
        assert warnings == 2

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            load_posts(tmp_path / "nope.jsonl")

    def test_byte_order_mark_is_not_a_malformed_line(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post(f"p{i}", "u1", ["https://a.com/x"]) for i in range(2)])
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        posts, malformed = load_posts(p)
        assert malformed == 0
        assert [r.post_id for r in posts] == ["p0", "p1"]

    def test_skipped_lines_are_debug_records_under_one_warning(self, tmp_path, caplog):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post("p0", "u1", ["https://a.com/x"]), "{not json",
                        _post("p0", "u2", []), {"post_id": "p1"}])
        with caplog.at_level(logging.WARNING, logger="trustnet.ingest"):
            load_posts(p)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, f"{p}: skipped 3 malformed records")]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="trustnet.ingest"):
            load_posts(p)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, f"{p}:2: unparseable record skipped"),
            (logging.DEBUG, f"{p}:3: malformed or duplicate record skipped"),
            (logging.DEBUG, f"{p}:4: malformed or duplicate record skipped"),
            (logging.WARNING, f"{p}: skipped 3 malformed records"),
        ]

    def test_unparseable_urls_reach_the_corpus_count(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post("p0", "u1", ["https://a.com/x", "notaurl"]),
                        _post("p1", "u2", ["example.com/y", "notaurl"])])
        posts, malformed = load_posts(p)
        corpus = build_corpus(posts)
        assert malformed == 0
        assert corpus.skipped_urls == 3
        assert corpus.articles == {"https://a.com/x"}


class TestExtractDomain:
    def test_strips_www_query_and_path(self):
        assert extract_domain("https://www.example.com/a/b?x=1") == "example.com"

    def test_lowercases_and_strips_port(self):
        assert extract_domain("http://News.Site.org:8080/p") == "news.site.org"

    def test_not_a_url(self):
        assert extract_domain("notaurl") is None

    def test_relative_url(self):
        assert extract_domain("/relative/path") is None

    def test_single_www_stripped(self):
        assert extract_domain("https://www.www.example.com/") == "www.example.com"

    def test_domain_keeps_full_host(self):
        url = "https://amp.news.example.co.uk/story"
        assert extract_domain(url) == "amp.news.example.co.uk"

    def test_canonical_url(self):
        assert canonical_url("https://WWW.Example.com:443/a/b?q=1#frag") == "https://example.com/a/b"
        assert canonical_url("notaurl") is None


def three_split_domain(url):
    """``extract_domain`` as it was before URLs were split once, kept as its oracle."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    host = parts.hostname
    if not parts.scheme or not host:
        return None
    host = host.lower().strip(".")
    if host.startswith("www."):
        host = host[len("www."):]
    return host or None


def three_split_canonical(url):
    domain = three_split_domain(url)
    if domain is None:
        return None
    return f"{urlsplit(url).scheme.lower()}://{domain}{urlsplit(url).path}"


# the spellings the longtail benchmark corpus and real shares use
_url = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["https://", "http://", "HTTPS://", "mailto:", "", "ftp://"]),
        st.sampled_from(["", "user@", "user:pw@"]),
        st.sampled_from(["", "www.", "WWW.", "www.www."]),
        st.sampled_from(["example.com", "News.Site.ORG", "a.co.uk", "[bad-host", "", "."]),
        st.sampled_from(["", ".", ".."]),
        st.sampled_from(["", ":443", ":8080", ":"]),
        st.sampled_from(["", "/", "/a/b", "/Story-1", "/x/"]),
        st.sampled_from(["", "?q=1", "?utm=a&b=2"]),
        st.sampled_from(["", "#frag", "#"]),
    ),
)


class TestUrlPartsOracle:
    @given(_url)
    @settings(max_examples=400, deadline=None)
    def test_views_equal_three_split_versions(self, url):
        assert extract_domain(url) == three_split_domain(url)
        assert canonical_url(url) == three_split_canonical(url)

    @pytest.mark.parametrize("url", [
        "http://[bad-host/x", "mailto:a@b.com", "example.com/x", "", "https://./p",
        "https://user:pw@WWW.Example.com.:443/a?q=1#f",
    ])
    def test_edge_spellings(self, url):
        assert extract_domain(url) == three_split_domain(url)
        assert canonical_url(url) == three_split_canonical(url)

    def test_each_raw_url_is_split_once_per_pass(self, tmp_path, monkeypatch):
        raw = ["https://www.a.com/x?q=1", "http://B.org:443/y#f", "notaurl"]
        write_posts(tmp_path / "posts.jsonl", [
            _post(f"p{i}", f"u{i % 7}", [raw[i % 3], raw[(i + 1) % 3]]) for i in range(50)
        ])
        calls = []

        def counting(url, *args, **kwargs):
            calls.append(url)
            return urlsplit(url, *args, **kwargs)

        monkeypatch.setattr(ingest, "urlsplit", counting)
        posts, _ = load_posts(tmp_path / "posts.jsonl")
        corpus = build_corpus(posts)
        assert len(calls) <= 3  # 3 distinct raw URLs, split only by build_corpus
        assert corpus.articles == {"https://a.com/x", "http://b.org/y"}


class TestBuildCorpus:
    def test_same_url_twice_dedups_interactions(self):
        posts = [
            RawPost("p1", "u1", 0.0, ("https://a.com/x",), "original"),
            RawPost("p2", "u1", 1.0, ("https://a.com/x",), "retweet"),
        ]
        corpus = build_corpus(posts)
        assert len(corpus.interactions) == 1
        assert len(corpus.share_events) == 2

    def test_one_share_event_per_post_and_canonical_url(self):
        posts = [
            RawPost("p1", "u1", 0.0, ("https://a.com/x?utm=1", "https://A.com/x#top"), "original"),
            RawPost("p2", "u1", 1.0, ("https://a.com/x",), "retweet"),
        ]
        corpus = build_corpus(posts)
        assert corpus.interactions == {("u1", "https://a.com/x", "a.com")}
        assert corpus.share_events == [
            ("u1", "https://a.com/x", "p1"), ("u1", "https://a.com/x", "p2")]

    def test_quote_posts_never_contribute(self):
        posts = [RawPost("p1", "u1", 0.0, ("https://a.com/x",), "quote")]
        corpus = build_corpus(posts)
        assert corpus.interactions == set()

    def test_two_users_two_urls(self):
        posts = [
            RawPost(f"p{i}{j}", f"u{i}", 0.0, (f"https://site{j}.com/a",), "original")
            for i in range(2)
            for j in range(2)
        ]
        corpus = build_corpus(posts)
        assert len(corpus.interactions) == 4
        assert corpus.users == {"u0", "u1"}
        assert len(corpus.articles) == 2

    def test_publisher_partition_of_articles(self):
        random.seed(5)
        posts = [
            RawPost(
                f"p{i}",
                f"u{random.randrange(6)}",
                0.0,
                (f"https://site{random.randrange(4)}.com/a{random.randrange(9)}",),
                "original",
            )
            for i in range(60)
        ]
        corpus = build_corpus(posts)
        per_publisher = {}
        for url, pub in corpus.url_publisher.items():
            per_publisher.setdefault(pub, set()).add(url)
        assert sum(len(v) for v in per_publisher.values()) == len(corpus.articles)

    def test_reordering_posts_changes_nothing(self):
        random.seed(11)
        posts = [
            RawPost(
                f"p{i}",
                f"u{random.randrange(4)}",
                float(i),
                (f"https://s{random.randrange(3)}.com/a{random.randrange(5)}",),
                random.choice(sorted(DEFAULT_INCLUDE_KINDS)),
            )
            for i in range(40)
        ]
        base = build_corpus(posts)
        for _ in range(5):
            random.shuffle(posts)
            again = build_corpus(posts)
            assert again.interactions == base.interactions
            assert sorted(again.share_events) == sorted(base.share_events)


class TestKnowledgeBase:
    def write_kb(self, tmp_path, rows, header="domain,score"):
        p = tmp_path / "kb.csv"
        p.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return p

    def test_labels(self, tmp_path):
        kb = load_knowledge_base(
            self.write_kb(tmp_path, ["sitea.com,90", "siteb.com,59", "sitec.com,"])
        )
        assert kb.label("sitea.com") is Label.T
        assert kb.label("siteb.com") is Label.N
        assert kb.label("sitec.com") is Label.UNC
        assert kb.label("never-seen.com") is Label.UNC

    def test_boundary_score_60_is_trustworthy(self, tmp_path):
        kb = load_knowledge_base(self.write_kb(tmp_path, ["x.com,60"]))
        assert kb.label("x.com") is Label.T

    def test_duplicate_last_wins(self, tmp_path):
        kb = load_knowledge_base(self.write_kb(tmp_path, ["x.com,90", "x.com,10"]))
        assert kb.score("x.com") == 10

    def test_score_out_of_range_fatal_with_line(self, tmp_path):
        with pytest.raises(KnowledgeBaseError, match=":3:"):
            load_knowledge_base(self.write_kb(tmp_path, ["x.com,90", "y.com,101"]))

    def test_non_integer_score_fatal(self, tmp_path):
        with pytest.raises(KnowledgeBaseError):
            load_knowledge_base(self.write_kb(tmp_path, ["x.com,high"]))

    def test_domains_normalize_as_url_hosts_do(self, tmp_path):
        kb = load_knowledge_base(self.write_kb(
            tmp_path, ["Example.com.,90", "WWW.News.org,20", ".dotted.net.,70"]
        ))
        for url, label in [("https://example.com/a", Label.T),
                           ("https://www.news.org/b", Label.N),
                           ("http://dotted.net./c", Label.T)]:
            assert kb.label(extract_domain(url)) is label

    def test_domain_that_normalizes_to_nothing_is_fatal(self, tmp_path):
        with pytest.raises(KnowledgeBaseError, match=":3: missing domain"):
            load_knowledge_base(self.write_kb(tmp_path, ["x.com,90", "..,50"]))

    def test_header_required(self, tmp_path):
        with pytest.raises(KnowledgeBaseError):
            load_knowledge_base(self.write_kb(tmp_path, ["y.com,5"], header="site,points"))

    def test_byte_order_mark_before_the_header(self, tmp_path):
        p = self.write_kb(tmp_path, ["a.com,90", "b.com,10"])
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        kb = load_knowledge_base(p)
        assert (kb.label("a.com"), kb.label("b.com")) == (Label.T, Label.N)

    def test_label_partition_is_total(self, tmp_path):
        kb = load_knowledge_base(
            self.write_kb(tmp_path, ["a.com,61", "b.com,59", "c.com,"])
        )
        posts = [
            RawPost("p1", "u1", 0.0, ("https://a.com/1", "https://b.com/2"), "original"),
            RawPost("p2", "u2", 0.0, ("https://c.com/3", "https://d.com/4"), "original"),
        ]
        corpus = build_corpus(posts)
        labels = {kb.label(p) for p in corpus.publishers}
        assert labels <= {Label.T, Label.N, Label.UNC}


# hosts that normalize alike, a port, a query, a fragment and an unparseable URL
GROUPING_URLS = [
    "https://a.com/1",
    "https://www.a.com/1",
    "http://a.com/1?x=1",
    "https://b.com/2#f",
    "https://B.com:8080/2",
    "https://c.org/x/y",
    "https://d.net/",
    "not a url",
]


class TestCorpusGroupings:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u0", "u1", "u2", "u3"]),
                st.lists(st.sampled_from(GROUPING_URLS), max_size=4),
                st.sampled_from(POST_KINDS),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_groupings_equal_a_regroup_of_interactions(self, rows):
        posts = [
            RawPost(f"p{i}", user, 0.0, tuple(urls), kind)
            for i, (user, urls, kind) in enumerate(rows)
        ]
        corpus = build_corpus(posts)
        triples = corpus.interactions
        users = {u for u, _, _ in triples}
        assert corpus.users == users
        assert corpus.articles == {url for _, url, _ in triples}
        assert corpus.publishers == {p for _, _, p in triples}
        assert corpus.url_publisher == {url: p for _, url, p in triples}
        assert corpus.user_urls == {
            u: {url for v, url, _ in triples if v == u} for u in users
        }
        assert corpus.user_publishers == {
            u: {p for v, _, p in triples if v == u} for u in users
        }

    def test_corpus_is_frozen(self):
        corpus = build_corpus([RawPost("p1", "u1", 0.0, ("https://a.com/x",), "original")])
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus.url_publisher = {}
