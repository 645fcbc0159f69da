import dataclasses
import json
import logging
import operator
import random
import tempfile
from collections import Counter
from functools import cache
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustnet import ingest, pipeline
from trustnet.ingest import (
    DEFAULT_INCLUDE_KINDS,
    Corpus,
    KnowledgeBaseError,
    Label,
    POST_KINDS,
    RawPost,
    ShareTable,
    build_corpus,
    canonical_url,
    extract_domain,
    fold_sum,
    load_knowledge_base,
    load_posts,
    read_posts,
)
from trustnet.pipeline import PipelineConfig
from trustnet.synth import SyntheticSpec, generate_synthetic

from conftest import traced_peak, write_spelled
from test_voters import user_publishers, user_urls


def _post(post_id, user, urls, kind="original", ts=1000.0):
    return {"post_id": post_id, "user_id": user, "timestamp": ts, "urls": urls, "kind": kind}


def write_posts(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write((r if isinstance(r, str) else json.dumps(r)) + "\n")


def posts_and_malformed(path):
    """The posts ``load_posts`` keeps, as ``RawPost``s, and its malformed-line count."""
    return list(read_posts(path)), load_posts(path)[1]


class TestFoldSum:
    def test_adds_left_to_right_on_every_interpreter(self):
        # a compensated sum (the built-in sum from Python 3.12 on) gives 1.0
        assert fold_sum([1e16, 1.0, -1e16]) == 0.0
        assert fold_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3


class TestLoadPosts:
    def test_three_valid_records(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post(f"p{i}", "u1", ["https://a.com/x"]) for i in range(3)])
        posts, warnings = posts_and_malformed(p)
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
        posts, warnings = posts_and_malformed(p)
        assert list(posts) == []
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
        posts, warnings = posts_and_malformed(p)
        assert list(posts) == []
        assert warnings == 2

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            load_posts(tmp_path / "nope.jsonl")

    def test_byte_order_mark_is_not_a_malformed_line(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post(f"p{i}", "u1", ["https://a.com/x"]) for i in range(2)])
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        posts, malformed = posts_and_malformed(p)
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

    def test_undecodable_line_is_malformed_not_fatal(self, tmp_path, caplog):
        p = tmp_path / "posts.jsonl"
        generate_synthetic(SyntheticSpec(30, 4, 5), p, tmp_path / "kb.csv")
        lines = p.read_bytes().splitlines()[:50]
        lines[10] = lines[10].replace(b'"post_id": "p', b'"post_id": "p\xff', 1)
        p.write_bytes(b"\n".join(lines) + b"\n")
        with caplog.at_level(logging.DEBUG, logger="trustnet.ingest"):
            posts, malformed = load_posts(p)
        assert (len(posts), malformed) == (49, 1)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, f"{p}:11: unparseable record skipped"),
            (logging.WARNING, f"{p}: skipped 1 malformed records"),
        ]

    def test_equal_values_share_one_string(self, tmp_path):
        # two spellings of each a.com article, so two keys and two host prefixes per article
        spelling = ("https://www.a.com/{}", "https://A.com:443/{}?i={}")
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post(f"p{i}", f"u{i % 3}", [spelling[i // 4 % 2].format(i % 4, i),
                                                     "https://b.org/y"],
                              kind=POST_KINDS[i % 4]) for i in range(24)])
        table, _ = load_posts(p)
        # one string and one code per distinct value, in first-seen order: 3 users;
        # a.com/0, b.org/y, a.com/1 and a.com/3 (every a.com/2 post is a quote)
        assert table.users == ["u0", "u1", "u2"]
        assert table.urls == [f"https://{a}" for a in ("a.com/0", "b.org/y", "a.com/1", "a.com/3")]
        assert table.domains == ["a.com", "b.org", "a.com", "a.com"]
        assert table.event_user.dtype == table.event_url.dtype == np.int64
        events = [(table.users[u], table.urls[c])
                  for u, c in zip(table.event_user.tolist(), table.event_url.tolist())]
        assert events == [(f"u{i % 3}", url) for i in range(24) if i % 4 != 2
                          for url in (f"https://a.com/{i % 4}", "https://b.org/y")]

    def test_unparseable_urls_reach_the_corpus_count(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post("p0", "u1", ["https://a.com/x", "notaurl"]),
                        _post("p1", "u2", ["example.com/y", "notaurl"])])
        posts, malformed = load_posts(p)
        corpus = build_corpus(posts)
        assert malformed == 0
        assert corpus.skipped_urls == 3
        assert corpus.articles == {"https://a.com/x"}


_BAD_POST = json.dumps(_post("bad", "u0000", ["https://bad.example/x"], ts=0))
#: lines that parse, or fail to parse, in ways no other malformed line does
UNSTORABLE_LINES = {
    "lone surrogate in user_id": _BAD_POST.replace("u0000", "u\\ud800"),
    "lone surrogate in a URL path": _BAD_POST.replace("/x", "/\\udc00"),
    "carriage return in user_id": _BAD_POST.replace("u0000", "u\\rx"),
    "escaped carriage return in user_id": _BAD_POST.replace("u0000", "u\\u000dx"),
    "timestamp beyond float range": _BAD_POST.replace(": 0,", ": 1" + "0" * 400 + ","),
    "int literal over the digit limit": _BAD_POST.replace(": 0,", ": 1" + "0" * 4300 + ","),
    "nesting past the recursion limit":
        _BAD_POST[:-1] + ', "deep": ' + "[" * 100_000 + "]" * 100_000 + "}",
}


@pytest.mark.parametrize("line", UNSTORABLE_LINES.values(), ids=UNSTORABLE_LINES)
def test_unstorable_line_is_malformed_and_the_run_completes(tmp_path, line):
    generate_synthetic(SyntheticSpec(30, 4, 5), tmp_path / "posts.jsonl", tmp_path / "kb.csv")
    bad = tmp_path / "bad.jsonl"
    bad.write_text((tmp_path / "posts.jsonl").read_text() + line + "\n", encoding="ascii")
    runs = []
    for name in ("posts.jsonl", "bad.jsonl"):
        config = PipelineConfig(posts=str(tmp_path / name), knowledge_base=str(tmp_path / "kb.csv"),
                                out_dir=str(tmp_path / name.replace(".", "_")))
        _, metas, _ = pipeline.run_stages(config, "ingest")
        meta = {k: v for k, v in metas["ingest"].items() if k != "config_hash"}
        files = {f: (Path(config.out_dir) / "ingest" / f).read_bytes()
                 for f in ("interactions.csv", "shares.csv", "publishers.csv")}
        runs.append((meta.pop("n_malformed"), meta, files))
    (clean, *corpus), (dirty, *dirty_corpus) = runs
    assert dirty == clean + 1
    assert dirty_corpus == corpus


def test_a_carriage_return_user_id_leaves_a_reloadable_run(tmp_path):
    # csv.writer leaves a bare \r unquoted, so a stored "u\rx" would split its row on reload
    generate_synthetic(SyntheticSpec(30, 4, 5), tmp_path / "posts.jsonl", tmp_path / "kb.csv")
    with open(tmp_path / "posts.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(_post("cr", "u\rx", ["https://a.com/x"])) + "\n")
    config = PipelineConfig(posts=str(tmp_path / "posts.jsonl"),
                            knowledge_base=str(tmp_path / "kb.csv"), out_dir=str(tmp_path / "run"))
    fresh = pipeline.run_pipeline(config)
    rerun = pipeline.run_pipeline(dataclasses.replace(config, cv_seed=1))
    assert rerun.corpus.users == fresh.corpus.users
    assert all("\r" not in u for u in fresh.corpus.users)
    meta = json.loads((tmp_path / "run" / "ingest" / "meta.json").read_text())
    assert meta["n_malformed"] == 1


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


# free text rich in the characters that delimit URL parts
_free_url = st.builds(
    operator.add,
    st.sampled_from(["", "http://", "https://", "HTTPS://", "//", "a:", " \t"]),
    st.text(alphabet=":/?#[]@.\t\n abAW1%\u00e9\uff03\uff1f", max_size=24),
)


def assert_host_prefix_split(key):
    """The key's URL parts are its host prefix's, with the rest of the key appended."""
    prefix, path = ingest._host_prefix(key)
    assert prefix + path == key
    parts = ingest._url_parts(prefix)
    assert (parts and (parts[0] + path, parts[1])) == ingest._url_parts(key)


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

    @given(st.one_of(_url, _free_url))
    @settings(max_examples=500, deadline=None)
    def test_query_and_fragment_reach_no_part(self, raw):
        assert ingest._url_parts(raw) == ingest._url_parts(ingest._split_key(raw))

    @given(st.one_of(_url, _free_url))
    @settings(max_examples=500, deadline=None)
    def test_host_prefix_split_equals_the_whole_split(self, raw):
        assert_host_prefix_split(ingest._split_key(raw))

    @pytest.mark.parametrize("key", [
        " http://a.com/x", "\x00http://a.com/x", "\x1fhttp://a.com/x", "http://a.com/x\ry",
        "http://a\t.com/x", "ht\ntp://a.com/x", "http:/a.com/b", "http:a.com/b", "a:b://c/d",
        "//a/b:c/d", "http://[::1]:80/x", "http://a]/x", "http://a.com", "http://a.com/",
        "https://user:pw@WWW.Example.com.:443/a", "http://\u00e9.com/x", "1http://a.com/x",
    ])
    def test_host_prefix_split_of_edge_keys(self, key):
        assert_host_prefix_split(key)

    def test_each_raw_url_is_split_once_per_pass(self, tmp_path, monkeypatch):
        # 8 raw spellings, 4 once their query and fragment are cut off, on 3 host prefixes
        raw = ["https://www.a.com/x?q=1", "http://B.org:443/y#f", "notaurl",
               "https://www.a.com/x?q=2#g", "https://www.a.com/x#h", "http://B.org:443/y",
               "notaurl?x", "https://www.a.com/z/w"]
        write_posts(tmp_path / "posts.jsonl", [
            _post(f"p{i}", f"u{i % 7}", [raw[i % 8], raw[(i + 1) % 8]]) for i in range(50)
        ])
        calls = []

        def counting(url, *args, **kwargs):
            calls.append(url)
            return urlsplit(url, *args, **kwargs)

        cuts = []

        def counting_cut(key, host_prefix=ingest._host_prefix):
            cuts.append(key)
            return host_prefix(key)

        monkeypatch.setattr(ingest, "urlsplit", counting)
        monkeypatch.setattr(ingest, "_host_prefix", counting_cut)
        posts, _ = load_posts(tmp_path / "posts.jsonl")
        corpus = build_corpus(posts)
        # one cut per split key, and one split per host prefix: the scheme and host before the path
        assert sorted(cuts) == ["http://B.org:443/y", "https://www.a.com/x",
                                "https://www.a.com/z/w", "notaurl"]
        assert sorted(calls) == ["http://B.org:443", "https://www.a.com", "notaurl"]
        assert corpus.articles == {"https://a.com/x", "https://a.com/z/w", "http://b.org/y"}


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
        assert corpus.share_events == ["https://a.com/x", "https://a.com/x"]

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
        assert corpus.users == ("u0", "u1")
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
        corpus, table = build_corpus(posts), ingest._share_table(posts)
        triples = corpus.interactions
        # the share events' codes name the same triples
        assert {(table.users[u], table.urls[c], table.domains[c]) for u, c in
                zip(table.event_user.tolist(), table.event_url.tolist())} == triples
        users = {u for u, _, _ in triples}
        assert corpus.users == tuple(sorted(users))
        assert corpus.articles == {url for _, url, _ in triples}
        assert corpus.publishers == {p for _, _, p in triples}
        assert corpus.url_publisher == {url: p for _, url, p in triples}
        by_user_urls = {u: {url for v, url, _ in triples if v == u} for u in users}
        by_user_publishers = {u: {p for v, _, p in triples if v == u} for u in users}
        index = corpus.index

        def rows(matrix, ids):
            return {user: {ids[j] for j in matrix.cols[matrix.rows == i].tolist()}
                    for i, user in enumerate(index.users)}

        assert rows(index.user_urls, index.urls) == by_user_urls
        assert rows(index.user_publishers, index.publishers) == by_user_publishers
        # the set-based voter oracle groups the same way
        assert user_urls(corpus) == by_user_urls
        assert user_publishers(corpus) == by_user_publishers

    def test_corpus_is_frozen(self):
        corpus = build_corpus([RawPost("p1", "u1", 0.0, ("https://a.com/x",), "original")])
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus.url_publisher = {}
        # the code arrays are read-only too, so no caller can change links under a cached index
        index = corpus.index
        arrays = [corpus.link_user, corpus.link_url, corpus.shares, index.url_publisher] + [
            array for m in (index.user_urls, index.user_publishers, index.publisher_users)
            for array in (m.rows, m.cols)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7


class TestShareTable:
    def test_load_posts_keeps_share_events_not_posts(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_posts(p, [_post(f"p{i}", f"u{i % 2}", ["https://a.com/x"] * i + ["notaurl"],
                              kind=POST_KINDS[i]) for i in range(4)])
        table, _ = load_posts(p)
        assert isinstance(table, ShareTable) and len(table) == 4
        # one event per post and canonical URL; the quote p2 adds none, and no post id is
        # kept; u0's posts add no event (p0's URL has no host, p2 is a quote): u0 gets no code
        assert sorted(vars(table)) == [
            "domains", "event_url", "event_user", "n_posts", "skipped", "urls", "users"]
        assert (table.users, table.urls, table.domains) == (["u1"], ["https://a.com/x"], ["a.com"])
        assert table.event_user.dtype == table.event_url.dtype == np.int64
        assert (table.event_user.tolist(), table.event_url.tolist()) == ([0, 0], [0, 0])
        assert table.skipped == 3

    def test_a_table_and_its_posts_build_equal_corpora(self, tmp_path):
        plain, spelled = tmp_path / "plain.jsonl", tmp_path / "spelled.jsonl"
        generate_synthetic(SyntheticSpec(30, 4, 5), plain, tmp_path / "kb.csv")
        n_malformed = write_spelled(plain, spelled)
        table, malformed = load_posts(spelled)
        assert malformed == n_malformed > 0
        want = corpus_arrays(build_corpus(load_posts(plain)[0]))
        assert corpus_arrays(build_corpus(table)) == want
        assert corpus_arrays(build_corpus(list(read_posts(spelled)))) == want
        assert corpus_arrays(build_corpus(read_posts(spelled))) == want

    def test_load_posts_peak_per_post(self, tmp_path):
        # planted scale M: one RawPost, its URL tuple and its float per post took ~265 B;
        # the columns of every post ~140 B; the share events of the kept posts ~120 B
        p = tmp_path / "posts.jsonl"
        generate_synthetic(SyntheticSpec(500, 20, 15), p, tmp_path / "kb.csv")
        (posts, _), peak = traced_peak(load_posts, p)
        assert len(posts) > 15_000
        assert peak <= 180 * len(posts)

    def test_ingest_peak_per_post_on_spelled_urls(self, tmp_path):
        # planted scale M in four spellings per article, with 401 malformed lines: a table
        # of every post and raw URL took ~353 B per post; the share events take ~136 B
        plain, spelled = tmp_path / "plain.jsonl", tmp_path / "spelled.jsonl"
        generate_synthetic(SyntheticSpec(500, 20, 15), plain, tmp_path / "kb.csv")
        write_spelled(plain, spelled)

        def ingest(path):
            table, _ = load_posts(path)
            return len(table), build_corpus(table)

        (n_posts, corpus), peak = traced_peak(ingest, spelled)
        assert corpus.link_url.size > 0 and n_posts > 15_000
        assert peak <= 180 * n_posts


class TestUnique:
    @given(st.lists(st.integers(-2**62, 2**62), max_size=50))
    @example(keys=[])
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        got, want = ingest.unique(keys), np.unique(keys)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)


# ``_parse_post``, ``load_posts`` (without its log records) and ``build_corpus`` as
# they were before ingest decoded each line once, split each URL without its query
# and fragment, and kept one URL per share event; kept as the oracle of the current ones.

@dataclasses.dataclass(frozen=True)
class OraclePost:
    post_id: str
    user_id: str
    timestamp: float
    urls: tuple[str, ...]
    kind: str


def parse_post_oracle(obj):
    if not isinstance(obj, dict):
        return None
    post_id = obj.get("post_id")
    user_id = obj.get("user_id")
    timestamp = obj.get("timestamp")
    urls = obj.get("urls")
    kind = obj.get("kind")
    if not isinstance(post_id, str) or not post_id:
        return None
    if not isinstance(user_id, str) or not user_id:
        return None
    if not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool):
        return None
    if not isinstance(urls, list) or not all(isinstance(u, str) for u in urls):
        return None
    if kind not in POST_KINDS:
        return None
    return OraclePost(post_id, user_id, float(timestamp), tuple(urls), kind)


def load_posts_oracle(path):
    posts = []
    seen_ids = set()
    malformed = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            post = parse_post_oracle(obj)
            if post is None or post.post_id in seen_ids:
                malformed += 1
                continue
            seen_ids.add(post.post_id)
            posts.append(post)
    return posts, malformed


class OracleCorpus(NamedTuple):
    interactions: set[tuple[str, str, str]]
    share_events: list[tuple[str, str, str]]  # (user, url, post_id)
    skipped_urls: int


def build_corpus_oracle(posts):
    interactions = set()
    share_events = []
    skipped = 0
    url_parts = cache(ingest._url_parts)  # one split per distinct raw URL
    for post in posts:
        if post.kind not in DEFAULT_INCLUDE_KINDS:
            continue
        seen = set()  # canonical URLs of this post
        for raw_url in post.urls:
            parts = url_parts(raw_url)
            if parts is None:
                skipped += 1
                continue
            url, domain = parts
            if url in seen:
                continue
            seen.add(url)
            interactions.add((post.user_id, url, domain))
            share_events.append((post.user_id, url, post.post_id))
    return OracleCorpus(interactions, share_events, skipped)


def ingest_artifacts_oracle(corpus, kb):
    """The ingest stage's three CSVs as the set-based corpus wrote them: name -> (header, rows)."""
    return {
        "interactions.csv": (["user_id", "url", "publisher"], sorted(corpus.interactions)),
        "shares.csv": (["url", "n_shares"],
                       sorted(Counter(url for _, url, _ in corpus.share_events).items())),
        "publishers.csv": (["domain", "score", "label"],
                           [(p, kb.score(p), kb.label(p))
                            for p in sorted({p for _, _, p in corpus.interactions})]),
    }


ORACLE_KB = "domain,score\na.com,80\nb.org,\nc.net,20\n"


def corpus_arrays(corpus):
    """Every id tuple, int64 code array and index matrix of a corpus, as plain values."""
    index = corpus.index
    arrays = (corpus.link_user, corpus.link_url, corpus.shares, index.url_publisher)
    matrices = (index.user_urls, index.user_publishers, index.publisher_users)
    links = tuple(a for m in matrices for a in (m.rows, m.cols))
    assert all(a.dtype == np.int64 for a in arrays + links)
    return ([corpus.users, corpus.urls, corpus.domains, corpus.skipped_urls,
             index.users, index.urls, index.publishers, index.user_row]
            + [a.tolist() for a in arrays]
            + [(m.shape, m.rows.tolist(), m.cols.tolist()) for m in matrices])


def ingest_matches_oracle(data: bytes) -> tuple[list[RawPost], int, Corpus]:
    """Both ingests of one posts file agree; the current one's (posts, malformed, corpus).

    They agree on the posts, the corpus, the three artifacts' bytes and the
    meta counts; ``load_posts``' table and the ``RawPost``s of ``read_posts`` build
    equal corpora, and a reload of the written stage equals the fresh corpus.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path, kb_path = tmp / "posts.jsonl", tmp / "kb.csv"
        path.write_bytes(data)
        kb_path.write_text(ORACLE_KB, encoding="utf-8")
        (table, malformed), posts = load_posts(path), list(read_posts(path))
        want_posts, want_malformed = load_posts_oracle(path)
        assert [tuple(p) for p in posts] == [dataclasses.astuple(p) for p in want_posts]
        assert (len(table), malformed) == (len(want_posts), want_malformed)
        corpus, want = build_corpus(table), build_corpus_oracle(want_posts)
        assert corpus_arrays(build_corpus(posts)) == corpus_arrays(corpus)
        assert corpus.skipped_urls == want.skipped_urls
        assert corpus.interactions == want.interactions
        assert list(corpus.link_rows()) == sorted(want.interactions)
        n_shares = Counter(url for _, url, _ in want.share_events)
        assert dict(zip(corpus.urls, corpus.shares.tolist())) == n_shares
        assert Counter(corpus.share_events) == n_shares
        config = PipelineConfig(posts=str(path), knowledge_base=str(kb_path))
        stage_dir = tmp / "ingest"
        if not want.interactions:
            with pytest.raises(ValueError, match="corpus is empty"):
                pipeline.stage_ingest(config, {}, stage_dir, None)
            return posts, malformed, corpus
        (_, kb), meta = pipeline.stage_ingest(config, {}, stage_dir, None)
        assert (meta["n_posts"], meta["n_malformed"]) == (len(want_posts), want_malformed)
        for name, (header, rows) in ingest_artifacts_oracle(want, kb).items():
            pipeline.write_csv(tmp / "oracle" / name, header, rows)
            assert (stage_dir / name).read_bytes() == (tmp / "oracle" / name).read_bytes()
        assert (meta["n_interactions"], meta["n_share_events"], meta["n_skipped_urls"]) == (
            len(want.interactions), len(want.share_events), want.skipped_urls)
        assert corpus_arrays(pipeline.load_corpus(stage_dir, meta)) == corpus_arrays(corpus)
    return posts, malformed, corpus


# spellings of one article (case, www., port, query, fragment, tab), others and hostless ones
_variants = st.sampled_from([
    "https://a.com/x", "https://A.com/x#top", "https://www.a.com:443/x?utm=1", "https://a.com/x?",
    "https://a.com/\tx", "ht\ttps://a.com/x", "https://b.org/y", "HTTP://B.org/y#f",
    "notaurl", "example.com/x", "", "https://./p", "http://[bad-host/x",
    # cells csv.writer must quote: a comma, a quote, a comma in the host, and a newline
    # (urlsplit drops it)
    "https://a.com/x,y", 'https://a.com/"q"', "https://c,d.net/z", "https://b.org/y\nz",
])
_records = st.one_of(
    st.fixed_dictionaries({
        "post_id": st.sampled_from(["p1", "p2", "p3", "p4", "p5", 'p"q', "pé"]),
        "user_id": st.sampled_from(["u1", "u2", 'u"3', "u,4", "u\n5"]),
        "timestamp": st.sampled_from([1000, 1.5]),
        "urls": st.lists(st.one_of(_variants, _url), max_size=4),
        "kind": st.sampled_from(POST_KINDS),
    }),
    st.fixed_dictionaries({}, optional={
        "post_id": st.sampled_from(["p1", "p6", "", 7, None]),
        "user_id": st.sampled_from(["u1", "", 3, None]),
        "timestamp": st.sampled_from([1000, -2.5, True, False, "1000", None]),
        "urls": st.one_of(st.lists(st.one_of(_variants, st.integers(0, 3), st.none()), max_size=3),
                          st.sampled_from(["https://a.com/x", None])),
        "kind": st.sampled_from([*POST_KINDS, "repost", "", None]),
    }),
)
_record_lines = st.builds(json.dumps, _records, ensure_ascii=st.booleans())
_lines = st.one_of(
    _record_lines,
    _record_lines,
    _record_lines.map(lambda s: s + " x"),  # extra data
    _record_lines.map(lambda s: s + "{}"),
    _record_lines.map(lambda s: s[: len(s) // 2]),  # truncated
    _record_lines.map(lambda s: "\ufeff" + s),  # a byte-order mark inside the file
    _record_lines.map(lambda s: "\x0c " + s + "  "),  # whitespace that strip removes
    st.sampled_from(["", "   ", "{not json", "[1, 2]", "3", '"str"', "null", "{}"]),
)

#: a file with every case the random files draw, each at least once
EVERY_CASE = [
    json.dumps(_post("p1", "u1", ["https://a.com/x?utm=1", "https://A.com/x#top"])),
    "\x0c " + json.dumps(_post("p9", "u1", ["https://d.io/w"])) + "  ",
    json.dumps(_post("p2", "u1", ["https://www.a.com:443/x", "notaurl", "https://b.org/\ty"])),
    json.dumps(_post("p1", "u2", ["https://a.com/x"])),  # duplicate post id
    json.dumps(_post("p3", "u2", ["https://b.org/y"], kind="quote")),
    json.dumps(_post('p"4', "ué", ["https://b.org/y#f"], kind="reply"), ensure_ascii=False),
    json.dumps(_post("p5", "u3", ["https://c.net/z"], ts=True)),
    json.dumps(_post("p6", "u3", ["https://c.net/z", 3])),
    json.dumps(_post("", "u3", [])),
    json.dumps(_post("p7", "u3", ["https://c.net/z"])) + " x",
    "\ufeff" + json.dumps(_post("p8", "u3", [])),
    "{not json",
    "",
    "[1, 2]",
]


class TestIngestOracle:
    @given(st.booleans(), st.lists(st.tuples(_lines, st.sampled_from(["\n", "\r\n", "\r"])),
                                   max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_random_files_match_the_oracle(self, bom, lines):
        data = "".join(line + end for line, end in lines).encode("utf-8")
        ingest_matches_oracle(b"\xef\xbb\xbf" + data if bom else data)

    def test_every_case_matches_the_oracle(self):
        data = "\ufeff" + "\r\n".join(EVERY_CASE[:7]) + "\r" + "\n".join(EVERY_CASE[7:])
        posts, malformed, corpus = ingest_matches_oracle(data.encode("utf-8"))
        assert [p.post_id for p in posts] == ["p1", "p9", "p2", "p3", 'p"4']
        assert malformed == 8
        assert corpus.skipped_urls == 1
        assert sorted(corpus.share_events) == [
            "https://a.com/x", "https://a.com/x", "https://b.org/y", "https://b.org/y",
            "https://d.io/w"]
