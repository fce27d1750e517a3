"""Web link-graph family: pure-kernel edge cases + distributed-vs-sequential
parity on a tiny synthesized corpus (the full sf0.01 parity runs through the
golden oracles via tools/check_oracles.py)."""

import pyarrow as pa

from agenticknowledgegraphconstructionsystem_ray.functions.weblinks import (
    extract_hrefs,
    host_id,
    host_of,
    resolve_outlinks,
)


def test_extract_hrefs_quote_styles_and_skips():
    html = (
        b'<a href="/a/1">d</a>'
        b"<A HREF='rel.html'>s</A>"
        b"<a href=/raw/7>u</a>"
        b'<a class="x" href="https://other.example/p">abs</a>'
        b'<a href="#frag">f</a>'
        b'<a href="javascript:void(0)">j</a>'
        b'<a href="MAILTO:a@b">m</a>'
        b'<a href="tel:+1">t</a>'
        b'<a href="">e</a>'
        b"<a name=anchor>no href</a>"
    )
    assert extract_hrefs(html) == [
        "/a/1", "rel.html", "/raw/7", "https://other.example/p"
    ]


def test_extract_hrefs_malformed_inputs():
    assert extract_hrefs(None) == []
    assert extract_hrefs(b"") == []
    assert extract_hrefs(b"<a href=") == []
    assert extract_hrefs(b"<p<><<>broken<<") == []
    # href value crossing a newline inside the tag
    assert extract_hrefs(b'<a\n  href="/x">y</a>') == ["/x"]


def test_resolve_outlinks_internal_external():
    base = "https://site-3.example/page/9"
    html = (
        b'<a href="/about/1">i</a>'
        b'<a href="https://site-3.example/other">i2</a>'
        b'<a href="https://site-7.example/p">x</a>'
        b'<a href="rel/sub">r</a>'
    )
    got = resolve_outlinks(base, html)
    assert got == [
        ("https://site-3.example/about/1", "site-3.example", True),
        ("https://site-3.example/other", "site-3.example", True),
        ("https://site-7.example/p", "site-7.example", False),
        ("https://site-3.example/page/rel/sub", "site-3.example", True),
    ]


def test_host_id_stable_and_positive():
    a = host_id("site-1.example")
    assert a == host_id("site-1.example")
    assert a >= 0
    assert a != host_id("site-2.example")
    assert host_of("https://A.Example/p") == "a.example"


def test_duplicates_kept_in_order():
    html = b'<a href="/x">1</a><a href="/x">2</a>'
    assert extract_hrefs(html) == ["/x", "/x"]


def test_wg_outlinks_matches_sequential(ray_session, tmp_path):
    """Distributed per-page stats == plain sequential recomputation over a
    small generated corpus (shares only the pure kernel)."""
    import pyarrow.parquet as pq

    from agenticknowledgegraphconstructionsystem_ray import synth
    from agenticknowledgegraphconstructionsystem_ray.pipelines import weblinks

    d = str(tmp_path / "pages")
    synth.write_pages(d, 120, n_files=4, use_ray=False)

    import glob

    import ray.data as rd

    ds = rd.read_parquet(sorted(glob.glob(d + "/*.parquet")), columns=["url", "html"])

    def stats_ds(sf_dir_ignored):
        return ds

    # monkeypatch-free: call the map logic through the module helper
    orig = weblinks.pages_dataset
    weblinks.pages_dataset = stats_ds
    try:
        got = weblinks.wg_outlinks("ignored").to_pandas()
    finally:
        weblinks.pages_dataset = orig

    rows = {}
    for f in sorted(glob.glob(d + "/*.parquet")):
        t = pq.read_table(f, columns=["url", "html"])
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            links = resolve_outlinks(url, html)
            rows[url] = (
                len(links),
                sum(1 for _, _, i in links if not i),
                len({h for _, h, _ in links}),
            )
    assert len(got) == len(rows) == 120
    for r in got.itertuples():
        assert rows[r.url] == (r.n_links, r.n_external, r.n_hosts), r.url
    # the planted edge cases: empty page (i=0 is i%97==0) has zero links
    assert rows["https://site-0.example/page/0"] == (0, 0, 0)
    # a regular page has the 60 boilerplate internals + 8 related links
    n_links, n_ext, n_hosts = rows["https://site-1.example/page/1"]
    assert n_links >= 68 and n_ext >= 4


def test_fast_path_matches_urljoin_fuzz():
    """The sliced fast paths in resolve_outlinks must be byte-identical to
    pure urljoin+urlsplit resolution on randomized href compositions."""
    import random

    from urllib.parse import urljoin, urlsplit

    def slow(page_url, href):
        dst = urljoin(page_url, href)
        h = urlsplit(dst).netloc.lower()
        return (dst, h, h == urlsplit(page_url).netloc.lower()) if h else None

    rng = random.Random(5)
    pages = [
        "https://site-3.example/page/9",
        "https://h.example",
        "http://a.b.example/x/y/z",
    ]
    pieces = [
        "/a", "b", ".", "..", "x.html", "https://o.example",
        "http://q.example/p", "//cdn.example/j", "?k=v", "#f", ":80",
        "HTTPS://U.example", "site", "/",
    ]
    for page in pages:
        for _ in range(400):
            href = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 3)))
            if (
                not href
                or href.startswith("#")
                or href.lower().startswith(("javascript:", "mailto:", "tel:", "data:"))
            ):
                continue
            got = resolve_outlinks(page, f'<a href="{href}">t</a>'.encode())
            want = slow(page, href)
            assert got == ([want] if want else []), (page, href)


def test_extract_anchor_links():
    from agenticknowledgegraphconstructionsystem_ray.functions.weblinks import (
        extract_anchor_links,
    )

    base = "https://s.example/a/b"
    html = (
        b'<a href="https://o.example/p">Hello <b>World</b> &amp; co</a>'
        b'<a href="/x">  spaced\n  text </a>'
        b'<a href="#f">frag</a>'
        b'<a href="/y">unclosed'
    )
    got = extract_anchor_links(base, html)
    assert got == [
        ("https://o.example/p", "o.example", False, "Hello World & co"),
        ("https://s.example/x", "s.example", True, "spaced text"),
    ]
    assert extract_anchor_links(base, None) == []
    assert extract_anchor_links(base, b"<a href=") == []


def test_anchor_links_empty_text_and_attrs():
    from agenticknowledgegraphconstructionsystem_ray.functions.weblinks import (
        extract_anchor_links,
    )

    html = b'<a class="z" href=/raw/7 rel="nofollow"></a>'
    got = extract_anchor_links("https://s.example/p/1", html)
    assert got == [("https://s.example/raw/7", "s.example", True, "")]


def test_link_table_cache_reused_and_invalidated(ray_session):
    """The materialized link table is built once (marker-guarded), reused
    on repeat queries, and rebuilt when the marker's version contract
    differs instead of being silently trusted."""
    import json
    import os
    import shutil

    import pyarrow as pa

    from agenticknowledgegraphconstructionsystem_ray.pipelines import weblinks

    sf_dir = "/root/testdata/sf0.001"
    root = weblinks.links_root(sf_dir)
    shutil.rmtree(root, ignore_errors=True)

    def as_table(ds) -> pa.Table:
        return pa.concat_tables(
            list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
        )

    first = as_table(weblinks.wg_host_graph(sf_dir))
    marker = os.path.join(root, "_DONE")
    assert os.path.exists(marker)
    mtime = os.path.getmtime(marker)

    second = as_table(weblinks.wg_host_graph(sf_dir))
    assert os.path.getmtime(marker) == mtime, "link table rebuilt on reuse"
    assert first.equals(second)

    with open(marker, "w") as f:
        json.dump({"v": 999}, f)
    third = as_table(weblinks.wg_host_graph(sf_dir))
    with open(marker) as f:
        assert json.load(f)["v"] == weblinks.LINK_TABLE_VERSION
    assert first.equals(third)
