"""Web link-graph family over the Common-Crawl-style pages corpus (wg_*).

The Common-Crawl-signature capability next to the KG pipeline: the same
``pages(url, warc_ts, html, text, lang)`` table carries an implicit web
graph in its ``<a href>``s. ``wg_outlinks`` is the one per-page map pass;
everything else derives from the MATERIALIZED LINK TABLE
(``_ensure_link_tables``: the HTML scan + pair shuffle runs once per
corpus, then graph / PageRank / HITS / weighted rank / reciprocity /
Gini / concentration / co-citation read the O(host-pairs) artifact):

- ``wg_host_graph``   — (src_host, dst_host, n_links) multiplicities
                        (the link-table contents, sorted); the planted
                        hub-host skew lands on the build's per-block
                        combiner partials, not the shuffle.
- ``wg_host_rank``    — host-level PageRank over the distinct EXTERNAL
                        host graph, reusing the integer fixed-point BSP
                        engine (pipelines/graphalgo.pagerank). Node ids
                        are hash-derived (functions/weblinks.host_id) so
                        id assignment needs no global coordination; only
                        top-k labels resolve back to host strings
                        (broadcast of k ids, never a host dictionary).
- plus ``wg_host_hits`` / ``wg_host_rank_weighted`` /
  ``wg_reciprocity`` / ``wg_indegree_gini`` /
  ``wg_outlink_concentration`` / ``wg_cocitation`` /
  ``wg_anchor_terms`` / ``wg_host_quality`` — see each docstring.

Reference analog: the citation edges fetched per paper
(``fetch_citing_papers.py:140-264``) are the reference's document->document
link graph; here the edge evidence is crawled HTML itself.

Oracles: sequential golden recomputation (goldens._seq_weblinks /
_seq_host_rank) shares the pure kernel (functions/weblinks.py) and redoes
the aggregation with plain dicts — the distributed plan is checked
bit-for-bit against it at sf0.01.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

from .. import synth
from ..functions.weblinks import host_id, host_of, resolve_outlinks
from ..runtime import cluster_cpus
from ..state.artifacts import (
    cache_root,
    ensure_artifact,
    read_contract,
    source_fingerprint,
)
from .kgqueries import LINK_BUCKETS, sf_of


def pages_dataset(sf_dir: str) -> rd.Dataset:
    pages_dir = synth.ensure_pages(sf_of(sf_dir))
    return rd.read_parquet(pages_dir, columns=["url", "html"])


def wg_outlinks(sf_dir: str):
    """Per-page outlink stats; pages without links (empty / script-only
    documents) appear with zeros — the dangling-host edge case."""
    ds = pages_dataset(sf_dir)

    def stats(t: pa.Table) -> pa.Table:
        urls, n_links, n_ext, n_hosts = [], [], [], []
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            links = resolve_outlinks(url, html)
            urls.append(url)
            n_links.append(len(links))
            n_ext.append(sum(1 for _, _, internal in links if not internal))
            n_hosts.append(len({h for _, h, _ in links}))
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "n_links": pa.array(n_links, pa.int64()),
                "n_external": pa.array(n_ext, pa.int64()),
                "n_hosts": pa.array(n_hosts, pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow").sort("url")


# ---------------------------------------------------------------------------
# Materialized link table: the whole wg_* family derives from ONE
# (src_host, dst_host, n_links) aggregate, so the HTML scan + pair shuffle
# runs ONCE per corpus (cached through state.artifacts.ensure_artifact) and
# every derived query (graph, rank, HITS, weighted rank, reciprocity, Gini,
# concentration) reads the O(host-pairs) artifact instead of re-extracting
# hrefs from 100 TB of HTML — the same extract-once-query-many contract the
# KG queries already follow via kgqueries._ensure_run. Sentinel rows
# (dst = "\\x00", n = 0) record every page's own host so node sets that
# must include link-less pages' hosts stay derivable. Every build, merge
# and incremental view sums its pair rows through ONE helper,
# sum_link_pairs: rows are tagged with a stable hash bucket of the pair
# (host_id of the NUL-joined pair mod kgqueries.LINK_BUCKETS — never
# Python's salted hash()), shuffled by bucket, and each bucket is summed
# by one vectorized Arrow group_by, so no per-pair Python step runs (a Ray
# groupby-aggregate pays one per host pair). Rows are ordered by bucket,
# then (src_host, dst_host); consumers that need an order sort.
# ---------------------------------------------------------------------------

_SENTINEL = "\x00"  # not a possible netloc; tags page-host node rows
LINK_TABLE_VERSION = 3  # v3: bucketed Arrow pair sums (sum_link_pairs)


def _sentinel_pair_partials(t: pa.Table) -> pa.Table:
    """Per-block (src_host, dst_host) partial counts — the combiner that
    absorbs the planted hub-host skew before the shuffle — plus one
    (src, SENTINEL, 0) row per page host so link-less pages stay
    reachable for node sets."""
    counts: dict[tuple[str, str], int] = {}
    for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
        src = host_of(url)
        counts.setdefault((src, _SENTINEL), 0)
        for _, dst, _ in resolve_outlinks(url, html):
            k = (src, dst)
            counts[k] = counts.get(k, 0) + 1
    return pa.table(
        {
            "src_host": pa.array([k[0] for k in counts], pa.string()),
            "dst_host": pa.array([k[1] for k in counts], pa.string()),
            "n_links": pa.array(list(counts.values()), pa.int64()),
        }
    )


def _link_bucket(t: pa.Table) -> pa.Table:
    """Append the pair's stable hash bucket (``bkt``) to link rows."""
    bkts = [
        host_id(f"{s}\x00{d}") % LINK_BUCKETS
        for s, d in zip(t["src_host"].to_pylist(), t["dst_host"].to_pylist())
    ]
    return t.append_column("bkt", pa.array(bkts, pa.int32()))


def _sum_bucket(t: pa.Table) -> pa.Table:
    """One bucket's rows -> one (src_host, dst_host, n_links) row per pair,
    pair-sorted."""
    g = t.group_by(["src_host", "dst_host"]).aggregate([("n_links", "sum")])
    return pa.table(
        {
            "src_host": g["src_host"],
            "dst_host": g["dst_host"],
            "n_links": g["n_links_sum"],
        }
    ).sort_by([("src_host", "ascending"), ("dst_host", "ascending")])


def sum_link_pairs(*parts: rd.Dataset) -> rd.Dataset:
    """The UNION of (src_host, dst_host, n_links) datasets summed to one
    row per host pair: bucket tag -> bucket shuffle -> per-bucket Arrow
    group_by sum (the layout of kgqueries._write_postings)."""
    rows = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    return (
        rows.map_batches(_link_bucket, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(_sum_bucket, batch_format="pyarrow")
    )


def _page_pairs(pages_files: list) -> rd.Dataset:
    """Pair partials (sentinels included) over a pages file list."""
    return rd.read_parquet(pages_files, columns=["url", "html"]).map_batches(
        _sentinel_pair_partials, batch_format="pyarrow")


def links_root(sf_dir: str) -> str:
    """Cache root of the materialized link table — the one place the path
    scheme lives (bench and tests clear caches through this)."""
    return cache_root("weblinks", f"sf{sf_of(sf_dir):g}")


def _ensure_link_tables(sf_dir: str) -> str:
    """Build (or reuse) the materialized link table for a corpus."""
    import glob

    pages_dir = synth.ensure_pages(sf_of(sf_dir))
    return _ensure_link_tables_for(
        sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))),
        links_root(sf_dir),
    )


def _ensure_link_tables_for(pages_files: list, root: str) -> str:
    """Link-table build over an explicit pages file list, cached through
    state.artifacts.ensure_artifact. The contract carries a source
    fingerprint of the pages shards, so a regenerated or swapped corpus
    whose cache root collides (same sf in the basename) rebuilds instead
    of serving stale links."""

    def build(tmp: str) -> None:
        sum_link_pairs(_page_pairs(pages_files)).write_parquet(
            os.path.join(tmp, "links"), compression="zstd")

    return ensure_artifact(
        root,
        {"v": LINK_TABLE_VERSION, "src": source_fingerprint(*pages_files)},
        build,
    )


def merge_link_tables(base_root: str, delta_pages_files: list,
                      dest: str) -> str:
    """cli update's link-table refresh: the base aggregate (read back, not
    re-scanned) unioned with pair partials over ONLY the delta pages,
    summed by sum_link_pairs, written as the merged link table. Sentinel
    page-host rows ride along, so the output is row-identical to a full
    _ensure_link_tables build over base∪delta pages. Cost = delta scan +
    O(host-pairs); the base corpus is never touched. The contract holds
    the base table's own contract, so a rebuilt base invalidates the
    merge."""
    base_contract = read_contract(base_root)
    if base_contract is None:
        raise FileNotFoundError(
            f"base link table {base_root} has no valid _DONE marker")

    def build(tmp: str) -> None:
        sum_link_pairs(
            rd.read_parquet(os.path.join(base_root, "links")),
            _page_pairs(delta_pages_files),
        ).write_parquet(os.path.join(tmp, "links"), compression="zstd")

    return ensure_artifact(
        dest,
        {"v": LINK_TABLE_VERSION,
         "src": source_fingerprint(*delta_pages_files),
         "base": base_contract},
        build,
    )


def _links_dataset(sf_dir: str, with_sentinels: bool = False) -> rd.Dataset:
    """The materialized (src_host, dst_host, n_links) aggregate; sentinel
    page-host rows are filtered unless asked for."""
    ds = rd.read_parquet(os.path.join(_ensure_link_tables(sf_dir), "links"))
    if with_sentinels:
        return ds
    return ds.filter(expr=f"dst_host != {_SENTINEL!r}")


def _links_as_n(sf_dir: str) -> rd.Dataset:
    """Link table projected to the (src_host, dst_host, n) shape the
    aggregate consumers (concentration, Gini, weighted rank) share."""
    return _links_dataset(sf_dir).map_batches(
        lambda t: pa.table(
            {
                "src_host": t["src_host"],
                "dst_host": t["dst_host"],
                "n": t["n_links"],
            }
        ),
        batch_format="pyarrow",
    )


def wg_host_graph(sf_dir: str):
    """Host->host link multiplicities (internal links appear as self-edges).
    First consumer of the materialized link table — the bench segment for
    this query times the one-per-corpus build."""
    return _links_dataset(sf_dir).sort(["src_host", "dst_host"])


def wg_host_graph_incremental(sf_dir: str):
    """cli update's link-table face: the base half's PERSISTED aggregate
    (never re-scanned) + pair partials over ONLY the delta half's pages,
    summed by sum_link_pairs — update cost scales with the
    delta scan + O(host-pairs), not the corpus, and the result must equal
    wg_host_graph's full-corpus output (same SQL oracle)."""
    import glob

    pages_dir = synth.ensure_pages(sf_of(sf_dir))
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    mid = len(files) // 2
    base_root = _ensure_link_tables_for(
        files[:mid], links_root(sf_dir) + "_half_a"
    )

    return (
        sum_link_pairs(
            rd.read_parquet(os.path.join(base_root, "links")),
            _page_pairs(files[mid:]),
        )
        .filter(expr=f"dst_host != {_SENTINEL!r}")
        .sort(["src_host", "dst_host"])
    )


def _host_graph(sf_dir: str):
    """(edges, nodes) id datasets of the distinct external host graph —
    shared by wg_host_rank and wg_host_hits. Derived from the materialized
    link table: edges are the external (src != dst) pair rows; the node
    set is every page host (sentinel rows) plus every external
    destination — identical to the former direct-from-HTML construction
    (internal destinations equal their page host, already present)."""

    def edge_rows(t: pa.Table) -> pa.Table:
        pairs: set[tuple[int, int]] = set()
        hosts: set[int] = set()
        for src_h, dst_h in zip(
            t["src_host"].to_pylist(), t["dst_host"].to_pylist()
        ):
            src = host_id(src_h)
            hosts.add(src)
            if dst_h == _SENTINEL or dst_h == src_h:
                continue
            dst = host_id(dst_h)
            hosts.add(dst)
            pairs.add((src, dst))
        s = [p[0] for p in pairs] + sorted(hosts)
        o = [p[1] for p in pairs] + sorted(hosts)
        is_edge = [True] * len(pairs) + [False] * len(hosts)
        return pa.table(
            {
                "subj_id": pa.array(s, pa.int64()),
                "obj_id": pa.array(o, pa.int64()),
                "is_edge": pa.array(is_edge, pa.bool_()),
            }
        )

    tagged = (
        _links_dataset(sf_dir, with_sentinels=True)
        .map_batches(edge_rows, batch_format="pyarrow")
        .materialize()
    )
    edges = tagged.filter(expr="is_edge == True").select_columns(
        ["subj_id", "obj_id"]
    )
    nodes = (
        tagged.groupby("subj_id")
        .aggregate(Count(alias_name="_n"))
        # re-bound partitions BEFORE the projection map: the groupby emits
        # empty partitions on this host-dimension input and a map stage
        # whose task input is entirely empty yields schemaless empty
        # blocks (the "new schema: ." warning class)
        .repartition(max(8, cluster_cpus()))
        .map_batches(
            lambda t: pa.table({"entity_id": t["subj_id"]}),
            batch_format="pyarrow",
        )
    )
    return edges, nodes


def _host_labels_for(sf_dir: str, want: set[int]) -> dict[int, str]:
    """Resolve a SMALL id set back to host strings: broadcast the id set,
    filter the link table's host occurrences distributed, collect |want|
    rows — never a host dictionary."""
    want_ref = ray.put(want)

    def host_labels(t: pa.Table, ref=want_ref) -> pa.Table:
        w = ray.get(ref) if hasattr(ref, "hex") else ref
        seen: dict[int, str] = {}
        for src_h, dst_h in zip(
            t["src_host"].to_pylist(), t["dst_host"].to_pylist()
        ):
            hid = host_id(src_h)
            if hid in w:
                seen[hid] = src_h
            if dst_h != _SENTINEL:
                did = host_id(dst_h)
                if did in w:
                    seen[did] = dst_h
        return pa.table(
            {
                "hid": pa.array(list(seen.keys()), pa.int64()),
                "host": pa.array(list(seen.values()), pa.string()),
            }
        )

    labels: dict[int, str] = {}
    for b in (
        _links_dataset(sf_dir, with_sentinels=True)
        .map_batches(host_labels, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        labels.update(zip(b["hid"].to_pylist(), b["host"].to_pylist()))
    return labels


def wg_host_rank(sf_dir: str):
    """PageRank over the distinct external host graph: (host, rank_fp),
    top PR_TOP by (rank desc, host-id asc)."""
    from .graphalgo import pagerank

    edges, nodes = _host_graph(sf_dir)
    top = pagerank(edges, nodes)  # (entity_id, rank_fp), PR_TOP rows
    top_t = pa.concat_tables(
        [b for b in top.iter_batches(batch_format="pyarrow", batch_size=None)]
    )
    labels = _host_labels_for(sf_dir, set(top_t["entity_id"].to_pylist()))
    order = np.lexsort(
        (
            top_t["entity_id"].to_numpy(zero_copy_only=False),
            -top_t["rank_fp"].to_numpy(zero_copy_only=False),
        )
    )
    ids = top_t["entity_id"].to_numpy(zero_copy_only=False)[order]
    ranks = top_t["rank_fp"].to_numpy(zero_copy_only=False)[order]
    return pa.table(
        {
            "host": pa.array([labels[int(i)] for i in ids], pa.string()),
            "rank_fp": pa.array(ranks, pa.int64()),
        }
    )


def wg_host_hits(sf_dir: str):
    """HITS hubs/authorities over the external host graph — the algorithm's
    native domain: authorities are heavily-cited hosts, hubs are directory
    pages citing many authorities. (host, auth_fp, hub_fp), top HITS_TOP
    by (auth desc, host-id asc); same integer fixed-point engine as
    kg_hits."""
    from .graphalgo import hits

    edges, nodes = _host_graph(sf_dir)
    top = hits(edges, nodes)  # (entity_id, auth_fp, hub_fp)
    top_t = pa.concat_tables(
        [b for b in top.iter_batches(batch_format="pyarrow", batch_size=None)]
    )
    labels = _host_labels_for(sf_dir, set(top_t["entity_id"].to_pylist()))
    return pa.table(
        {
            "host": pa.array(
                [labels[int(i)] for i in top_t["entity_id"].to_pylist()],
                pa.string(),
            ),
            "auth_fp": top_t["auth_fp"],
            "hub_fp": top_t["hub_fp"],
        }
    )


QUERIES = {
    "wg_outlinks": wg_outlinks,
    "wg_host_graph": wg_host_graph,
    "wg_host_graph_incremental": wg_host_graph_incremental,
    "wg_host_rank": wg_host_rank,
}


def wg_reciprocity(sf_dir: str):
    """Host-graph reciprocity: of the distinct EXTERNAL directed host pairs
    (src != dst), how many have the reverse edge too — one row
    (n_pairs, n_recip, recip_ppm). Shape: the per-block pair combiner,
    a distinct-pair groupby on the UNORDERED key carrying a direction
    bitmask partial, and a two-int global reduce."""
    from ray.data.aggregate import Sum

    def unordered(t: pa.Table) -> pa.Table:
        # link-table rows are globally distinct (src, dst) pairs, so each
        # direction bit is emitted exactly once — no dedup pass needed
        lo, hi, dmask = [], [], []
        for src, dst in zip(
            t["src_host"].to_pylist(), t["dst_host"].to_pylist()
        ):
            if dst == src:
                continue
            a, b = (src, dst) if src < dst else (dst, src)
            lo.append(a)
            hi.append(b)
            dmask.append(1 if src < dst else 2)
        return pa.table(
            {
                "lo": pa.array(lo, pa.string()),
                "hi": pa.array(hi, pa.string()),
                "dmask": pa.array(dmask, pa.int64()),
            }
        )

    def tally(t: pa.Table) -> pa.Table:
        import numpy as np

        m = t["m"].combine_chunks().to_numpy(zero_copy_only=False)
        fwd = (m & 1) > 0
        rev = (m & 2) > 0
        n_dir = int(fwd.sum() + rev.sum())
        n_rec = int((fwd & rev).sum()) * 2  # both directions count
        return pa.table(
            {
                "n_pairs_p": pa.array([n_dir], pa.int64()),
                "n_recip_p": pa.array([n_rec], pa.int64()),
            }
        )

    dedup = (
        _links_dataset(sf_dir)
        .map_batches(unordered, batch_format="pyarrow")
        .groupby(["lo", "hi"])
        .aggregate(Sum("dmask", alias_name="m"))
    )
    out = dedup.map_batches(tally, batch_format="pyarrow").sum(
        ["n_pairs_p", "n_recip_p"]
    )
    n_pairs = int(out["sum(n_pairs_p)"])
    n_recip = int(out["sum(n_recip_p)"])
    return pa.table(
        {
            "n_pairs": pa.array([n_pairs], pa.int64()),
            "n_recip": pa.array([n_recip], pa.int64()),
            "recip_ppm": pa.array(
                [(1_000_000 * n_recip) // n_pairs if n_pairs else 0], pa.int64()
            ),
        }
    )


QUERIES["wg_reciprocity"] = wg_reciprocity


def wg_host_quality(sf_dir: str):
    """Per-host quality profile over the EXTRACTED page text: page count,
    high/low-quality page counts (q26's integer-exact bucket rules) and
    total tokens — the host-level signal a crawl-curation pipeline ranks
    and prunes domains by. Shape: reuses the KG pipeline's extracted-text
    parquet (resume-shared), per-block per-host partial sums (combiner),
    ONE host groupby. Oracle: SQL over the golden text parquet."""
    from ray.data.aggregate import Sum as _Sum

    from ..stages.textstats import _PUNCT_RE, _TOKEN_RE, LANG_STOPWORDS
    from . import kg
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    ds = kg.text_dataset(out, columns=["url", "text"])
    stop_set = frozenset(LANG_STOPWORDS["en"])

    def partials(t: pa.Table) -> pa.Table:
        agg: dict[str, list[int]] = {}
        for url, text in zip(t["url"].to_pylist(), t["text"].to_pylist()):
            host = host_of(url)
            lower = text.lower()
            toks = _TOKEN_RE.findall(lower)
            nt = len(toks)
            se = len(set(toks) & stop_set)
            npunct = len(_PUNCT_RE.findall(text))
            high = 1 if (nt >= 50 and se >= 3 and npunct * 4 <= nt) else 0
            low = 1 if (nt < 10 or se == 0) else 0
            a = agg.setdefault(host, [0, 0, 0, 0])
            a[0] += 1
            a[1] += high
            a[2] += low
            a[3] += nt
        hosts = sorted(agg)
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "n_pages_p": pa.array([agg[h][0] for h in hosts], pa.int64()),
                "n_high_p": pa.array([agg[h][1] for h in hosts], pa.int64()),
                "n_low_p": pa.array([agg[h][2] for h in hosts], pa.int64()),
                "tok_p": pa.array([agg[h][3] for h in hosts], pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": t["host"],
                "n_pages": t["n_pages"],
                "n_high": t["n_high"],
                "n_low": t["n_low"],
                "sum_tokens": t["sum_tokens"],
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("host")
        .aggregate(
            _Sum("n_pages_p", alias_name="n_pages"),
            _Sum("n_high_p", alias_name="n_high"),
            _Sum("n_low_p", alias_name="n_low"),
            _Sum("tok_p", alias_name="sum_tokens"),
        )
        .map_batches(finish, batch_format="pyarrow")
        .sort("host")
    )


QUERIES["wg_host_quality"] = wg_host_quality


ANCHOR_TOPK = 5
_ANCHOR_TERM_RE = None  # compiled lazily in workers


def _anchor_term_re():
    global _ANCHOR_TERM_RE
    if _ANCHOR_TERM_RE is None:
        import re

        _ANCHOR_TERM_RE = re.compile(r"[a-z0-9]+")
    return _ANCHOR_TERM_RE


def wg_anchor_terms(sf_dir: str):
    """Inverted anchor-text index: for every EXTERNAL link target host, the
    top-{ANCHOR_TOPK} terms other pages use when linking to it — the classic
    web-search relevance signal (anchor text describes the TARGET, not the
    source). Shape: per-block (term, dst_host) count partials (combiner),
    ONE groupby-sum, then the grouped top-k combiner (stages/topk.py) so
    the shuffle carries at most k rows per (block, host)."""
    from ..functions.weblinks import extract_anchor_links
    from ..stages.topk import grouped_topk

    ds = pages_dataset(sf_dir)
    term_re = _anchor_term_re()

    def partials(t: pa.Table) -> pa.Table:
        counts: dict[tuple[str, str], int] = {}
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            for _, h, internal, text in extract_anchor_links(url, html):
                if internal:
                    continue
                for tok in term_re.findall(text.lower()):
                    k = (tok, h)
                    counts[k] = counts.get(k, 0) + 1
        return pa.table(
            {
                "term": pa.array([k[0] for k in counts], pa.string()),
                "dst_host": pa.array([k[1] for k in counts], pa.string()),
                "n_p": pa.array(list(counts.values()), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["term", "dst_host"])
        .aggregate(Sum("n_p", alias_name="n"))
    )
    return grouped_topk(
        agg, "dst_host", by=["n", "term"], descending=[True, False], k=ANCHOR_TOPK
    ).select_columns(["dst_host", "term", "n"]).sort(["dst_host", "term"])


QUERIES["wg_anchor_terms"] = wg_anchor_terms
QUERIES["wg_host_hits"] = wg_host_hits


def wg_outlink_concentration(sf_dir: str):
    """Per-host outlink concentration: the Herfindahl index (sum of squared
    link-share) of each host's EXTERNAL destination distribution, integer
    ppm — hhi_ppm = 1e6 * sum(n_i^2) // N^2. High = the host funnels its
    links to few destinations (link-farm / mirror signal); low = diverse.
    Shape: reads the materialized (src,dst,n) link table, then per-block
    (src, sum_n, sum_n2, n_dst) partials -> ONE src groupby."""
    from ray.data.aggregate import Sum as _Sum

    graph = _links_as_n(sf_dir)

    def partials(t: pa.Table) -> pa.Table:
        import numpy as np

        src = np.asarray(t["src_host"].to_pylist(), dtype=object)
        dst = np.asarray(t["dst_host"].to_pylist(), dtype=object)
        n = t["n"].combine_chunks().to_numpy(zero_copy_only=False)
        ext = src != dst
        src, n = src[ext], n[ext].astype(np.int64)
        keys, inv = np.unique(src, return_inverse=True)
        # int64 accumulation via np.add.at — np.bincount(weights=...) sums
        # in float64 and silently loses exactness past 2^53 link counts.
        s1 = np.zeros(len(keys), np.int64)
        s2 = np.zeros(len(keys), np.int64)
        np.add.at(s1, inv, n)
        np.add.at(s2, inv, n * n)
        nd = np.bincount(inv, minlength=len(keys)).astype(np.int64)
        return pa.table(
            {
                "src_host": pa.array(keys.tolist(), pa.string()),
                "s1_p": pa.array(s1, pa.int64()),
                "s2_p": pa.array(s2, pa.int64()),
                "nd_p": pa.array(nd, pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        import numpy as np

        s1 = t["s1"].combine_chunks().to_numpy(zero_copy_only=False)
        s2 = t["s2"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src_host": t["src_host"],
                "n_ext_links": pa.array(s1, pa.int64()),
                "n_dst_hosts": pa.array(
                    t["nd"].combine_chunks().to_numpy(zero_copy_only=False),
                    pa.int64(),
                ),
                # Python-int arithmetic: 1e6 * sum(n_i^2) exceeds int64 once
                # a host carries ~3e6+ links to one destination; the HHI
                # itself is <= 1e6 so the RESULT always fits int64.
                "hhi_ppm": pa.array(
                    [
                        (1_000_000 * int(b)) // (int(a) * int(a))
                        for a, b in zip(s1.tolist(), s2.tolist())
                    ],
                    pa.int64(),
                ),
            }
        )

    return (
        graph.map_batches(partials, batch_format="pyarrow")
        .groupby("src_host")
        .aggregate(
            _Sum("s1_p", alias_name="s1"),
            _Sum("s2_p", alias_name="s2"),
            _Sum("nd_p", alias_name="nd"),
        )
        .map_batches(finish, batch_format="pyarrow")
        .sort("src_host")
    )


QUERIES["wg_outlink_concentration"] = wg_outlink_concentration


def wg_indegree_gini(sf_dir: str):
    """Inequality of the external-link indegree distribution across hosts —
    the exact integer Gini coefficient in ppm:
    gini = (2*sum(i*x_i) - (n+1)*sum(x)) / (n*sum(x)) over indegrees x
    sorted ascending (rank terms over equal values are order-invariant).
    The hub-host skew planted by synth makes this strongly nonzero.
    Shape: the distributed (src,dst) aggregate -> dst groupby sum (the only
    corpus-sized work); the final formula runs over the HOST-dimension-
    sized vector (1e8 rows at web scale — a driver sort of that vector is
    the documented simplification; the q61 block-offset prefix machinery
    is the fully-distributed fallback)."""
    from ray.data.aggregate import Sum as _Sum

    graph = _links_as_n(sf_dir)

    def ext_dst(t: pa.Table) -> pa.Table:
        import numpy as np

        src = np.asarray(t["src_host"].to_pylist(), dtype=object)
        dst = np.asarray(t["dst_host"].to_pylist(), dtype=object)
        n = t["n"].combine_chunks().to_numpy(zero_copy_only=False)
        ext = src != dst
        return pa.table(
            {
                "dst_host": pa.array(dst[ext].tolist(), pa.string()),
                "n_p": pa.array(n[ext], pa.int64()),
            }
        )

    ind = (
        graph.map_batches(ext_dst, batch_format="pyarrow")
        .groupby("dst_host")
        .aggregate(_Sum("n_p", alias_name="x"))
    )
    xs = np.sort(
        np.concatenate(
            [
                b["x"].to_numpy(zero_copy_only=False)
                for b in ind.iter_batches(batch_format="pyarrow", batch_size=None)
            ]
        ).astype(np.int64)
    )
    n = len(xs)
    sx = int(xs.sum())
    i = np.arange(1, n + 1, dtype=np.int64)
    gini_ppm = int((1_000_000 * (2 * int((i * xs).sum()) - (n + 1) * sx)) // (n * sx)) if n and sx else 0
    return pa.table(
        {
            "n_hosts": pa.array([n], pa.int64()),
            "total_links": pa.array([sx], pa.int64()),
            "gini_ppm": pa.array([gini_ppm], pa.int64()),
        }
    )


QUERIES["wg_indegree_gini"] = wg_indegree_gini


def wg_host_rank_weighted(sf_dir: str):
    """PageRank with rank mass split in proportion to LINK MULTIPLICITY
    (a page linking a host five times transfers 5x the mass a single link
    does) — the weighted variant over the external host graph. Weights are
    the distributed (src,dst) link counts; same integer fixed-point BSP
    engine (graphalgo.pagerank_weighted)."""
    from .graphalgo import pagerank_weighted

    graph = _links_as_n(sf_dir)

    def to_ids(t: pa.Table) -> pa.Table:
        src = t["src_host"].to_pylist()
        dst = t["dst_host"].to_pylist()
        n = t["n"].combine_chunks().to_numpy(zero_copy_only=False)
        s_ids, o_ids, w = [], [], []
        nodes = set()
        for a, b, k in zip(src, dst, n):
            ia, ib = host_id(a), host_id(b)
            nodes.add(ia)
            nodes.add(ib)
            if a != b:
                s_ids.append(ia)
                o_ids.append(ib)
                w.append(int(k))
        node_l = sorted(nodes)
        return pa.table(
            {
                "subj_id": pa.array(s_ids + node_l, pa.int64()),
                "obj_id": pa.array(o_ids + node_l, pa.int64()),
                "w": pa.array(w + [0] * len(node_l), pa.int64()),
                "is_edge": pa.array(
                    [True] * len(s_ids) + [False] * len(node_l), pa.bool_()
                ),
            }
        )

    tagged = graph.map_batches(to_ids, batch_format="pyarrow").materialize()
    edges = tagged.filter(expr="is_edge == True").select_columns(
        ["subj_id", "obj_id", "w"]
    )
    nodes = (
        tagged.groupby("subj_id")
        .aggregate(Count(alias_name="_n"))
        .map_batches(
            lambda t: pa.table({"entity_id": t["subj_id"]}),
            batch_format="pyarrow",
        )
    )
    top = pagerank_weighted(edges, nodes)
    top_t = pa.concat_tables(
        [b for b in top.iter_batches(batch_format="pyarrow", batch_size=None)]
    )
    labels = _host_labels_for(sf_dir, set(top_t["entity_id"].to_pylist()))
    return pa.table(
        {
            "host": pa.array(
                [labels[int(i)] for i in top_t["entity_id"].to_pylist()],
                pa.string(),
            ),
            "rank_fp": top_t["rank_fp"],
        }
    )


QUERIES["wg_host_rank_weighted"] = wg_host_rank_weighted


# ---------------------------------------------------------------------------
# wg_cocitation: host pairs ranked by SHARED OUTBOUND DESTINATIONS — the
# co-citation similarity signal (hosts linking the same places are
# topically related; Small 1973 co-citation applied to the host graph).
# Third consumer of the materialized link table. Destinations linked by
# more than COCITE_CAP source hosts are dropped before pair generation —
# the hot-posting rule: a destination half the web links to (CDN, search
# engine) carries no co-citation signal but would generate quadratic
# pairs. Shape: links -> distinct external (dst, src) rows -> ONE dst
# groupby with capped in-group pair emission -> pair-count groupby ->
# global top-k.
# ---------------------------------------------------------------------------

COCITE_CAP = 64
COCITE_TOP = 20


def wg_cocitation(sf_dir: str):
    """(host_a, host_b, n_shared_dsts) top COCITE_TOP by (n desc, pair)."""
    import pandas as pd

    def ext_rows(t: pa.Table) -> pa.Table:
        keep_s, keep_d = [], []
        for s, d in zip(
            t["src_host"].to_pylist(), t["dst_host"].to_pylist()
        ):
            if d != s:
                keep_s.append(s)
                keep_d.append(d)
        return pa.table(
            {
                "dst": pa.array(keep_d, pa.string()),
                "src": pa.array(keep_s, pa.string()),
            }
        )

    def pairs(df: "pd.DataFrame") -> pa.Table:
        hosts = sorted(set(df["src"]))
        if len(hosts) < 2 or len(hosts) > COCITE_CAP:
            return pa.schema(
                [("host_a", pa.string()), ("host_b", pa.string()),
                 ("n_p", pa.int64())]
            ).empty_table()
        i, j = np.triu_indices(len(hosts), 1)
        hv = np.asarray(hosts, dtype=object)
        return pa.table(
            {
                "host_a": pa.array(hv[i].tolist(), pa.string()),
                "host_b": pa.array(hv[j].tolist(), pa.string()),
                "n_p": pa.array(np.ones(len(i), dtype=np.int64), pa.int64()),
            }
        )

    counted = (
        _links_dataset(sf_dir)
        .map_batches(ext_rows, batch_format="pyarrow")
        .groupby("dst")
        .map_groups(pairs, batch_format="pandas")
        .groupby(["host_a", "host_b"])
        .aggregate(Sum("n_p", alias_name="n_shared_dsts"))
    )
    rows = counted.take_all()  # pair-bounded (<= postings * cap^2 / 2)
    rows.sort(key=lambda r: (-r["n_shared_dsts"], r["host_a"], r["host_b"]))
    top = rows[:COCITE_TOP]
    return pa.table(
        {
            "host_a": pa.array([r["host_a"] for r in top], pa.string()),
            "host_b": pa.array([r["host_b"] for r in top], pa.string()),
            "n_shared_dsts": pa.array(
                [r["n_shared_dsts"] for r in top], pa.int64()
            ),
        }
    )


QUERIES["wg_cocitation"] = wg_cocitation
