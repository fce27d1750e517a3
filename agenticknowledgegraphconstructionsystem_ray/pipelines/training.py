"""Training-data pipeline operators as driver queries: dedup family,
similarity search, text analysis, multimodal plumbing, large-large join.

SQL-expressible ones carry DuckDB oracles (list_intersect / list_cosine /
regexp kernels mirror the Python kernels exactly, with integer/ppm outputs);
MinHash-LSH, SimHash, fingerprinting and IVF are approximate/hash-based ->
rows-only driver checks + strong pytest oracles on planted corpora.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count, Sum

from ..sources.tables import read_table
from ..stages import dedup, multimodal, similarity, textstats
from .analytics import cents, cents_np
from ..stages.textstats import LANG_ORDER, LANG_STOPWORDS


# ---------------------------------------------------------------------------
# large x large hash join (J2 at scale — both sides shuffled, Dataset.join)
# ---------------------------------------------------------------------------

def q22_orders_lineitem_join(sf_dir: str):
    """orders ⋈ lineitem (both large) via Ray's hash-partitioned join ->
    revenue per order priority, integer cents."""
    import pyarrow.compute as pc

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        disc = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return pa.table({"l_orderkey": t["l_orderkey"], "rev_c": cents(disc)})

    from ..runtime import cluster_cpus

    li_c = li.map_batches(prep, batch_format="pyarrow")
    # partition count scales with the cluster so each CPU gets ~1 join
    # partition; hardcoding it caps parallelism on bigger clusters
    n_parts = max(8, cluster_cpus())
    joined = orders.join(
        li_c, join_type="inner", num_partitions=n_parts,
        on=("o_orderkey",), right_on=("l_orderkey",),
    )
    return (
        joined.groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_items"), Sum("rev_c", alias_name="revenue_c"))
    )


# ---------------------------------------------------------------------------
# ta_bucketed_join: sort-merge-bucket (SMB) layout join — the shuffle-free
# repeat-join pattern. Layout ONCE: both sides written as hash-bucketed
# hive-partitioned Parquet (bkt = orderkey % SMB_BUCKETS; marker-guarded
# atomic build, so repeat queries reuse it). Join: one independent task per
# bucket, each doing a PRUNED columnar read of exactly its own
# (orders, lineitem) bucket pair + a local Arrow hash join + a per-priority
# combiner partial — ZERO all-to-all at query time; the only shuffle left
# is the 5-row priority merge. This is the layout-amortization answer to
# q22's per-query shuffle join: pick ONE partitioning key at ingest,
# co-locate both tables by it, and every subsequent join on that key is
# embarrassingly parallel (bucket count scales the parallelism; at 100 TB
# the bucketed write happens once per crawl snapshot and replaces a
# corpus-sized exchange on EVERY downstream join). Identical result to
# q22 — same SQL oracle.
# ---------------------------------------------------------------------------

SMB_BUCKETS = 32


_SMB_COLTYPES = {
    "o_orderkey": pa.int64(),
    "o_orderpriority": pa.string(),
    "l_orderkey": pa.int64(),
    "rev_c": pa.int64(),
}


def _read_bucket(root: str, table: str, b: int, columns: list[str]) -> pa.Table:
    """Pruned read of exactly ONE bucket partition directory — each task
    touches only its own bkt=<b> subtree (no full-layout listing per
    task). Missing directory = empty bucket, typed empty table."""
    import os

    import pyarrow.dataset as pads

    d = os.path.join(root, table, f"bkt={b}")
    if not os.path.isdir(d):
        # Distinguish a legitimately empty bucket (valid layout, no rows
        # hashed to it) from a layout that vanished mid-query (concurrent
        # rebuild / contract-mismatch rmtree): a valid layout always has
        # its _DONE marker. Raising here turns a silently-partial join
        # result into a retryable error.
        if not os.path.exists(os.path.join(root, "_DONE")):
            raise FileNotFoundError(
                f"SMB layout {root} lost its _DONE marker while reading "
                f"{table}/bkt={b} — layout removed or rebuilt mid-query; "
                "re-run the query"
            )
        return pa.schema(
            [(c, _SMB_COLTYPES[c]) for c in columns]
        ).empty_table()
    return pads.dataset(d).to_table(columns=columns)


def smb_root(sf_dir: str) -> str:
    """Cache root of the SMB layout for a corpus — the one place the path
    scheme lives (bench and tests clear caches through this)."""
    import os

    from ..state.artifacts import cache_root

    return cache_root("smb", os.path.basename(os.path.normpath(sf_dir)))


def _smb_layout(sf_dir: str) -> str:
    """Build (or reuse) the bucketed layout for orders + prepped lineitem,
    cached through state.artifacts.ensure_artifact; the _DONE contract
    records the bucketing (key, bucket count) the join tasks rely on."""
    from ..sources.tables import table_path
    from ..state.artifacts import ensure_artifact, source_fingerprint

    # src: sizes/mtimes of the two bucketed tables — a swapped corpus with
    # a colliding basename rebuilds instead of serving a stale layout.
    contract = {
        "buckets": SMB_BUCKETS,
        "key": "orderkey",
        "src": source_fingerprint(
            table_path(sf_dir, "orders"), table_path(sf_dir, "lineitem")
        ),
    }
    return ensure_artifact(
        smb_root(sf_dir), contract, lambda tmp: _build_smb(tmp, sf_dir))


def _build_smb(tmp: str, sf_dir: str) -> None:
    import os

    def bucket_orders(t: pa.Table) -> pa.Table:
        # SMB_BUCKETS is a power of two -> key % B == key & (B-1)
        bkt = pc.cast(
            pc.bit_wise_and(t["o_orderkey"], pa.scalar(SMB_BUCKETS - 1)),
            pa.int64(),
        )
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_orderpriority": t["o_orderpriority"],
                "bkt": bkt,
            }
        )

    def bucket_lineitem(t: pa.Table) -> pa.Table:
        disc = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        bkt = pc.cast(
            pc.bit_wise_and(t["l_orderkey"], pa.scalar(SMB_BUCKETS - 1)),
            pa.int64(),
        )
        return pa.table(
            {"l_orderkey": t["l_orderkey"], "rev_c": cents(disc), "bkt": bkt}
        )

    read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"]).map_batches(
        bucket_orders, batch_format="pyarrow"
    ).write_parquet(os.path.join(tmp, "orders"), partition_cols=["bkt"])
    read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(bucket_lineitem, batch_format="pyarrow").write_parquet(
        os.path.join(tmp, "lineitem"), partition_cols=["bkt"]
    )


def ta_bucketed_join(sf_dir: str):
    """q22's aggregate computed over the SMB layout: per-bucket local joins,
    no join-time shuffle. See the section comment for the scale contract."""
    root = _smb_layout(sf_dir)

    def join_bucket(t: pa.Table) -> pa.Table:
        prios: list[str] = []
        n_p: list[int] = []
        rev_p: list[int] = []
        for b in t["bkt"].to_pylist():
            o = _read_bucket(
                root, "orders", b, ["o_orderkey", "o_orderpriority"]
            )
            li = _read_bucket(root, "lineitem", b, ["l_orderkey", "rev_c"])
            j = li.join(
                o, keys=["l_orderkey"], right_keys=["o_orderkey"],
                join_type="inner",
            )
            g = pa.TableGroupBy(j, "o_orderpriority").aggregate(
                [("rev_c", "sum"), ("rev_c", "count")]
            )
            prios.extend(g["o_orderpriority"].to_pylist())
            rev_p.extend(g["rev_c_sum"].to_pylist())
            n_p.extend(g["rev_c_count"].to_pylist())
        return pa.table(
            {
                "o_orderpriority": pa.array(prios, pa.string()),
                "n_p": pa.array(n_p, pa.int64()),
                "rev_p": pa.array(rev_p, pa.int64()),
            }
        )

    buckets = rd.from_items([{"bkt": i} for i in range(SMB_BUCKETS)])
    return (
        buckets.map_batches(join_bucket, batch_size=1, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(
            Sum("n_p", alias_name="n_items"),
            Sum("rev_p", alias_name="revenue_c"),
        )
    )


TOPN_ORDERS = 10


def ta_bucketed_topn(sf_dir: str):
    """Second consumer of the SAME bucketed layout: top-N orders by
    revenue. Each bucket task groupby-sums ITS OWN lineitem bucket locally
    and keeps only its top N (a per-bucket combiner — correct because every
    orderkey lives in exactly one bucket, the layout's co-location
    guarantee), so the driver merge sees B·N candidate rows regardless of
    corpus size. Demonstrates the layout-amortization contract: one
    partitioned write at ingest serves BOTH the join (ta_bucketed_join)
    and this rollup with zero query-time all-to-all."""
    root = _smb_layout(sf_dir)

    def topn_bucket(t: pa.Table) -> pa.Table:
        keys: list[int] = []
        revs: list[int] = []
        for b in t["bkt"].to_pylist():
            li = _read_bucket(root, "lineitem", b, ["l_orderkey", "rev_c"])
            if not li.num_rows:
                continue
            g = pa.TableGroupBy(li, "l_orderkey").aggregate([("rev_c", "sum")])
            order = pc.sort_indices(
                g,
                sort_keys=[("rev_c_sum", "descending"), ("l_orderkey", "ascending")],
            )[:TOPN_ORDERS]
            top = g.take(order)
            keys.extend(top["l_orderkey"].to_pylist())
            revs.extend(top["rev_c_sum"].to_pylist())
        return pa.table(
            {
                "o_orderkey": pa.array(keys, pa.int64()),
                "revenue_c": pa.array(revs, pa.int64()),
            }
        )

    buckets = rd.from_items([{"bkt": i} for i in range(SMB_BUCKETS)])
    cand = buckets.map_batches(
        topn_bucket, batch_size=1, batch_format="pyarrow"
    ).take_all()  # B·N rows — bounded by bucket count, not corpus
    cand.sort(key=lambda r: (-r["revenue_c"], r["o_orderkey"]))
    top = cand[:TOPN_ORDERS]
    return pa.table(
        {
            "o_orderkey": pa.array([r["o_orderkey"] for r in top], pa.int64()),
            "revenue_c": pa.array([r["revenue_c"] for r in top], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# ta_global_shuffle: seeded deterministic corpus shuffle — the epoch-order
# randomization a training run applies before packing. Position = rank of
# md5(seed || doc_id): reproducible at any parallelism (hash rank is a
# property of the row, not of block order), verifiable in SQL, and
# shuffle-cost = ONE corpus-wide sort of (doc_id, 16-byte digest) rows —
# text never moves; the trainer reads docs by shuffled shard manifest.
# Emits (doc_id, shard, pos_in_shard) for SHUF_SHARDS equal-size shards
# (ragged tail in the last shard).
# ---------------------------------------------------------------------------

SHUF_SEED = "epoch0"
SHUF_SHARDS = 8


def ta_global_shuffle(sf_dir: str):
    import hashlib

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def key_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        hx = [
            hashlib.md5(f"{SHUF_SEED}:{i}".encode()).hexdigest() for i in ids
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "hx": pa.array(hx, pa.string()),
            }
        )

    keyed = ds.map_batches(key_rows, batch_format="pyarrow").sort("hx").materialize()

    # global rank via block-offset prefix scan (the q45 pack-offsets shape):
    # one int per block to the driver, then each block labels its rows from
    # its own offset REMOTELY — blocks never ride to the driver.
    import ray as _ray

    refs = keyed.to_arrow_refs()

    @_ray.remote
    def _blockrows(t: pa.Table) -> int:
        return t.num_rows

    @_ray.remote
    def _label(t: pa.Table, off: int, per_shard: int) -> pa.Table:
        if not t.num_rows or "doc_id" not in t.column_names:
            return pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("shard", pa.int64()),
                    ("pos_in_shard", pa.int64()),
                ]
            ).empty_table()
        rank = np.arange(off, off + t.num_rows, dtype=np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "shard": pa.array(rank // per_shard, pa.int64()),
                "pos_in_shard": pa.array(rank % per_shard, pa.int64()),
            }
        )

    sizes = _ray.get([_blockrows.remote(r) for r in refs])
    n = int(sum(sizes))
    per_shard = max(1, (n + SHUF_SHARDS - 1) // SHUF_SHARDS)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]) if sizes else []
    return rd.from_arrow_refs(
        [
            _label.remote(r, int(o), per_shard)
            for r, o in zip(refs, offsets)
        ]
    ).sort("doc_id")


# ---------------------------------------------------------------------------
# ta_table_checksum: order-invariant content checksum — the anti-entropy
# primitive for verifying a replicated / re-partitioned / migrated copy of
# a table without moving it: checksum = Σ md5(doc_id ‖ ':' ‖ text)[:14 hex]
# mod (2^61−1). Addition is commutative, so the result is independent of
# block order and parallelism; per-block partials are two ints, so a
# 100-TB comparison ships O(blocks) ints per side. Mersenne-prime modulus
# keeps the running sum in int64-safe range while staying exactly
# reproducible in SQL via HUGEINT arithmetic.
# ---------------------------------------------------------------------------

_CKSUM_MOD = (1 << 61) - 1


def ta_table_checksum(sf_dir: str):
    import hashlib

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        s = 0
        for i, tx in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            hx = hashlib.md5(f"{i}:{tx}".encode()).hexdigest()
            s = (s + int(hx[:14], 16)) % _CKSUM_MOD
        return pa.table(
            {
                "n_p": pa.array([t.num_rows], pa.int64()),
                "s_p": pa.array([s], pa.int64()),
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(r["n_p"] for r in rows)
    s = sum(r["s_p"] for r in rows) % _CKSUM_MOD
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "checksum": pa.array([s], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# ta_pruned_scan: predicate + projection pushdown at the READ — the "prune
# at the read" contract made a first-class, oracle-checked operator. The
# filter is a pyarrow dataset expression handed to read_parquet, so it is
# evaluated by the Parquet fragment scanner against row-group/page
# statistics BEFORE blocks enter the object store: at 100 TB a one-year
# predicate over a time-partitioned crawl skips ~all files/row-groups and
# the pipeline never pays object-store traffic for the pruned rows (vs a
# post-read ds.filter, which ships every block first). Columns are pruned
# to the 4 of 11 the aggregate needs.
# ---------------------------------------------------------------------------

_PRUNE_LO = "1995-01-01"
_PRUNE_HI = "1996-01-01"


def ta_pruned_scan(sf_dir: str):
    """Revenue by return flag over one shipdate year — filter + projection
    pushed into the Parquet scan itself."""
    import datetime as _dt

    import pyarrow.dataset as pads

    from ..sources.tables import table_path

    lo = _dt.datetime.fromisoformat(_PRUNE_LO)
    hi = _dt.datetime.fromisoformat(_PRUNE_HI)
    ds = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def partial(t: pa.Table) -> pa.Table:
        disc = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return pa.table(
            {"l_returnflag": t["l_returnflag"], "rev_c": cents(disc)}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(
            Count(alias_name="n_items"), Sum("rev_c", alias_name="revenue_c")
        )
        .sort("l_returnflag")
    )


# ---------------------------------------------------------------------------
# n-gram (word-set) Jaccard near-dup with length blocking — SQL-checkable
# ---------------------------------------------------------------------------

_JACCARD_THRESHOLD_PPM = 800_000


def q23_ngram_jaccard_pairs(sf_dir: str):
    """Blocked pairwise word-set Jaccard (D-near-dup): block on n_chars,
    emit pairs with jaccard >= 0.8 as ppm ints."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def wordsets(t: pa.Table) -> pa.Table:
        ws = ["\x00".join(sorted(set(dedup.tokens_of(x)))) for x in t["text"].to_pylist()]
        return pa.table(
            {
                "bucket": t["n_chars"],
                "doc_id": t["doc_id"],
                "ws": pa.array(ws, pa.string()),
            }
        )

    def bucket_pairs(g):
        ids = g["doc_id"].tolist()
        sets_ = [set(w.split("\x00")) if w else set() for w in g["ws"].tolist()]
        order = np.argsort(ids, kind="stable")
        rows_a, rows_b, ppm = [], [], []
        for ii in range(len(order)):
            for jj in range(ii + 1, len(order)):
                a, b = order[ii], order[jj]
                inter = len(sets_[a] & sets_[b])
                union = len(sets_[a] | sets_[b])
                if union == 0:
                    continue
                val = 1_000_000.0 * inter / union
                if val >= _JACCARD_THRESHOLD_PPM:
                    rows_a.append(int(ids[a]))
                    rows_b.append(int(ids[b]))
                    ppm.append(int(val + 0.5))
        return {
            "doc_a": np.array(rows_a, dtype=np.int64),
            "doc_b": np.array(rows_b, dtype=np.int64),
            "jaccard_ppm": np.array(ppm, dtype=np.int64),
        }

    return (
        docs.map_batches(wordsets, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# embedding-cosine near-dup with label blocking — SQL-checkable
# ---------------------------------------------------------------------------

_COS_THRESHOLD = 0.3


def q24_embedding_near_dup(sf_dir: str):
    """Blocked pairwise cosine near-dup over the embedding column: pairs
    within the same label with cos >= threshold."""
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def pairs(g):
        ids = np.asarray(g["vec_id"].tolist(), dtype=np.int64)
        m = np.asarray(g["embedding"].tolist(), dtype=np.float64)
        order = np.argsort(ids, kind="stable")
        ids, m = ids[order], m[order]
        a_out, b_out = [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                na, nb = np.linalg.norm(m[i]), np.linalg.norm(m[j])
                sim = float(np.dot(m[i], m[j]) / (na * nb))
                if sim >= _COS_THRESHOLD:
                    a_out.append(int(ids[i]))
                    b_out.append(int(ids[j]))
        return {
            "vec_a": np.array(a_out, dtype=np.int64),
            "vec_b": np.array(b_out, dtype=np.int64),
        }

    return emb.groupby("label").map_groups(pairs, batch_format="pandas")


# ---------------------------------------------------------------------------
# text analysis (SQL-checkable trio)
# ---------------------------------------------------------------------------

def q25_langid(sf_dir: str):
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        textstats.langid_batch, batch_format="pyarrow"
    )



def q73_langid_confusion(sf_dir: str):
    """Language-ID confusion matrix: actual lang x detected lang with doc
    counts — the model-evaluation cross-tab for the q25 heuristic detector.
    Shape: the langid kernel + per-block (lang, detected) count combiner ->
    one tiny groupby. Output sorted by (lang, lang_detected)."""
    import pyarrow.compute as _pc

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def per_block(t: pa.Table) -> pa.Table:
        pred = textstats.langid_batch(t.select(["doc_id", "text"]))
        tab = pa.table(
            {"lang": t["lang"], "lang_detected": pred["lang_detected"]}
        )
        g = tab.group_by(["lang", "lang_detected"]).aggregate([("lang", "count")])
        return g.rename_columns(["lang", "lang_detected", "n_p"])

    out = (
        docs.map_batches(per_block, batch_format="pyarrow")
        .groupby(["lang", "lang_detected"])
        .aggregate(Sum("n_p", alias_name="n"))
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "lang": t["lang"],
                "lang_detected": t["lang_detected"],
                "n": _pc.cast(t["n"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).sort(["lang", "lang_detected"])


SPLIT_TEST_HEX = ("0", "1", "2", "3")  # q32's hold-out rule, on doc_id


def q75_split_leakage(sf_dir: str):
    """Eval-hygiene check: how many near-duplicate pairs STRADDLE the
    deterministic train/test split (a straddling near-dup leaks training
    content into evaluation). Split rule = q32's md5 last-hex-digit on
    doc_id; pairs = the MinHash near-dup pipeline. Output: one row
    (n_pairs, n_leaking)."""
    import hashlib as _hl

    from ..stages.dedup import minhash_near_dups

    pairs = minhash_near_dups(sf_dir)  # pa.Table (doc_a, doc_b, jaccard_ppm)

    def is_test(ids):
        return [
            _hl.md5(str(i).encode()).hexdigest()[-1] in SPLIT_TEST_HEX
            for i in ids
        ]

    ta = is_test(pairs["doc_a"].to_pylist())
    tb = is_test(pairs["doc_b"].to_pylist())
    n_leak = sum(1 for a, b in zip(ta, tb) if a != b)
    return pa.table(
        {
            "n_pairs": pa.array([pairs.num_rows], pa.int64()),
            "n_leaking": pa.array([n_leak], pa.int64()),
        }
    )


def q26_quality(sf_dir: str):
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        textstats.quality_batch, batch_format="pyarrow"
    )


def q27_token_classes(sf_dir: str):
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        textstats.token_classes_batch, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# JSON column parsing (M6 poison-tolerant parser over events.props)
# ---------------------------------------------------------------------------

def q28_events_props_json(sf_dir: str):
    """Parse the JSON ``props`` column per row (fence-strip + safe parse,
    never crash) and aggregate the extracted field per event type."""
    from ..functions.jsonsafe import parse_many

    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def parse(t: pa.Table) -> pa.Table:
        parsed, _errors = parse_many(t["props"].to_pylist())
        ks = [p.get("k") if isinstance(p, dict) else None for p in parsed]
        return pa.table(
            {
                "event_type": t["event_type"],
                "k": pa.array(ks, pa.int64()),
                "valid": pa.array([k is not None for k in ks], pa.bool_()),
            }
        )

    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        g = (
            t.append_column("vi", pc.cast(t["valid"], pa.int64()))
            .group_by("event_type")
            .aggregate([("k", "sum"), ("vi", "sum")])
        )
        return pa.Table.from_arrays(
            [
                g.column("event_type"),
                pc.cast(g.column("k_sum"), pa.int64()),
                pc.cast(g.column("vi_sum"), pa.int64()),
            ],
            names=["event_type", "sum_k_p", "n_valid_p"],
        )

    return (
        ds.map_batches(parse, batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("sum_k_p", alias_name="sum_k"),
            Sum("n_valid_p", alias_name="n_valid"),
        )
    )


# ---------------------------------------------------------------------------
# per-group top-k (O5 prompt-side truncation analog: map_groups head)
# ---------------------------------------------------------------------------

def q29_top_events_per_type(sf_dir: str):
    """Top-3 events by value per event type (O5;
    relationship-discovery-agent.ts:134-139) via the grouped-top-k combiner
    (stages/topk.py): each block pre-truncates to k rows per group before
    the shuffle, so giant groups never ship whole."""
    from ..stages.topk import grouped_topk

    ds = read_table(sf_dir, "events", columns=["event_type", "event_id", "value"])

    # cents BEFORE the top-k so map_groups is the terminal stage (Ray emits
    # schema-less empty pandas blocks from map_groups for empty partitions;
    # a downstream pyarrow stage can choke on them)
    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "event_id": t["event_id"],
                "value_c": cents(t["value"]),
            }
        )

    return grouped_topk(
        ds.map_batches(prep, batch_format="pyarrow"),
        group_key="event_type",
        by=["value_c", "event_id"], descending=[True, False], k=3,
    )


# ---------------------------------------------------------------------------
# sessionization (streaming-shaped workload per the Ray guide: events as an
# ordered, partitioned log — partition by user, sort by ts within the group,
# session = gap > timeout)
# ---------------------------------------------------------------------------

_SESSION_GAP_S = 3600


def q30_user_sessions(sf_dir: str):
    """Per-user session stats: sessions = 1 + count(gap > 1h) over the
    user's time-ordered events. Batch expression of the reference-class
    streaming windowing (SURVEY §2.10: the engine needs order-independent
    stages + explicit in-group ordering, not true watermarks)."""
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def sessions(g):
        ts = np.sort(g["ts"].to_numpy().astype("datetime64[us]").astype("int64"))
        gaps = np.diff(ts) > _SESSION_GAP_S * 1_000_000
        return {
            "user_id": np.array([int(g["user_id"].iloc[0])], dtype=np.int64),
            "n_events": np.array([len(ts)], dtype=np.int64),
            "n_sessions": np.array([1 + int(gaps.sum())], dtype=np.int64),
        }

    return ds.groupby("user_id").map_groups(sessions, batch_format="pandas")


def q32_stable_split(sf_dir: str):
    """Deterministic hash-based sampling — the stable train/test-split
    operator every training-data pipeline needs: membership depends only on
    the key (md5), never on partitioning, run order or RNG state. Selects
    ~25% of orders (md5 last hex digit in 0-3) and aggregates them."""
    import hashlib

    import pyarrow.compute as pc

    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def sample(t: pa.Table) -> pa.Table:
        keys = t["o_orderkey"].to_pylist()
        keep = pa.array(
            [hashlib.md5(str(k).encode()).hexdigest()[-1] in "0123" for k in keys]
        )
        f = t.filter(keep)
        return pa.table(
            {"o_orderkey": f["o_orderkey"], "price_c": cents(f["o_totalprice"])}
        )

    sampled = ds.map_batches(sample, batch_format="pyarrow")
    agg = sampled.aggregate(Sum("price_c"), Count())
    n = int(agg["count()"] or 0)
    total = int(agg["sum(price_c)"] or 0)
    return pa.table(
        {
            "n_sampled": pa.array([n], pa.int64()),
            "total_c": pa.array([total], pa.int64()),
        }
    )


def q31_sliding_window(sf_dir: str):
    """Per-event sliding-window count: events by the same user within the
    preceding hour (inclusive) — the sliding-window analog of q12's tumbling
    windows, expressed as per-user sorted ``searchsorted`` inside
    ``map_groups`` (guide: 'implement windows over the sorted group')."""
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def window_counts(g):
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        lo = np.searchsorted(ts, ts - 3600 * 1_000_000, side="left")
        # side="right" upper bound: SQL RANGE frames include all PEERS of
        # the current row (equal ts), not just preceding rows
        hi = np.searchsorted(ts, ts, side="right")
        n_in_window = hi - lo
        return {
            "event_id": g["event_id"].to_numpy(),
            "n_last_hour": n_in_window.astype(np.int64),
        }

    return ds.groupby("user_id").map_groups(window_counts, batch_format="pandas")


# ---------------------------------------------------------------------------
# multimodal plumbing (decode meta is SQL-checkable via derived fields)
# ---------------------------------------------------------------------------

def mm_decode_meta(sf_dir: str):
    return multimodal.decode_meta(sf_dir)


def mm_sampled_frames(sf_dir: str):
    return multimodal.sampled_frames(sf_dir)


def mm_sniff_meta(sf_dir: str):
    """REAL container-format metadata: valid PNG/GIF/BMP/JPEG/WAV files
    synthesized from documents, parsed back by the real header sniffers
    (marker-segment walk / chunk walk — functions/mediasniff.py)."""
    return multimodal.sniff_meta(sf_dir)


def mm_decode_pixels(sf_dir: str):
    """REAL pixel/sample decode: formula corpus encoded into valid PNG (all
    five scanline filters) / 24-bit BMP / PCM16 WAV files, decoded back by
    the actual codecs (functions/mediadecode.py) in an actor pool; golden
    oracle computes features formula-direct, so parity proves the codecs."""
    return multimodal.decode_pixels(sf_dir)


def mm_resize_stats(sf_dir: str):
    """REAL decode + exact integer 2x2 box downsample over the image subset."""
    return multimodal.resize_stats(sf_dir)


# ---------------------------------------------------------------------------
# rows-only (hash/approximate) operators
# ---------------------------------------------------------------------------

def dd_minhash_pairs(sf_dir: str):
    return dedup.minhash_near_dups(sf_dir, threshold=0.8)


def dd_minhash_incremental(sf_dir: str):
    """Crawl-increment near-dup: delta docs vs the persisted old-corpus band
    index (stages/dedup.minhash_near_dups_incremental) — old text is never
    re-banded, old x old pairs never re-verified. Oracle: the golden full
    pair table filtered to delta-involving pairs (equal by the
    bit-compatibility contract in the stage docstring)."""
    return dedup.minhash_near_dups_incremental(sf_dir, threshold=0.8)


def dd_simhash_pairs(sf_dir: str):
    return dedup.simhash_near_dups(sf_dir, max_hamming=3)


def dd_minhash_keep(sf_dir: str):
    """Near-dup pairs -> connected components -> per-document keep verdict
    (rep_id = min id of the component; the actual dedup decision table)."""
    return dedup.near_dup_keep(sf_dir)


def dd_simhash_keep(sf_dir: str):
    """Same clustering/keep operator driven by the SimHash pair source —
    near_dup_keep composes over any (doc_a, doc_b) pair table."""
    return dedup.near_dup_keep(
        sf_dir, pairs=dedup.simhash_near_dups(sf_dir, max_hamming=3)
    )


def tx_winnow_pairs(sf_dir: str):
    """Cross-document MOSS winnowing pairs (stages/textstats.winnow_pairs):
    documents sharing >= WN_MIN_SHARED selected fingerprints, with
    corpus-common fingerprints (posting list > WN_CAP) dropped before pair
    generation. Golden-file oracle (goldens._seq_winnow_pairs)."""
    return textstats.winnow_pairs(sf_dir)


def tx_fingerprints(sf_dir: str):
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        textstats.fingerprint_batch, batch_format="pyarrow"
    )


def tx_zlib_ratio(sf_dir: str):
    """Compression-ratio quality scoring (stages/textstats.zlib_ratio_batch):
    the standard cheap repetition/gibberish proxy a crawl pipeline runs
    beside q26's heuristics. Map-only, zero shuffles before the output sort.
    Golden-file oracle (goldens._seq_zlib_ratio, same shared kernel run
    sequentially — zlib output is deterministic per (input, level))."""
    return (
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(textstats.zlib_ratio_batch, batch_format="pyarrow")
        .sort("doc_id")
    )


def sk_hll_users(sf_dir: str):
    """HyperLogLog approximate distinct users per event_type (stages/sketch):
    4 KiB register partials per block instead of shuffling the key set."""
    from ..stages import sketch

    return sketch.approx_distinct_users(sf_dir)


def sk_hll_terms(sf_dir: str):
    """Corpus-wide approximate distinct token count (open vocabulary)."""
    from ..stages import sketch

    return sketch.approx_distinct_terms(sf_dir)


def sk_cms_terms(sf_dir: str):
    """Count-Min sketch point-frequency estimates for the exact top terms
    (stages/sketch.cms_term_counts): 32 KiB add-merged matrix partials; the
    exact counts ride along as the soundness certificate (est >= exact).
    Golden-file oracle (goldens._seq_cms, same kernel sequentially)."""
    from ..stages import sketch

    return sketch.cms_term_counts(sf_dir)


def ann_brute_topk(sf_dir: str):
    return similarity.brute_force_topk(sf_dir, query_ids=[0, 1, 2], k=10)


def ann_pq_topk(sf_dir: str):
    """Product-quantization approximate top-k (stages/similarity.pq_topk):
    per-subspace integer Lloyd's codebooks + LUT scoring — the vector-
    compression scale path. Golden-file oracle (goldens._seq_pq)."""
    return similarity.pq_topk(sf_dir)


def ml_kmeans(sf_dir: str):
    """Distributed integer-exact Lloyd's k-means over the embeddings table
    (stages/similarity.kmeans_assign); golden-file oracle goldens._seq_kmeans
    proves bit-exact parity with a sequential recomputation."""
    from ..stages.similarity import kmeans_assign

    return kmeans_assign(sf_dir)


def ann_ivf_topk(sf_dir: str):
    return similarity.ivf_topk(sf_dir, query_ids=[0, 1, 2], k=10)


def ann_lsh_topk(sf_dir: str):
    """Random-hyperplane LSH-bucketed approximate top-k
    (stages/similarity.lsh_topk): seeded sign-code bucketing + Hamming-1
    multiprobe — the training-free ANN scale path. Golden-file oracle
    (goldens._seq_lsh_topk) proves bit-exact parity."""
    return similarity.lsh_topk(sf_dir, query_ids=[0, 1, 2], k=10)


def ml_pca_var(sf_dir: str):
    """PCA explained-variance spectrum over the embeddings table
    (stages/similarity.pca_explained_var): per-block integer (count, sum,
    X^T X) moment partials -> exact Python-int driver merge -> one 64x64
    eigensolve. Golden-file oracle (goldens._seq_pca) proves bit-exact
    parity at any parallelism."""
    from ..stages.similarity import pca_explained_var

    return pca_explained_var(sf_dir)


def ml_knn(sf_dir: str):
    """kNN label classification (stages/similarity.knn_classify): exact
    per-block top-k combiner scan + one broadcast-filtered label fetch of
    only the involved ids + deterministic majority vote. Golden-file oracle
    (goldens._seq_knn)."""
    from ..stages.similarity import knn_classify

    return knn_classify(sf_dir)


def ml_ridge(sf_dir: str):
    """Distributed exact ridge-regression fit of label ~ embedding
    (stages/similarity.ridge_fit) — TRAINS the linear quality-classifier
    weights that q47 only applies: integer normal-equation moments per
    block, arbitrary-precision driver merge, one (dim+1)-square solve.
    Golden-file oracle (goldens._seq_ridge)."""
    from ..stages.similarity import ridge_fit

    return ridge_fit(sf_dir)


def ann_pq_rerank(sf_dir: str):
    """PQ shortlist + exact cosine re-rank (stages/similarity.pq_rerank_topk)
    — the production ANN recipe that closes code-only scoring's recall gap.
    Golden-file oracle (goldens._seq_pq_rerank)."""
    return similarity.pq_rerank_topk(sf_dir)


def ann_incremental_topk(sf_dir: str):
    """IVF top-k over the INCREMENTALLY-built persisted index
    (stages/annindex.ensure_ann_index_incremental): quantizers trained
    once on the base half and frozen, the delta coded by a delta-only
    pass appended beside the untouched base files — the
    dd_minhash_incremental crawl-increment shape for the vector family.
    Golden-file oracle (goldens._seq_ann_incremental): bit-identical to
    one-pass coding with the same frozen quantizers."""
    from ..stages.annindex import incremental_ivf_topk

    return incremental_ivf_topk(sf_dir)


def ann_ivfpq_rerank(sf_dir: str):
    """IVFPQ + exact refine (stages/similarity.ivfpq_rerank_topk) — the
    FAISS-style production composition: IVF probe bounds the scan, PQ codes
    score the probed slice, exact cosine re-ranks the shortlist.
    Golden-file oracle (goldens._seq_ivfpq_rerank)."""
    return similarity.ivfpq_rerank_topk(sf_dir)


def ann_recall(sf_dir: str):
    """Recall@k evaluation of every approximate index against the exact
    brute-force ground truth — the index-quality report a pipeline consults
    before trading exactness for scan cost (the recall/QPS axis every ANN
    paper plots). Runs each method's own distributed scan, then compares
    ONLY the result lists: driver state is bounded by
    methods x |queries| x k rows (30 per method here), never corpus-sized.

    Output: (method, query_id, k, hits, recall_ppm) — hits = |approx top-k
    ∩ exact top-k|, recall_ppm = hits * 1e6 // k. Oracle: the same set
    intersection in SQL, exact side recomputed independently by DuckDB's
    cosine window, approximate sides read from the sequential goldens."""
    qids, k = [0, 1, 2], 10
    truth: dict[int, set[int]] = {q: set() for q in qids}
    brute = similarity.brute_force_topk(sf_dir, qids, k=k)
    for q, v in zip(
        brute["query_id"].to_pylist(), brute["vec_id"].to_pylist()
    ):
        truth[q].add(v)

    methods = {
        "ivf": similarity.ivf_topk(sf_dir, qids, k=k),
        "ivfpq_rerank": similarity.ivfpq_rerank_topk(sf_dir, qids, k=k),
        "lsh": similarity.lsh_topk(sf_dir, qids, k=k),
        "pq": similarity.pq_topk(sf_dir, qids, k=k),
        "pq_rerank": similarity.pq_rerank_topk(sf_dir, qids, k=k),
    }
    rows = []
    for name in sorted(methods):
        t = methods[name]
        got: dict[int, set[int]] = {q: set() for q in qids}
        for q, v in zip(
            t["query_id"].to_pylist(), t["vec_id"].to_pylist()
        ):
            got[q].add(v)
        for q in qids:
            hits = len(got[q] & truth[q])
            rows.append((name, q, k, hits, hits * 1_000_000 // k))
    return pa.table(
        {
            "method": pa.array([r[0] for r in rows], pa.string()),
            "query_id": pa.array([r[1] for r in rows], pa.int64()),
            "k": pa.array([r[2] for r in rows], pa.int64()),
            "hits": pa.array([r[3] for r in rows], pa.int64()),
            "recall_ppm": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


def ml_quantize(sf_dir: str):
    """Per-dimension int8 scalar-quantization profile of the embedding
    corpus (stages/similarity.quantize_int8_stats): learn (min, max) per
    dim, code to 0..255, report the EXACT integer reconstruction error —
    the compression-loss audit before an ANN index switches to 1-byte
    codes. One float->fixed bridge shared verbatim with the SQL oracle;
    everything after it is int64, so parity is bit-exact."""
    from ..stages.similarity import quantize_int8_stats

    return quantize_int8_stats(sf_dir)


def ml_nbayes(sf_dir: str):
    """Hashing-trick multinomial Naive Bayes language classifier — TRAIN
    distributed, APPLY distributed, all-integer (functions/nbayes.py has
    the math; CCNet-style trained corpus classifier).

    Shape: one pass over the train split emits per-block (lang, bucket, n)
    partial counts (bucket -1 carries the per-class doc count, so priors
    ride the same aggregation) -> ONE groupby over at most
    classes*(N_BUCKETS+1) keys -> the fixed-size model (classes x 256 int
    matrix) broadcasts via ray.put -> a stateless map scores the test
    split with exact big-int argmax. Nothing vocabulary-sized anywhere:
    the hashing trick bounds model, shuffle keys and driver state at
    O(classes * 256) regardless of corpus vocabulary.

    Oracle: golden-file sequential recompute (goldens._seq_nbayes) — the
    pipeline's count aggregation is order-free integer addition and the
    argmax is exact rational comparison, so parity is bit-exact at any
    parallelism."""
    import ray

    from collections import Counter

    from ..functions import nbayes

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def train_partials(t: pa.Table) -> pa.Table:
        memo: dict[str, int] = {}
        acc: Counter = Counter()
        for doc_id, text, lang in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist(), t["lang"].to_pylist()
        ):
            if nbayes.is_test_doc(doc_id):
                continue
            acc[(lang, -1)] += 1  # per-class doc count (prior)
            for b in nbayes.doc_buckets(text, memo):
                acc[(lang, b)] += 1
        keys = list(acc)
        return pa.table(
            {
                "lang": pa.array([k[0] for k in keys], pa.string()),
                "bucket": pa.array([k[1] for k in keys], pa.int64()),
                "n": pa.array([acc[k] for k in keys], pa.int64()),
            }
        )

    model_rows = (
        docs.map_batches(train_partials, batch_format="pyarrow")
        .groupby(["lang", "bucket"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    n_docs: dict[str, int] = {}
    cnt: dict[tuple[str, int], int] = {}
    tot: dict[str, int] = {}
    for r in model_rows:
        if r["bucket"] == -1:
            n_docs[r["lang"]] = r["n"]
        else:
            cnt[(r["lang"], r["bucket"])] = r["n"]
            tot[r["lang"]] = tot.get(r["lang"], 0) + r["n"]
    classes = sorted(n_docs)
    model_ref = ray.put((classes, n_docs, cnt, tot))

    def score(t: pa.Table) -> pa.Table:
        import ray as _ray

        classes, n_docs, cnt, tot = _ray.get(model_ref)
        memo: dict[str, int] = {}
        ids, true_l, pred_l = [], [], []
        for doc_id, text, lang in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist(), t["lang"].to_pylist()
        ):
            if not nbayes.is_test_doc(doc_id):
                continue
            ids.append(doc_id)
            true_l.append(lang)
            pred_l.append(
                nbayes.predict_doc(
                    nbayes.doc_buckets(text, memo), classes, n_docs, cnt, tot
                )
            )
        correct = [int(a == b) for a, b in zip(true_l, pred_l)]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.array(true_l, pa.string()),
                "pred_lang": pa.array(pred_l, pa.string()),
                "correct": pa.array(correct, pa.int64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow").sort("doc_id")


def mm_dhash(sf_dir: str):
    """Perceptual dHash over the REAL-codec image corpus
    (stages/imagehash.dhash_features): encode -> actual PNG/BMP/GIF/JPEG
    decode -> 64-bit integer difference hash. Golden-file oracle computes
    the hash straight from the synthesis formulas (goldens._seq_dhash) —
    parity proves codec inversion + hash parity."""
    from ..stages import imagehash

    return imagehash.dhash_features(sf_dir)


def mm_dhash_pairs(sf_dir: str):
    """Banded hamming near-dup image pairs over the dHash corpus
    (stages/imagehash.dhash_pairs) — the image-side SimHash/LSH dedup.
    Golden-file oracle: sequential banding mirror with shared kernels
    (goldens._seq_dhash_pairs)."""
    from ..stages import imagehash

    return imagehash.dhash_pairs(sf_dir)


def mm_video_pairs(sf_dir: str):
    """Cross-video near-dup via sampled-frame fingerprints (shot-level
    dedup: videos sharing >= VF_MIN_SHARED frame hashes, hot postings
    capped — stages/multimodal.video_near_dups). Golden-file oracle with
    shared build/sample/hash kernels (goldens._seq_video_pairs)."""
    return multimodal.video_near_dups(sf_dir)


def _mm_keep(sf_dir: str, pairs_ds, predicate_mod: int,
             predicate_not: bool):
    """Shared image/video keep plumbing: collect the (tiny) pair list,
    run near_dup_keep's union-find + broadcast rep map over the modality's
    media universe (media_id == doc_id; the membership predicate is the
    same pure formula the media synthesizers use), rename to media_id."""
    import numpy as np

    from ..stages import dedup as _dedup

    if isinstance(pairs_ds, pa.Table):  # video path returns a Table
        pairs_t = pairs_ds
    else:
        batches = list(
            pairs_ds.iter_batches(batch_format="pyarrow", batch_size=None)
        )
        # an empty Ray dataset yields ZERO batches and concat_tables([])
        # raises — a pair-free corpus must mean "everything keeps"
        pairs_t = (
            pa.concat_tables(batches)
            if batches
            else pa.schema(
                [("id_a", pa.int64()), ("id_b", pa.int64())]
            ).empty_table()
        )
    pairs = pa.table(
        {"doc_a": pairs_t["id_a"], "doc_b": pairs_t["id_b"]}
    )

    def member(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        m = ids % predicate_mod == 2
        if predicate_not:
            m = ~m
        return t.filter(pa.array(m))

    universe = read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        member, batch_format="pyarrow"
    )
    out = _dedup.near_dup_keep(universe, pairs=pairs)
    return out.map_batches(
        lambda t: pa.table(
            {
                "media_id": t["doc_id"],
                "rep_id": t["rep_id"],
                "keep": t["keep"],
            }
        ),
        batch_format="pyarrow",
    )


def mm_dhash_keep(sf_dir: str):
    """Image-corpus dedup VERDICT (not just pairs): dHash banded near-dup
    pairs -> driver union-find over the pair-involved images -> broadcast
    rep map -> (media_id, rep_id, keep) over the image universe
    (doc_id % 5 != 2 — the decodable-media formula's non-WAV rows; images
    with no near-dup keep themselves). Same compose near_dup_keep already
    proven for text MinHash/SimHash pairs, now over the image pair source.
    Golden-file oracle (goldens._seq_mm_keep)."""
    from ..stages import imagehash

    return _mm_keep(
        sf_dir, imagehash.dhash_pairs(sf_dir), predicate_mod=5,
        predicate_not=True,
    )


def mm_video_keep(sf_dir: str):
    """Video-corpus dedup verdict over the cross-video shot near-dup
    pairs: (media_id, rep_id, keep) for every video media item
    (doc_id % 3 == 2 — build_media_batch's kind formula). Golden-file
    oracle (goldens._seq_mm_keep)."""
    return _mm_keep(
        sf_dir, multimodal.video_near_dups(sf_dir), predicate_mod=3,
        predicate_not=False,
    )


def mm_audio_pairs(sf_dir: str):
    """Cross-audio near-dup via sample-window fingerprints (the
    audio-fingerprint dedup: shifted copies of a recording share window
    hashes — stages/multimodal.audio_near_dups). Golden-file oracle with
    shared window-hash kernel computed straight from the synthesis
    formula (goldens._seq_audio_pairs) — parity proves WAV codec
    inversion."""
    return multimodal.audio_near_dups(sf_dir)


def mm_audio_keep(sf_dir: str):
    """Audio-corpus dedup verdict over the fingerprint pairs:
    (media_id, rep_id, keep) for every WAV media item (doc_id % 5 == 2).
    Golden-file oracle (goldens._seq_mm_keep)."""
    return _mm_keep(
        sf_dir, multimodal.audio_near_dups(sf_dir), predicate_mod=5,
        predicate_not=False,
    )


def tx_cdc(sf_dir: str):
    """Gear-CDC chunk dedup rollup (stages/cdc.cdc_dedup_stats): per-doc
    (n_chunks, n_bytes, dup_chunks, dup_bytes) where dup = not the global
    first occurrence of the chunk hash. Golden-file oracle
    (goldens._seq_cdc, shared chunking kernel)."""
    from ..stages.cdc import cdc_dedup_stats

    return cdc_dedup_stats(sf_dir)


def ann_rrf_topk(sf_dir: str):
    """Reciprocal-rank fusion of the exact brute-force ranking and the PQ
    approximate ranking (stages/similarity.rrf_topk) — hybrid-search
    ensembling; fusion itself touches k*|queries| rows. Golden-file oracle
    (goldens._seq_rrf, shared fusion kernel)."""
    return similarity.rrf_topk(sf_dir)


def dd_semdedup(sf_dir: str):
    """SemDeDup semantic dedup (stages/similarity.semdedup): integer-exact
    k-means clustering + within-cluster greedy cosine dedup, keep verdict
    per vector. Golden-file oracle (goldens._seq_semdedup)."""
    return similarity.semdedup(sf_dir)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _sql_list(words) -> str:
    return "[" + ", ".join(f"'{w}'" for w in words) + "]"


_WS_DISTINCT = (
    "list_distinct(list_filter(regexp_split_to_array(lower(text), "
    "'[^a-z0-9]+'), x -> x <> ''))"
)
_WS_ALL = (
    "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), "
    "x -> x <> '')"
)

_LANGID_HITS = ",\n               ".join(
    f"length(list_intersect(ws, {_sql_list(LANG_STOPWORDS[lang])})) AS hits_{lang}"
    for lang in LANG_ORDER
)

ORACLE_SQL: dict[str, str] = {
    "q22_orders_lineitem_join": """
        SELECT o_orderpriority, COUNT(*) AS n_items,
               CAST(SUM(CAST(round(l_extendedprice*(1-l_discount)*100,0) AS BIGINT)) AS BIGINT) AS revenue_c
        FROM orders JOIN lineitem ON o_orderkey = l_orderkey
        GROUP BY o_orderpriority
    """,
    # per-bucket top-N + bounded merge must equal the global top-N
    "ta_bucketed_topn": f"""
        SELECT l_orderkey AS o_orderkey,
               CAST(SUM(CAST(round(l_extendedprice*(1-l_discount)*100,0) AS BIGINT)) AS BIGINT) AS revenue_c
        FROM lineitem
        GROUP BY l_orderkey
        ORDER BY revenue_c DESC, o_orderkey
        LIMIT {TOPN_ORDERS}
    """,
    # seeded hash-rank shuffle: reproducible at any parallelism
    "ta_global_shuffle": f"""
        WITH r AS (
            SELECT doc_id,
                   row_number() OVER (
                       ORDER BY md5('{SHUF_SEED}:' || CAST(doc_id AS VARCHAR))
                   ) - 1 AS rk,
                   COUNT(*) OVER () AS n
            FROM documents
        )
        SELECT doc_id,
               CAST(rk // GREATEST(1, (n + {SHUF_SHARDS - 1}) // {SHUF_SHARDS}) AS BIGINT) AS shard,
               CAST(rk % GREATEST(1, (n + {SHUF_SHARDS - 1}) // {SHUF_SHARDS}) AS BIGINT) AS pos_in_shard
        FROM r ORDER BY doc_id
    """,
    "ta_pruned_scan": f"""
        SELECT l_returnflag, COUNT(*) AS n_items,
               CAST(SUM(CAST(round(l_extendedprice*(1-l_discount)*100,0) AS BIGINT)) AS BIGINT) AS revenue_c
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '{_PRUNE_LO}'
          AND l_shipdate <  TIMESTAMP '{_PRUNE_HI}'
        GROUP BY l_returnflag
        ORDER BY l_returnflag
    """,
    # identical semantics to q22 — the SMB layout must not change the answer
    "ta_bucketed_join": """
        SELECT o_orderpriority, COUNT(*) AS n_items,
               CAST(SUM(CAST(round(l_extendedprice*(1-l_discount)*100,0) AS BIGINT)) AS BIGINT) AS revenue_c
        FROM orders JOIN lineitem ON o_orderkey = l_orderkey
        GROUP BY o_orderpriority
    """,
    "q23_ngram_jaccard_pairs": f"""
        WITH t AS (SELECT doc_id, n_chars AS bucket, {_WS_DISTINCT} AS ws
                   FROM documents)
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(round(1000000.0 * length(list_intersect(a.ws, b.ws))
                          / length(list_distinct(a.ws || b.ws)), 0) AS BIGINT)
                   AS jaccard_ppm
        FROM t a JOIN t b ON a.bucket = b.bucket AND a.doc_id < b.doc_id
        WHERE 1000000.0 * length(list_intersect(a.ws, b.ws))
              / length(list_distinct(a.ws || b.ws)) >= 800000
    """,
    "q24_embedding_near_dup": """
        WITH e AS (SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS v
                   FROM embeddings)
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
        FROM e a JOIN e b ON a.label = b.label AND a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.v, b.v) >= 0.3
    """,
    "q25_langid": f"""
        WITH t AS (SELECT doc_id, {_WS_DISTINCT} AS ws FROM documents)
        SELECT doc_id,
               {_LANGID_HITS},
               CASE
                 WHEN hits_en >= hits_de AND hits_en >= hits_fr
                      AND hits_en >= hits_es AND hits_en > 0 THEN 'en'
                 WHEN hits_de >= hits_fr AND hits_de >= hits_es
                      AND hits_de > 0 THEN 'de'
                 WHEN hits_fr >= hits_es AND hits_fr > 0 THEN 'fr'
                 WHEN hits_es > 0 THEN 'es'
                 ELSE 'unknown'
               END AS lang_detected
        FROM t
    """,
    "q26_quality": f"""
        WITH t AS (SELECT doc_id,
                          length({_WS_ALL}) AS n_tokens,
                          length(list_intersect({_WS_DISTINCT},
                                 {_sql_list(LANG_STOPWORDS["en"])})) AS stop_hits_en,
                          length(regexp_extract_all(text, '[.,;:!?]')) AS n_punct
                   FROM documents)
        SELECT doc_id, n_tokens, stop_hits_en, n_punct,
               CASE
                 WHEN n_tokens >= 50 AND stop_hits_en >= 3
                      AND n_punct * 4 <= n_tokens THEN 'high'
                 WHEN n_tokens < 10 OR stop_hits_en = 0 THEN 'low'
                 ELSE 'medium'
               END AS quality
        FROM t
    """,
    "q27_token_classes": """
        SELECT doc_id,
               length(regexp_extract_all(lower(text), '[a-z]+')) AS n_word_tokens,
               length(regexp_extract_all(lower(text), '[0-9]+')) AS n_num_tokens,
               length(regexp_extract_all(lower(text), '[^a-z0-9\\s]')) AS n_symbols
        FROM documents
    """,
    "q28_events_props_json": """
        SELECT event_type,
               CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
               COUNT(json_extract(props, '$.k')) AS n_valid
        FROM events GROUP BY event_type
    """,
    "q29_top_events_per_type": """
        SELECT event_type, event_id, value_c
        FROM (
            SELECT event_type, event_id,
                   CAST(round(value*100, 0) AS BIGINT) AS value_c,
                   row_number() OVER (PARTITION BY event_type
                                      ORDER BY CAST(round(value*100, 0) AS BIGINT) DESC,
                                               event_id) AS rn
            FROM events)
        WHERE rn <= 3
    """,
    "q30_user_sessions": """
        SELECT user_id, COUNT(*) AS n_events,
               CAST(1 + SUM(CASE WHEN gap_us > 3600000000 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_sessions
        FROM (
            SELECT user_id,
                   epoch_us(ts) - epoch_us(lag(ts) OVER (PARTITION BY user_id
                                                         ORDER BY ts)) AS gap_us
            FROM events)
        GROUP BY user_id
    """,
    "q32_stable_split": """
        SELECT COUNT(*) AS n_sampled,
               CAST(SUM(CAST(round(o_totalprice*100,0) AS BIGINT)) AS BIGINT) AS total_c
        FROM orders
        WHERE substr(md5(CAST(o_orderkey AS VARCHAR)), 32, 1) IN
              ('0','1','2','3')
    """,
    "q31_sliding_window": """
        SELECT event_id,
               CAST(count(*) OVER (
                   PARTITION BY user_id ORDER BY ts
                   RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
                   AS BIGINT) AS n_last_hour
        FROM events
    """,
    "ml_quantize": """
        WITH v AS (
            SELECT CAST(floor(unnest(CAST(embedding AS DOUBLE[]))
                              * 1048576.0 + 0.5) AS BIGINT) AS x,
                   CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim
            FROM embeddings
        ),
        mm AS (
            SELECT dim, MIN(x) AS mn, MAX(x) AS mx,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM v GROUP BY dim
        ),
        e AS (
            SELECT v.dim,
                   CASE WHEN mm.mx = mm.mn THEN 0
                        ELSE abs((v.x - mm.mn)
                                 - ((((v.x - mm.mn) * 255) // (mm.mx - mm.mn))
                                    * (mm.mx - mm.mn)) // 255)
                   END AS err
            FROM v JOIN mm USING (dim)
        )
        SELECT mm.dim, mm.mn AS min_fp, mm.mx AS max_fp, mm.n AS n_vals,
               CAST(SUM(e.err) AS BIGINT) AS sum_abs_err,
               CAST(MAX(e.err) AS BIGINT) AS max_err
        FROM e JOIN mm USING (dim)
        GROUP BY mm.dim, mm.mn, mm.mx, mm.n
        ORDER BY mm.dim
    """,
    "ann_brute_topk": """
        WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                   FROM embeddings)
        SELECT query_id, vec_id, rank FROM (
            SELECT q.vec_id AS query_id, x.vec_id,
                   CAST(row_number() OVER (
                        PARTITION BY q.vec_id
                        ORDER BY list_cosine_similarity(q.v, x.v) DESC,
                                 x.vec_id) AS BIGINT) AS rank
            FROM e q JOIN e x ON x.vec_id <> q.vec_id
            WHERE q.vec_id IN (0, 1, 2))
        WHERE rank <= 10
    """,
    "mm_sniff_meta": """
        SELECT doc_id AS media_id,
               CASE doc_id % 5 WHEN 0 THEN 'PNG' WHEN 1 THEN 'GIF'
                    WHEN 2 THEN 'BMP' WHEN 3 THEN 'JPEG' ELSE 'WAV'
               END AS format,
               CASE WHEN doc_id % 5 = 4 THEN 8000 + (n_chars % 8) * 1000
                    ELSE (n_chars % 640) + 16 END AS width,
               CASE WHEN doc_id % 5 = 4 THEN 1 + doc_id % 2
                    ELSE (n_chars % 480) + 16 END AS height,
               octet_length(encode(text)) AS body_bytes
        FROM documents
    """,
    "mm_decode_meta": """
        SELECT doc_id AS media_id,
               CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
                    ELSE 'video' END AS kind,
               CASE doc_id % 3 WHEN 0 THEN 'IMG1' WHEN 1 THEN 'AUD1'
                    ELSE 'VID1' END AS format,
               (n_chars % 640) + 16 AS width,
               (n_chars % 480) + 16 AS height,
               octet_length(encode(text)) AS body_bytes
        FROM documents
    """,
}

QUERIES = {
    "q22_orders_lineitem_join": q22_orders_lineitem_join,
    "ta_bucketed_join": ta_bucketed_join,
    "ta_bucketed_topn": ta_bucketed_topn,
    "ta_pruned_scan": ta_pruned_scan,
    "ta_global_shuffle": ta_global_shuffle,
    "ta_table_checksum": ta_table_checksum,
    "q23_ngram_jaccard_pairs": q23_ngram_jaccard_pairs,
    "q24_embedding_near_dup": q24_embedding_near_dup,
    "q25_langid": q25_langid,
    "q73_langid_confusion": q73_langid_confusion,
    "q75_split_leakage": q75_split_leakage,
    "q26_quality": q26_quality,
    "q27_token_classes": q27_token_classes,
    "q28_events_props_json": q28_events_props_json,
    "q29_top_events_per_type": q29_top_events_per_type,
    "q30_user_sessions": q30_user_sessions,
    "q31_sliding_window": q31_sliding_window,
    "q32_stable_split": q32_stable_split,
    "mm_decode_meta": mm_decode_meta,
    "mm_sampled_frames": mm_sampled_frames,
    "mm_sniff_meta": mm_sniff_meta,
    "mm_decode_pixels": mm_decode_pixels,
    "mm_resize_stats": mm_resize_stats,
    "dd_minhash_pairs": dd_minhash_pairs,
    "dd_simhash_pairs": dd_simhash_pairs,
    "dd_minhash_keep": dd_minhash_keep,
    "dd_simhash_keep": dd_simhash_keep,
    "tx_fingerprints": tx_fingerprints,
    "tx_winnow_pairs": tx_winnow_pairs,
    "tx_zlib_ratio": tx_zlib_ratio,
    "sk_hll_users": sk_hll_users,
    "sk_hll_terms": sk_hll_terms,
    "sk_cms_terms": sk_cms_terms,
    "ann_brute_topk": ann_brute_topk,
    "ann_ivf_topk": ann_ivf_topk,
    "ann_lsh_topk": ann_lsh_topk,
    "ml_kmeans": ml_kmeans,
    "ml_pca_var": ml_pca_var,
    "ml_knn": ml_knn,
    "ml_ridge": ml_ridge,
    "ml_quantize": ml_quantize,
    "ann_recall": ann_recall,
    "ml_nbayes": ml_nbayes,
    "ann_ivfpq_rerank": ann_ivfpq_rerank,
    "dd_minhash_incremental": dd_minhash_incremental,
    "ann_pq_topk": ann_pq_topk,
    "ann_incremental_topk": ann_incremental_topk,
    "ann_pq_rerank": ann_pq_rerank,
    "ann_rrf_topk": ann_rrf_topk,
    "mm_dhash": mm_dhash,
    "mm_dhash_pairs": mm_dhash_pairs,
    "mm_video_pairs": mm_video_pairs,
    "mm_audio_pairs": mm_audio_pairs,
    "mm_audio_keep": mm_audio_keep,
    "mm_dhash_keep": mm_dhash_keep,
    "mm_video_keep": mm_video_keep,
    "tx_cdc": tx_cdc,
    "dd_semdedup": dd_semdedup,
}


# q73's oracle reuses the q25 detector SQL as a subquery (same CASE logic)
ORACLE_SQL["q73_langid_confusion"] = f"""
    WITH pred AS ({ORACLE_SQL["q25_langid"]})
    SELECT d.lang, p.lang_detected, CAST(COUNT(*) AS BIGINT) AS n
    FROM documents d JOIN pred p USING (doc_id)
    GROUP BY d.lang, p.lang_detected
    ORDER BY d.lang, p.lang_detected
"""


# ---------------------------------------------------------------------------
# sk_kmv_users: K-Minimum-Values distinct sketch (Bar-Yossef et al. 2002)
# per event_type, alongside the exact distinct count as certificate.
# The sketch state is the k lexicographically-smallest md5 hex digests of
# the member user_ids — hex order == numeric order, so partials merge by
# concat+sort+take-k (per-block combiner), and the estimator
#     est = (k-1) * 16^14 // value(h_k[:14])        (integer-exact)
# is reproducible bit-for-bit in SQL. Groups with fewer than k distinct
# members report their exact count (the standard KMV small-set fallback).
# ---------------------------------------------------------------------------

KMV_K = 64
_KMV_M = 16 ** 14  # 63 * 16^15 would overflow int64; 14 hex digits fit


def _kmv_val(hx: str) -> int:
    return int(hx[:14], 16)


def sk_kmv_users(sf_dir: str):
    """(event_type, exact_distinct, kmv_est) sorted by event_type."""
    import hashlib

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        by_type: dict[str, set[str]] = {}
        for et, u in zip(t["event_type"].to_pylist(), t["user_id"].to_pylist()):
            by_type.setdefault(et, set()).add(
                hashlib.md5(str(u).encode()).hexdigest()
            )
        ets, hxs = [], []
        for et, hset in by_type.items():
            for h in sorted(hset)[:KMV_K]:
                ets.append(et)
                hxs.append(h)
        return pa.table(
            {
                "event_type": pa.array(ets, pa.string()),
                "hx": pa.array(hxs, pa.string()),
            }
        )

    def merge(g) -> dict:
        hx = sorted(set(g["hx"]))[:KMV_K]
        et = g["event_type"].iloc[0]
        if len(hx) < KMV_K:
            est = len(hx)  # placeholder; real exact joined below
        else:
            est = (KMV_K - 1) * _KMV_M // _kmv_val(hx[-1])
        return {
            "event_type": np.array([et], dtype=object),
            "kmv_est_p": np.array([est], np.int64),
            "saturated": np.array([1 if len(hx) >= KMV_K else 0], np.int64),
        }

    sk = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hx"])
        .aggregate(Count(alias_name="_n"))
        .groupby("event_type")
        .map_groups(merge, batch_format="pandas")
    )

    # exact distinct per type (certificate): distinct pairs -> count
    exact = (
        ds.groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="_n"))
        .map_batches(
            lambda t: pa.table({"event_type": t["event_type"]}),
            batch_format="pyarrow",
        )
        .groupby("event_type")
        .aggregate(Count(alias_name="exact_distinct"))
    )
    sk_t = pa.concat_tables(
        [b for b in sk.iter_batches(batch_format="pyarrow", batch_size=None)]
    )
    ex_t = pa.concat_tables(
        [b for b in exact.iter_batches(batch_format="pyarrow", batch_size=None)]
    )
    ex = dict(zip(ex_t["event_type"].to_pylist(),
                  ex_t["exact_distinct"].to_pylist()))
    rows = sorted(
        (
            et,
            int(ex[et]),
            int(est) if sat else int(ex[et]),
        )
        for et, est, sat in zip(
            sk_t["event_type"].to_pylist(),
            sk_t["kmv_est_p"].to_pylist(),
            sk_t["saturated"].to_pylist(),
        )
    )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "exact_distinct": pa.array([r[1] for r in rows], pa.int64()),
            "kmv_est": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


QUERIES["sk_kmv_users"] = sk_kmv_users

_KMV_VAL_SQL = " + ".join(
    f"(strpos('0123456789abcdef', substr(hx, {i + 1}, 1)) - 1) * {16 ** (13 - i)}"
    for i in range(14)
)

ORACLE_SQL["ta_table_checksum"] = f"""
    WITH h AS (
        SELECT md5(CAST(doc_id AS VARCHAR) || ':' || text) AS hx
        FROM documents
    )
    SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
           CAST(SUM(CAST(({_KMV_VAL_SQL}) AS HUGEINT))
                % {_CKSUM_MOD} AS BIGINT) AS checksum
    FROM h
"""

ORACLE_SQL["sk_kmv_users"] = f"""
    WITH h AS (
        SELECT DISTINCT event_type, md5(CAST(user_id AS VARCHAR)) AS hx
        FROM events
    ),
    r AS (
        SELECT event_type, hx,
               row_number() OVER (PARTITION BY event_type ORDER BY hx) AS rk,
               COUNT(*) OVER (PARTITION BY event_type) AS nd
        FROM h
    ),
    kth AS (
        SELECT event_type, CAST(MAX(nd) AS BIGINT) AS nd,
               MAX(CASE WHEN rk = {KMV_K} THEN hx END) AS hk
        FROM r GROUP BY event_type
    )
    SELECT event_type,
           nd AS exact_distinct,
           CAST(CASE WHEN hk IS NULL THEN nd
                ELSE ({KMV_K} - 1) * {_KMV_M} //
                     (SELECT {_KMV_VAL_SQL} FROM (SELECT hk AS hx))
                END AS BIGINT) AS kmv_est
    FROM kth ORDER BY event_type
"""


SETOP_A = "click"
SETOP_B = "view"


def sk_set_ops(sf_dir: str) -> pa.Table:
    """KMV sketch set operations (Beyer et al. 2007, "On synopses for
    distinct-value estimation under multiset operations"): estimate
    |A ∪ B| and |A ∩ B| of two event-type user sets from two K-minimum-
    values sketches, with the exact counts as certificates.

    Sketch algebra: sketch(A ∪ B) = K smallest of (sketch_A ∪ sketch_B);
    est_inter = c * est_union // |U| where c counts union-sketch members
    present in BOTH side sketches. Every step is deterministic digest
    ordering + integer arithmetic, so the SQL oracle reproduces it
    bit-exactly; when the union sketch is unsaturated both estimates
    degrade to the exact counts by construction.

    Shape: ONE user-keyed shuffle. Per-block partials pre-dedup to
    (user, in_A, in_B) rows; groupby(u) ORs the side bits via Max; the
    aggregated stream is consumed by a per-block finalizer that emits a
    bounded partial (one count row + ≤2K capped sketch rows), so the
    driver merge is O(blocks · K) digests regardless of corpus size."""
    import hashlib

    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def bit_partial(t: pa.Table) -> pa.Table:
        # block-local dedup: one (u, b1, b2) row per distinct user
        ua = set(
            pc.unique(
                t.filter(pc.equal(t["event_type"], SETOP_A))["user_id"]
            ).to_pylist()
        )
        ub = set(
            pc.unique(
                t.filter(pc.equal(t["event_type"], SETOP_B))["user_id"]
            ).to_pylist()
        )
        us = sorted(ua | ub)
        return pa.table(
            {
                "u": pa.array(us, pa.int64()),
                "b1": pa.array([1 if x in ua else 0 for x in us], pa.int64()),
                "b2": pa.array([1 if x in ub else 0 for x in us], pa.int64()),
            }
        )

    agg = (
        ds.map_batches(bit_partial, batch_format="pyarrow")
        .groupby("u")
        # cross-block OR of a 0/1 bit is exactly Max
        .aggregate(Max("b1", alias_name="b1"), Max("b2", alias_name="b2"))
    )

    def finalize_partial(t: pa.Table) -> pa.Table:
        us = t["u"].to_pylist()
        b1 = t["b1"].to_pylist()
        b2 = t["b2"].to_pylist()
        n_u = len(us)
        n_i = sum(1 for x, y in zip(b1, b2) if x and y)
        ha = sorted(
            hashlib.md5(str(u).encode()).hexdigest()
            for u, x in zip(us, b1) if x
        )[:KMV_K]
        hb = sorted(
            hashlib.md5(str(u).encode()).hexdigest()
            for u, y in zip(us, b2) if y
        )[:KMV_K]
        sides = [-1] + [0] * len(ha) + [1] * len(hb)
        return pa.table(
            {
                "side": pa.array(sides, pa.int64()),
                "hx": pa.array([""] + ha + hb, pa.string()),
                "n_u": pa.array([n_u] + [0] * (len(sides) - 1), pa.int64()),
                "n_i": pa.array([n_i] + [0] * (len(sides) - 1), pa.int64()),
            }
        )

    rows = agg.map_batches(finalize_partial, batch_format="pyarrow").take_all()
    exact_union = sum(r["n_u"] for r in rows if r["side"] == -1)
    exact_inter = sum(r["n_i"] for r in rows if r["side"] == -1)
    sa = set(sorted({r["hx"] for r in rows if r["side"] == 0})[:KMV_K])
    sb = set(sorted({r["hx"] for r in rows if r["side"] == 1})[:KMV_K])
    u = sorted(sa | sb)[:KMV_K]
    nu = len(u)
    if nu >= KMV_K:
        est_union = (KMV_K - 1) * _KMV_M // _kmv_val(u[-1])
    else:
        est_union = nu
    c = sum(1 for h in u if h in sa and h in sb)
    est_inter = c * est_union // nu if nu else 0
    return pa.table(
        {
            "type_a": pa.array([SETOP_A], pa.string()),
            "type_b": pa.array([SETOP_B], pa.string()),
            "exact_union": pa.array([exact_union], pa.int64()),
            "est_union": pa.array([est_union], pa.int64()),
            "exact_inter": pa.array([exact_inter], pa.int64()),
            "est_inter": pa.array([est_inter], pa.int64()),
            "k": pa.array([KMV_K], pa.int64()),
        }
    )


QUERIES["sk_set_ops"] = sk_set_ops

ORACLE_SQL["sk_set_ops"] = f"""
    WITH h AS (
        SELECT DISTINCT
               CASE WHEN event_type = '{SETOP_A}' THEN 0 ELSE 1 END AS side,
               md5(CAST(user_id AS VARCHAR)) AS hx
        FROM events WHERE event_type IN ('{SETOP_A}', '{SETOP_B}')
    ),
    sk AS (
        SELECT side, hx FROM (
            SELECT side, hx,
                   row_number() OVER (PARTITION BY side ORDER BY hx) AS rk
            FROM h
        ) WHERE rk <= {KMV_K}
    ),
    usk AS (
        SELECT hx FROM (
            SELECT hx, row_number() OVER (ORDER BY hx) AS rk
            FROM (SELECT DISTINCT hx FROM sk)
        ) WHERE rk <= {KMV_K}
    ),
    ustat AS (
        SELECT CAST(COUNT(*) AS BIGINT) AS nu, MAX(hx) AS hmax FROM usk
    ),
    cstat AS (
        SELECT CAST(COUNT(*) AS BIGINT) AS c FROM usk
        WHERE hx IN (SELECT hx FROM sk WHERE side = 0)
          AND hx IN (SELECT hx FROM sk WHERE side = 1)
    ),
    eu AS (
        SELECT CAST(CASE WHEN nu < {KMV_K} THEN nu
                    ELSE ({KMV_K} - 1) * {_KMV_M} //
                         (SELECT {_KMV_VAL_SQL} FROM (SELECT hmax AS hx))
                    END AS BIGINT) AS est_union,
               nu
        FROM ustat
    ),
    ex AS (
        SELECT CAST(COUNT(*) AS BIGINT) AS exact_union,
               CAST(SUM(CASE WHEN a = 1 AND b = 1 THEN 1 ELSE 0 END)
                    AS BIGINT) AS exact_inter
        FROM (
            SELECT user_id,
                   MAX(CASE WHEN event_type = '{SETOP_A}' THEN 1 ELSE 0 END) AS a,
                   MAX(CASE WHEN event_type = '{SETOP_B}' THEN 1 ELSE 0 END) AS b
            FROM events WHERE event_type IN ('{SETOP_A}', '{SETOP_B}')
            GROUP BY user_id
        )
    )
    SELECT '{SETOP_A}' AS type_a, '{SETOP_B}' AS type_b,
           ex.exact_union, eu.est_union, ex.exact_inter,
           CAST(CASE WHEN eu.nu = 0 THEN 0
                ELSE cstat.c * eu.est_union // eu.nu END AS BIGINT) AS est_inter,
           CAST({KMV_K} AS BIGINT) AS k
    FROM ex, eu, cstat
"""


def dd_ensemble_pairs(sf_dir: str):
    """Near-dup ENSEMBLE: the union of the MinHash-verified and
    SimHash-verified pair sets with a per-pair method bitmask
    (1 = minhash jaccard >= 0.8, 2 = simhash hamming <= 3, 3 = both) —
    the agreement view a production dedup uses to tier its confidence.
    Both member pipelines run fully distributed; their verified outputs
    are candidate-bounded (tiny by construction), so the merge is local.
    Oracle: SQL FULL OUTER JOIN over the two golden pair tables."""
    mh = dedup.minhash_near_dups(sf_dir, threshold=0.8)
    sh = dedup.simhash_near_dups(sf_dir, max_hamming=3)
    m = {
        (a, b): j
        for a, b, j in zip(
            mh["doc_a"].to_pylist(), mh["doc_b"].to_pylist(),
            mh["jaccard_ppm"].to_pylist(),
        )
    }
    s = {
        (a, b): h
        for a, b, h in zip(
            sh["doc_a"].to_pylist(), sh["doc_b"].to_pylist(),
            sh["hamming"].to_pylist(),
        )
    }
    rows = []
    for k in sorted(set(m) | set(s)):
        methods = (1 if k in m else 0) | (2 if k in s else 0)
        rows.append((k[0], k[1], methods, m.get(k, -1), s.get(k, -1)))
    return pa.table(
        {
            "doc_a": pa.array([r[0] for r in rows], pa.int64()),
            "doc_b": pa.array([r[1] for r in rows], pa.int64()),
            "methods": pa.array([r[2] for r in rows], pa.int64()),
            "jaccard_ppm": pa.array([r[3] for r in rows], pa.int64()),
            "hamming": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


QUERIES["dd_ensemble_pairs"] = dd_ensemble_pairs


def mm_audio_stats(sf_dir: str):
    """REAL audio feature extraction: WAV corpus members decoded by the
    RIFF/PCM16 codec, integer-exact energy / peak / zero-crossing features
    (stages/multimodal.AudioStats). Golden: formula-direct recomputation —
    parity proves codec inversion AND feature math."""
    return multimodal.audio_stats(sf_dir)


QUERIES["mm_audio_stats"] = mm_audio_stats


# ---------------------------------------------------------------------------
# sk_quantiles: hash-rank-sample quantile sketch with exact certificate —
# the quantile member of the sketch family (HLL distinct, CMS frequency,
# KMV distinct, Misra-Gries heavy hitters). The sketch state is the SKQ_K
# rows with the lexicographically smallest md5('sq:' || key) digests: a
# per-block bottom-K combiner whose partials merge by concat+sort+take-K
# (deterministic under any partitioning — the q56/sk_kmv merge algebra),
# so the "sample" is identical at any parallelism and in SQL. Quantiles
# are estimated at integer ranks ceil(a*K/b) over the sorted sample and
# certified against the exact ranks over the full distinct-value histogram
# (the q55 shape: the exact pass shuffles (value, count), never rows).
# ---------------------------------------------------------------------------

SKQ_K = 256


def sk_quantiles(sf_dir: str):
    """One row: (n_rows, n_sample, p{50,90,99}_est_c, p{50,90,99}_exact_c)
    of o_totalprice cents over orders."""
    import hashlib

    from .corpusstat import _QUANTILES, _rank_ceil

    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        keys = t["o_orderkey"].to_pylist()
        vals = cents(t["o_totalprice"]).to_pylist()
        rows = sorted(
            (hashlib.md5(f"sq:{k}".encode()).hexdigest(), k, v)
            for k, v in zip(keys, vals)
        )[:SKQ_K]
        return pa.table(
            {
                "hx": pa.array([r[0] for r in rows], pa.string()),
                "o_orderkey": pa.array([r[1] for r in rows], pa.int64()),
                "value_c": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    samp_rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    samp = sorted((r["hx"], r["o_orderkey"], r["value_c"]) for r in samp_rows)
    samp = samp[:SKQ_K]
    sv = sorted(r[2] for r in samp)
    k = len(sv)
    est = {name: int(sv[_rank_ceil(a, b, k) - 1]) for a, b, name in _QUANTILES}

    # exact certificate: distinct-value histogram (value, count) shuffle
    def per_block(t: pa.Table) -> pa.Table:
        v = cents(t["o_totalprice"])
        g = pa.table({"value_c": v}).group_by("value_c").aggregate(
            [("value_c", "count")]
        )
        return g.rename_columns(["value_c", "cnt"])

    hist = (
        ds.map_batches(per_block, batch_format="pyarrow")
        .groupby("value_c")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # distinct cents values: price-range bounded
        .sort_values("value_c", kind="mergesort")
    )
    cum = hist["cnt"].to_numpy().cumsum()
    vals = hist["value_c"].to_numpy()
    n = int(cum[-1])
    exact = {
        name: int(vals[np.searchsorted(cum, _rank_ceil(a, b, n))])
        for a, b, name in _QUANTILES
    }
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "n_sample": pa.array([k], pa.int64()),
            "p50_est_c": pa.array([est["p50"]], pa.int64()),
            "p90_est_c": pa.array([est["p90"]], pa.int64()),
            "p99_est_c": pa.array([est["p99"]], pa.int64()),
            "p50_exact_c": pa.array([exact["p50"]], pa.int64()),
            "p90_exact_c": pa.array([exact["p90"]], pa.int64()),
            "p99_exact_c": pa.array([exact["p99"]], pa.int64()),
        }
    )


QUERIES["sk_quantiles"] = sk_quantiles

ORACLE_SQL["sk_quantiles"] = f"""
    WITH v AS (
        SELECT o_orderkey,
               CAST(round(o_totalprice * 100, 0) AS BIGINT) AS c
        FROM orders
    ),
    samp AS (
        SELECT c FROM (
            SELECT c, row_number() OVER (
                ORDER BY md5('sq:' || o_orderkey), o_orderkey) AS rk
            FROM v
        ) WHERE rk <= {SKQ_K}
    ),
    sr AS (
        SELECT c, row_number() OVER (ORDER BY c) AS rn,
               COUNT(*) OVER () AS k
        FROM samp
    ),
    er AS (
        SELECT c, row_number() OVER (ORDER BY c) AS rn,
               COUNT(*) OVER () AS n
        FROM v
    )
    SELECT
        (SELECT CAST(COUNT(*) AS BIGINT) FROM v) AS n_rows,
        (SELECT CAST(COUNT(*) AS BIGINT) FROM samp) AS n_sample,
        (SELECT CAST(MIN(CASE WHEN rn = (k + 1) // 2 THEN c END) AS BIGINT)
            FROM sr) AS p50_est_c,
        (SELECT CAST(MIN(CASE WHEN rn = (9 * k + 9) // 10 THEN c END)
            AS BIGINT) FROM sr) AS p90_est_c,
        (SELECT CAST(MIN(CASE WHEN rn = (99 * k + 99) // 100 THEN c END)
            AS BIGINT) FROM sr) AS p99_est_c,
        (SELECT CAST(MIN(CASE WHEN rn = (n + 1) // 2 THEN c END) AS BIGINT)
            FROM er) AS p50_exact_c,
        (SELECT CAST(MIN(CASE WHEN rn = (9 * n + 9) // 10 THEN c END)
            AS BIGINT) FROM er) AS p90_exact_c,
        (SELECT CAST(MIN(CASE WHEN rn = (99 * n + 99) // 100 THEN c END)
            AS BIGINT) FROM er) AS p99_exact_c
"""


# ---------------------------------------------------------------------------
# sk_join_cardinality: sketch-based join-size estimation — the planner-grade
# |A JOIN B| estimate from two Count-Min sketches (Cormode & Muthukrishnan
# 2005 §4.2: est = min_d <CMS_A[d], CMS_B[d]> upper-bounds the true inner
# product Σ_k cnt_A(k)·cnt_B(k), which IS the join cardinality). Each side
# is sketched in one map pass with per-block partials (≤ depth·width rows
# per block, 16-byte hex bucket keys); the merged sketch is a FIXED
# depth×width int matrix regardless of key cardinality — the state a 256-
# node planner can afford to keep per (table, column). The exact join size
# rides along as the certificate via a tag-union key groupby (never a
# broadcast: either side may be arbitrarily large).
# ---------------------------------------------------------------------------

JC_DEPTH = 4
JC_WIDTH = 256  # bucket key = first hex byte of md5('jc{d}:' || key)


def _jc_bucket(d: int, key: str) -> str:
    import hashlib

    return hashlib.md5(f"jc{d}:{key}".encode()).hexdigest()[:2]


def _jc_cms_rows(keys: list, out_n: dict) -> None:
    for k in keys:
        s = str(k)
        for d in range(JC_DEPTH):
            b = (d, _jc_bucket(d, s))
            out_n[b] = out_n.get(b, 0) + 1


def sk_join_cardinality(sf_dir: str) -> pa.Table:
    """One row: (exact_n, est_n, depth, width, over_ppm) for
    orders ⋈ customer on custkey. est_n >= exact_n always (CMS dot
    products only ever over-count); over_ppm quantifies the estimation
    error the fixed-size state buys."""
    a = read_table(sf_dir, "orders", columns=["o_custkey"])
    b = read_table(sf_dir, "customer", columns=["c_custkey"])

    def cms_partial(col: str):
        def fn(t: pa.Table) -> pa.Table:
            acc: dict = {}
            _jc_cms_rows(t[col].to_pylist(), acc)
            ks = sorted(acc)
            return pa.table(
                {
                    "d": pa.array([k[0] for k in ks], pa.int64()),
                    "bkt": pa.array([k[1] for k in ks], pa.string()),
                    "n": pa.array([acc[k] for k in ks], pa.int64()),
                }
            )

        return fn

    def cms_merge(ds) -> dict:
        rows = (
            ds.groupby(["d", "bkt"]).aggregate(Sum("n", alias_name="n"))
            .take_all()
        )  # <= depth * width rows
        return {(r["d"], r["bkt"]): int(r["n"]) for r in rows}

    cms_a = cms_merge(a.map_batches(cms_partial("o_custkey"),
                                    batch_format="pyarrow"))
    cms_b = cms_merge(b.map_batches(cms_partial("c_custkey"),
                                    batch_format="pyarrow"))
    est = min(
        sum(
            n * cms_b.get((d, bkt), 0)
            for (dd, bkt), n in cms_a.items()
            if dd == d
        )
        for d in range(JC_DEPTH)
    )

    # exact certificate: tag-union key counts, then Σ na * nb
    def tag(col: str, side: int):
        def fn(t: pa.Table) -> pa.Table:
            acc: dict = {}
            for k in t[col].to_pylist():
                acc[k] = acc.get(k, 0) + 1
            ks = sorted(acc)
            na = [acc[k] if side == 0 else 0 for k in ks]
            nb = [acc[k] if side == 1 else 0 for k in ks]
            return pa.table(
                {
                    "k": pa.array(ks, pa.int64()),
                    "na": pa.array(na, pa.int64()),
                    "nb": pa.array(nb, pa.int64()),
                }
            )

        return fn

    both = a.map_batches(tag("o_custkey", 0), batch_format="pyarrow").union(
        b.map_batches(tag("c_custkey", 1), batch_format="pyarrow")
    )
    prod = (
        both.groupby("k")
        .aggregate(Sum("na", alias_name="na"), Sum("nb", alias_name="nb"))
        .map_batches(
            lambda t: pa.table(
                {
                    "p": pa.array(
                        [
                            int(
                                (np.asarray(t["na"], dtype=np.int64)
                                 * np.asarray(t["nb"], dtype=np.int64)).sum()
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .sum("p")
    )
    exact = int(prod)
    return pa.table(
        {
            "exact_n": pa.array([exact], pa.int64()),
            "est_n": pa.array([est], pa.int64()),
            "depth": pa.array([JC_DEPTH], pa.int64()),
            "width": pa.array([JC_WIDTH], pa.int64()),
            "over_ppm": pa.array(
                [(est - exact) * 1_000_000 // exact if exact else 0],
                pa.int64(),
            ),
        }
    )


QUERIES["sk_join_cardinality"] = sk_join_cardinality

ORACLE_SQL["sk_join_cardinality"] = f"""
    WITH a AS (SELECT o_custkey AS k FROM orders),
    b AS (SELECT c_custkey AS k FROM customer),
    ex AS (
        SELECT CAST(SUM(x.na * y.nb) AS BIGINT) AS n
        FROM (SELECT k, COUNT(*) AS na FROM a GROUP BY k) x
        JOIN (SELECT k, COUNT(*) AS nb FROM b GROUP BY k) y USING (k)
    ),
    depths AS (SELECT unnest([0, 1, 2, 3]) AS d),
    ca AS (
        SELECT d, substr(md5('jc' || CAST(d AS VARCHAR) || ':'
                             || CAST(k AS VARCHAR)), 1, 2) AS bkt,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM a, depths GROUP BY d, bkt
    ),
    cb AS (
        SELECT d, substr(md5('jc' || CAST(d AS VARCHAR) || ':'
                             || CAST(k AS VARCHAR)), 1, 2) AS bkt,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM b, depths GROUP BY d, bkt
    ),
    dot AS (
        SELECT ca.d, CAST(SUM(ca.n * cb.n) AS BIGINT) AS ip
        FROM ca JOIN cb ON ca.d = cb.d AND ca.bkt = cb.bkt
        GROUP BY ca.d
    ),
    est AS (SELECT CAST(MIN(ip) AS BIGINT) AS n FROM dot)
    SELECT ex.n AS exact_n, est.n AS est_n,
           CAST({JC_DEPTH} AS BIGINT) AS depth,
           CAST({JC_WIDTH} AS BIGINT) AS width,
           CAST(CASE WHEN ex.n = 0 THEN 0
                ELSE (est.n - ex.n) * 1000000 // ex.n END AS BIGINT)
               AS over_ppm
    FROM ex, est
"""
