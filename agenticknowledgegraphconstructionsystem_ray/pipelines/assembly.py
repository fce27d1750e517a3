"""Training-data assembly operators: the last mile between a cleaned corpus
and an LLM training run.

The reference stops at a validated knowledge graph; a web-scale training
pipeline additionally has to turn the surviving documents into model-ready
shards. This module adds that family, each op SQL-oracle-exact:

- dd_decontaminate   benchmark decontamination: flag every training document
                     sharing any 8-token n-gram with the (small) eval set —
                     the standard guard against test-set leakage. Eval grams
                     are broadcast ONCE (``ray.put``, fetched per actor),
                     never shipped per batch; the corpus side streams.
- q44 shard assignment  deterministic global shuffle: md5-keyed total order
                     -> global position via per-block offsets (one integer
                     per block to the driver) -> position within shard by
                     subtracting broadcast shard starts. No RNG state, no
                     partition-count dependence; re-runs bit-identical.
- q45 pack offsets   concat-and-chunk sequence packing (the GPT-style
                     pretraining layout): documents concatenated in doc_id
                     order, chunked into fixed SEQLEN-token sequences; emits
                     each document's global token offset and the sequence
                     range it lands in. The global running sum is a
                     distributed prefix scan: per-block partial sums ->
                     driver exclusive prefix (one int per block) ->
                     per-block cumsum + offset.
- q46 pack sequences per-sequence rollup of q45: how many documents touch
                     each sequence and how many tokens each holds (the last
                     sequence may be partial) — the shard-manifest view a
                     data loader reads.
- q47 quality classifier  linear-model inference shape: an integer weight
                     vector broadcast to every worker, a per-document
                     feature matrix built vectorized per batch, one integer
                     matmul -> score + keep label. Integer weights keep the
                     scores bit-exact across engines (NOTES.md invariant 2).

Tokenization matches ``scoring._TOKEN_RE`` ([a-z0-9]+ over lower(text)) on
both the Ray and DuckDB sides.

Scale notes (100 TB): the eval-gram set is benchmark-sized (MBs) and
broadcast; shard assignment and packing each use ONE corpus sort (dense
ranks from per-block offsets, ``_with_global_positions``) plus O(blocks)
driver integers; nothing corpus-sized reaches the driver.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

from ..runtime import cluster_cpus, worker_cached
from ..sources.tables import read_table
from .scoring import _TOKEN_RE

# ---------------------------------------------------------------------------
# dd_decontaminate: 8-gram overlap vs a small eval set
# ---------------------------------------------------------------------------

NGRAM_N = 8
EVAL_MOD = 97  # doc_id % 97 == 0 -> "benchmark" membership (~1% of docs)


def _doc_grams(text: str) -> list[str]:
    toks = _TOKEN_RE.findall(text.lower())
    if len(toks) < NGRAM_N:
        return []
    return [
        " ".join(toks[i : i + NGRAM_N]) for i in range(len(toks) - NGRAM_N + 1)
    ]


def eval_gram_set(sf_dir: str) -> frozenset[str]:
    """Distinct 8-grams of the eval subset. The eval side of decontamination
    is benchmark-sized by nature (a few MB of text against a 100 TB corpus),
    so reducing its distinct grams to the driver — via a Ray aggregation,
    not a corpus materialization — is the broadcast-small-side pattern."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def grams(t: pa.Table) -> pa.Table:
        out: set[str] = set()
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if doc_id % EVAL_MOD == 0:
                out.update(_doc_grams(text))
        return pa.table({"gram": pa.array(sorted(out), pa.string())})

    uniq = docs.map_batches(grams, batch_format="pyarrow").unique("gram")
    return frozenset(uniq)


class _CountHits:
    """Actor-pool stage: per document, count token positions whose 8-gram is
    in the broadcast eval set. The object-store ref is fetched ONCE per
    actor (``__init__``), not per batch."""

    def __init__(self, ref: "ray.ObjectRef") -> None:
        self.grams: frozenset[str] = ray.get(ref)

    def __call__(self, t: pa.Table) -> pa.Table:
        g = self.grams
        ids = t["doc_id"].to_pylist()
        hits = [
            sum(1 for gr in _doc_grams(text) if gr in g)
            for text in t["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "is_eval": pa.array(
                    [int(i % EVAL_MOD == 0) for i in ids], pa.int64()
                ),
                "n_hits": pa.array(hits, pa.int64()),
                "contaminated": pa.array(
                    [int(h > 0) for h in hits], pa.int64()
                ),
            }
        )


def dd_decontaminate(sf_dir: str):
    """Per-document benchmark-contamination verdict (see module docstring)."""
    ref = ray.put(eval_gram_set(sf_dir))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(
        _CountHits,
        fn_constructor_kwargs={"ref": ref},
        batch_format="pyarrow",
        concurrency=(1, cluster_cpus()),
    ).sort("doc_id")


# ---------------------------------------------------------------------------
# dd_bloom_decontaminate: same verdict, fixed-size broadcast (the scale path)
# ---------------------------------------------------------------------------
#
# At 100 TB the exact path's broadcast (every distinct eval gram as Python
# strings in every worker process) is the scale limiter: a large benchmark
# suite's gram set is GBs. This variant broadcasts a FIXED-SIZE Bloom bitmap
# (state/bloom.py, n_bits/8 bytes — 128 KiB here) instead:
#
#   eval docs --per-block gram sets--> per-block bloom partials (fixed size)
#     --driver OR-merge (O(blocks) x 128 KiB)--> ray.put(bitmap)
#   corpus --screen: vectorized k-probe over every gram-->
#     clean docs (no false negatives -> final n_hits=0, the vast majority)
#     + candidate (doc_id, gram, n_pos) rows (true hits + bloom FP tail)
#   candidates UNION per-block-distinct eval grams
#     --coarse gram-hash bucket groupby--> exact membership inside buckets
#     --groupby(doc_id) sum--> exact n_hits, bit-identical to dd_decontaminate
#
# Guaranteed-clean documents enter as (doc_id, 0) rows only AFTER the gram
# shuffle (a column-pruned doc_id re-read), so the gram all-to-all carries
# O(candidates) grams only — never a corpus-sized sentinel stream, never
# the eval set per batch, never text.

BLOOM_M_BITS = 1 << 20  # 128 KiB bitmap; sized for ~5e4 grams at k=4 -> FPR ~1e-5
BLOOM_K = 4
_VERIFY_BUCKETS = 64


# The broadcast bloom bitmap is ray.get-fetched once per worker process
# (runtime.worker_cached), so the screen runs as plain stateless tasks with
# ELASTIC parallelism — the actor-pool form capped the stage at 8 actors on
# a 32-CPU host, making it round-2's most starved bench segment. Pattern:
# stages/triples.py extract_records_batch, stages/dedup.py fetch_shingles.


def bloom_screen_batch(t: pa.Table, bloom_ref=None) -> pa.Table:
    """Stateless-task bloom screen: probe every token position's 8-gram
    against the worker-cached broadcast bitmap. Emits one (doc_id, gram,
    n_pos) row per DISTINCT flagged gram — the exact-verify input. Clean
    documents emit NOTHING here: their guaranteed n_hits=0 rows join the
    plan after the gram-bucket shuffle (dd_bloom_decontaminate), so the
    corpus-sized sentinel stream never rides the gram all-to-all. Probing
    is one vectorized polars hash pass over the batch's concatenated gram
    list, not per-gram Python."""
    from collections import Counter

    bloom = worker_cached(bloom_ref, lambda: ray.get(bloom_ref))

    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    per_doc = [_doc_grams(tx) for tx in texts]
    flat: list[str] = [g for gs in per_doc for g in gs]
    flags = bloom.probe_many(flat)

    out_ids: list[int] = []
    out_grams: list[str] = []
    out_npos: list[int] = []
    pos = 0
    for doc_id, gs in zip(ids, per_doc):
        n = len(gs)
        if n:
            f = flags[pos : pos + n]
            if f.any():
                for g, c in Counter(
                    g for g, hit in zip(gs, f) if hit
                ).items():
                    out_ids.append(doc_id)
                    out_grams.append(g)
                    out_npos.append(c)
            pos += n
    return pa.table(
        {
            "doc_id": pa.array(out_ids, pa.int64()),
            "gram": pa.array(out_grams, pa.string()),
            "n_pos": pa.array(out_npos, pa.int64()),
        }
    )


def _coarse_gram_bucket(t: pa.Table) -> pa.Table:
    import polars as pl

    if not t.num_rows:  # upstream unions can emit zero-column empty blocks
        return pa.schema(
            [("doc_id", pa.int64()), ("gram", pa.string()),
             ("n_pos", pa.int64()), ("side", pa.int64()),
             ("bkt", pa.int64())]
        ).empty_table()
    grams = t["gram"].to_pylist()
    h = pl.Series(grams, dtype=pl.String).hash(seed=11)
    bkt = (h.to_numpy() % np.uint64(_VERIFY_BUCKETS)).astype(np.int64)
    # sentinel rows all share gram "" — bucketing them by content would make
    # one corpus-hot bucket; spread them by doc_id instead (their bucket is
    # irrelevant to correctness: "" never matches an eval gram)
    ids = t["doc_id"].to_numpy()
    sentinel = np.fromiter((g == "" for g in grams), bool, len(grams))
    bkt[sentinel] = ids[sentinel] % _VERIFY_BUCKETS
    return t.append_column("bkt", pa.array(bkt, pa.int64()))


def _verify_bucket(df: "pd.DataFrame") -> pa.Table:
    """Within one coarse bucket: zero out candidate rows whose gram is not
    truly in the eval set, then pre-sum per doc (combiner before the global
    doc_id groupby). Sentinels ("" grams) pass through with 0.

    Returns Arrow with an EXPLICIT schema: a pandas return here produces
    zero-column empty blocks for group-less partitions, and Ray's schema
    unification over those (PandasBlockSchema(names=[])) intermittently
    corrupts the downstream groupby's dtypes — the one observed source of
    flaky dd_bloom runs."""
    ev = set(df.loc[df["side"] == 0, "gram"])
    cand = df[df["side"] == 1]
    n_hits = cand["n_pos"].where(cand["gram"].isin(ev), 0)
    out = (
        cand.assign(n_hits=n_hits)
        .groupby("doc_id", as_index=False, sort=False)["n_hits"]
        .sum()
    )
    import numpy as np

    return pa.table(
        {
            "doc_id": pa.array(
                out["doc_id"].to_numpy(dtype=np.int64, copy=False), pa.int64()
            ),
            "n_hits": pa.array(
                out["n_hits"].to_numpy(dtype=np.int64, copy=False), pa.int64()
            ),
        }
    )


def dd_bloom_decontaminate(sf_dir: str):
    """`dd_decontaminate` with a fixed-size broadcast: bloom screen (no
    false negatives) + exact distributed verify of the candidate tail.
    Output bit-identical to the exact path (same SQL oracle)."""
    import pandas as pd  # noqa: F401  (map_groups pandas batches)

    from ..state.bloom import BloomFilter

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def eval_grams_block(t: pa.Table) -> pa.Table:
        grams: set[str] = set()
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if doc_id % EVAL_MOD == 0:
                grams.update(_doc_grams(text))
        gl = sorted(grams)
        return pa.table(
            {
                "doc_id": pa.array([0] * len(gl), pa.int64()),
                "gram": pa.array(gl, pa.string()),
                "n_pos": pa.array([0] * len(gl), pa.int64()),
                "side": pa.array([0] * len(gl), pa.int64()),
            }
        )

    # block-level-distinct eval grams suffice: the verify bucket set()-s
    # them, so cross-block duplicates are harmless — no global dedup needed.
    # Materialized ONCE and reused for both the bloom build and the verify
    # union — the bloom no longer costs its own full corpus pass.
    ev = docs.map_batches(eval_grams_block, batch_format="pyarrow").materialize()

    def bloom_partial(t: pa.Table) -> pa.Table:
        grams = t["gram"].to_pylist()
        if not grams:
            return pa.table({"bitmap": pa.array([], pa.binary())})
        bf = BloomFilter.build(grams, n_bits=BLOOM_M_BITS, n_hashes=BLOOM_K)
        return pa.table({"bitmap": pa.array([bf.bits.tobytes()], pa.binary())})

    bf = BloomFilter(n_bits=BLOOM_M_BITS, n_hashes=BLOOM_K)
    for r in ev.map_batches(bloom_partial, batch_format="pyarrow").take_all():
        np.bitwise_or(
            bf.bits, np.frombuffer(r["bitmap"], dtype=np.uint8), out=bf.bits
        )
    bloom_ref = ray.put(bf)

    cand = docs.map_batches(
        bloom_screen_batch,
        fn_kwargs={"bloom_ref": bloom_ref},
        batch_format="pyarrow",
    ).map_batches(
        lambda t: t.append_column(
            "side", pa.array(np.ones(t.num_rows, dtype=np.int64))
        ),
        batch_format="pyarrow",
    ).materialize()  # candidate-sized (true hits + bloom FP tail), never
    #                  corpus-sized: pinning it lets the verify shuffle and
    #                  the doc-id rollup run as separate short executions
    #                  instead of one 3-all-to-all streaming DAG (measured
    #                  ~2x faster at sf0.1; same plan shape at scale)
    verified = (
        cand.union(ev)
        .map_batches(_coarse_gram_bucket, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(_verify_bucket, batch_format="pandas")
    )

    # Tail: one row per corpus doc with its verified n_hits, sorted.
    # AUTO-SWITCH (kg.py mention-count pattern): the verified rollup is
    # candidate-bounded (<= cand rows, known — cand is materialized). When
    # it fits a broadcast dict, sum it on the driver and patch hits into a
    # column-pruned doc_id scan — the tail costs ONE all-to-all (the sort).
    # Past the threshold, fall back to the distributed doc_id groupby.
    _BROADCAST_MAX_CAND_ROWS = 2_000_000

    def zero_hits(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_hits": pa.array(np.zeros(t.num_rows, np.int64)),
            }
        )

    sent = read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        zero_hits, batch_format="pyarrow"
    )

    if cand.count() <= _BROADCAST_MAX_CAND_ROWS:
        agg: dict[int, int] = {}
        for part in ray.get(verified.to_arrow_refs()):
            if part.num_rows == 0:  # group-less partitions lose their schema
                continue
            for d, h in zip(
                part["doc_id"].to_pylist(), part["n_hits"].to_pylist()
            ):
                if h:
                    agg[d] = agg.get(d, 0) + h
        agg_ref = ray.put(agg)

        def patch_hits(t: pa.Table, ref=None) -> pa.Table:
            a = ray.get(ref)
            ids = t["doc_id"].to_numpy()
            n_hits = np.fromiter(
                (a.get(int(i), 0) for i in ids), np.int64, len(ids)
            )
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "n_hits": pa.array(n_hits),
                }
            )

        hits = sent.map_batches(
            patch_hits, fn_kwargs={"ref": agg_ref}, batch_format="pyarrow"
        )
        hits_col = "n_hits"
    else:
        hits = verified.union(sent).groupby("doc_id").sum("n_hits")
        hits_col = "sum(n_hits)"

    def finalize(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.schema(
                [("doc_id", pa.int64()), ("is_eval", pa.int64()),
                 ("n_hits", pa.int64()), ("contaminated", pa.int64())]
            ).empty_table()
        ids = t["doc_id"]
        n_hits = pc.cast(t[hits_col], pa.int64())
        is_eval = pa.array(
            (ids.to_numpy() % EVAL_MOD == 0).astype(np.int64)
        )
        return pa.table(
            {
                "doc_id": ids,
                "is_eval": is_eval,
                "n_hits": n_hits,
                "contaminated": pc.cast(
                    pc.greater(n_hits, pa.scalar(0, pa.int64())), pa.int64()
                ),
            }
        )

    return hits.map_batches(finalize, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# shared machinery: global positions after a sort (one int per block)
# ---------------------------------------------------------------------------

def _with_global_positions(sorted_ds, col_name: str):
    """Append ``col_name`` = 0-based global row position to an already-sorted
    (hence block-ordered) materialized Dataset. Driver traffic is one integer
    per block: each block's offset is the sum of the row counts before it."""
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def _nrows(t: pa.Table) -> int:
        return t.num_rows

    @ray.remote
    def _with_pos(t: pa.Table, offset: int, schema: pa.Schema) -> pa.Table:
        if not t.num_rows:
            return schema.empty_table()
        return t.append_column(
            col_name,
            pa.array(np.arange(offset, offset + t.num_rows, dtype=np.int64)),
        )

    sizes = ray.get([_nrows.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]) if sizes else []
    schema = sorted_ds.schema().base_schema.append(
        pa.field(col_name, pa.int64())
    )
    return rd.from_arrow_refs(
        [_with_pos.remote(r, int(off), schema) for r, off in zip(refs, offsets)]
    )


# ---------------------------------------------------------------------------
# q44: deterministic shard assignment (md5-keyed global shuffle)
# ---------------------------------------------------------------------------

NSHARDS = 8


def q44_shard_assignment(sf_dir: str):
    """(doc_id, shard, pos): shard from the md5 key's first hex char, pos =
    rank within the shard under (md5 hex, doc_id) order. One corpus sort;
    shard start offsets (NSHARDS integers) are computed from per-shard
    counts and subtracted vectorized."""
    docs = read_table(sf_dir, "documents", columns=["doc_id"])

    def key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        hexes = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "shard": pa.array(
                    [ord(h[0]) % NSHARDS for h in hexes], pa.int64()
                ),
                "h": pa.array(hexes, pa.string()),
            }
        )

    keyed = docs.map_batches(key, batch_format="pyarrow")
    ordered = keyed.sort(["shard", "h", "doc_id"]).materialize()
    pos = _with_global_positions(ordered, "gpos")

    # shard start = exclusive prefix over per-shard counts (NSHARDS ints)
    counts = {
        r["shard"]: r["count()"]
        for r in ordered.groupby("shard").count().take_all()
    }
    starts = np.zeros(NSHARDS, dtype=np.int64)
    acc = 0
    for s in range(NSHARDS):
        starts[s] = acc
        acc += counts.get(s, 0)

    def localize(t: pa.Table) -> pa.Table:
        st = starts  # NSHARDS ints — ships in the task closure, no broadcast
        shard = t["shard"].combine_chunks().to_numpy(zero_copy_only=False)
        gpos = t["gpos"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "shard": t["shard"],
                "pos": pa.array(gpos - st[shard], pa.int64()),
            }
        )

    return pos.map_batches(localize, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# q45/q46: concat-and-chunk sequence packing
# ---------------------------------------------------------------------------

SEQLEN = 256


def _token_counts(sf_dir: str):
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def count(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(
                    [
                        len(_TOKEN_RE.findall(x.lower()))
                        for x in t["text"].to_pylist()
                    ],
                    pa.int64(),
                ),
            }
        )

    return docs.map_batches(count, batch_format="pyarrow")


def _pack_table(sf_dir: str):
    """Per-doc packing offsets as a block-ordered Dataset (distributed
    prefix scan: per-block sums -> driver exclusive prefix -> block-local
    cumsum + offset)."""
    ordered = _token_counts(sf_dir).sort("doc_id").materialize()
    refs = ordered.to_arrow_refs()

    @ray.remote
    def _blocksum(t: pa.Table) -> int:
        # empty sort partitions can lose their schema entirely
        if not t.num_rows or "n_tokens" not in t.column_names:
            return 0
        return int(pa.compute.sum(t["n_tokens"]).as_py() or 0)

    @ray.remote
    def _offsets(t: pa.Table, base: int) -> pa.Table:
        if not t.num_rows:
            return pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("n_tokens", pa.int64()),
                    ("tok_start", pa.int64()),
                    ("seq_first", pa.int64()),
                    ("seq_last", pa.int64()),
                ]
            ).empty_table()
        n = t["n_tokens"].combine_chunks().to_numpy(zero_copy_only=False)
        start = base + np.cumsum(n) - n
        first = start // SEQLEN
        last = np.where(n > 0, (start + n - 1) // SEQLEN, first)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": t["n_tokens"],
                "tok_start": pa.array(start, pa.int64()),
                "seq_first": pa.array(first, pa.int64()),
                "seq_last": pa.array(last, pa.int64()),
            }
        )

    sums = ray.get([_blocksum.remote(r) for r in refs])
    bases = np.concatenate([[0], np.cumsum(sums)[:-1]]) if sums else []
    return rd.from_arrow_refs(
        [_offsets.remote(r, int(b)) for r, b in zip(refs, bases)]
    )


def q45_pack_offsets(sf_dir: str):
    """Each document's global token offset and sequence span under
    concat-and-chunk packing at SEQLEN tokens."""
    return _pack_table(sf_dir).sort("doc_id")


def q46_pack_sequences(sf_dir: str):
    """Sequence manifest: for every SEQLEN-token training sequence, the
    number of documents that contribute to it and its token fill (the final
    sequence may be partial). Expansion is bounded: a document spans
    ceil(n_tokens/SEQLEN)+1 sequences, so np.repeat per batch stays small;
    the rollup is a pre-combined groupby on seq_id."""

    def expand(t: pa.Table) -> pa.Table:
        n = t["n_tokens"].combine_chunks().to_numpy(zero_copy_only=False)
        start = t["tok_start"].combine_chunks().to_numpy(zero_copy_only=False)
        first = t["seq_first"].combine_chunks().to_numpy(zero_copy_only=False)
        last = t["seq_last"].combine_chunks().to_numpy(zero_copy_only=False)
        mask = n > 0
        n, start, first, last = n[mask], start[mask], first[mask], last[mask]
        spans = (last - first + 1).astype(np.int64)
        if not len(spans):
            return pa.table(
                {
                    "seq_id": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                }
            )
        seq = np.repeat(first, spans) + _ranges(spans)
        end = start + n  # exclusive
        tok_in_seq = np.minimum(np.repeat(end, spans), (seq + 1) * SEQLEN) - \
            np.maximum(np.repeat(start, spans), seq * SEQLEN)
        ones = np.ones(len(seq), dtype=np.int64)
        return pa.table(
            {
                "seq_id": pa.array(seq, pa.int64()),
                "n_docs": pa.array(ones, pa.int64()),
                "n_tokens": pa.array(tok_in_seq, pa.int64()),
            }
        )

    return (
        _pack_table(sf_dir)
        .map_batches(expand, batch_format="pyarrow")
        .groupby("seq_id")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_tokens", alias_name="n_tokens"),
        )
        .sort("seq_id")
    )


def _ranges(spans: np.ndarray) -> np.ndarray:
    """[0..s0), [0..s1), ... concatenated — vectorized per-row arange."""
    total = int(spans.sum())
    idx = np.arange(total, dtype=np.int64)
    row_start = np.repeat(np.cumsum(spans) - spans, spans)
    return idx - row_start


# ---------------------------------------------------------------------------
# q47: linear-model quality classifier (broadcast integer weights)
# ---------------------------------------------------------------------------

# weights over (n_tokens, n_uniq_terms, n_chars, n_long_tokens); integer so
# the score is bit-exact across engines (NOTES.md invariant 2)
QUALITY_W = np.array([5, 3, 1, -4], dtype=np.int64)
QUALITY_THRESHOLD = 600


def doc_features(text: str) -> tuple[int, int, int, int]:
    """Pure per-document feature kernel (shared by the pipeline AND the
    sequential goldens — NOTES.md invariant 1):
    (n_tokens, n_uniq_terms, n_chars, n_long_tokens)."""
    ts = _TOKEN_RE.findall(text.lower())
    return (len(ts), len(set(ts)), len(text), sum(1 for w in ts if len(w) >= 6))


def quality_score(text: str) -> int:
    """Pure scalar form of the q47 linear model."""
    f = np.array(doc_features(text), dtype=np.int64)
    return int(f @ QUALITY_W)


class _ScoreDocs:
    """Actor-pool inference stage: weights fetched once per actor, features
    built per batch, one integer matmul."""

    def __init__(self, w_ref: "ray.ObjectRef") -> None:
        self.w: np.ndarray = ray.get(w_ref)

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        feats = np.array(
            [doc_features(x) for x in texts], dtype=np.int64
        ).reshape(len(texts), 4)
        score = feats @ self.w
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "score": pa.array(score, pa.int64()),
                "keep": pa.array(
                    (score >= QUALITY_THRESHOLD).astype(np.int64), pa.int64()
                ),
            }
        )


def q47_quality_classifier(sf_dir: str):
    """Integer linear-model quality score + keep verdict per document."""
    w_ref = ray.put(QUALITY_W)
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(
        _ScoreDocs,
        fn_constructor_kwargs={"w_ref": w_ref},
        batch_format="pyarrow",
        concurrency=(1, cluster_cpus()),
    ).sort("doc_id")


# ---------------------------------------------------------------------------
# q48: repetition score (duplicated-bigram fraction, Gopher-style)
# ---------------------------------------------------------------------------

REP_SCALE = 1000  # permille, integer-exact


def q48_repetition(sf_dir: str):
    """Within-document repetition signal: the fraction of token bigrams that
    are duplicates of an earlier bigram in the same document (Rae et al. 2021
    'Gopher' repetition filters, the bigram instance). Pure per-batch map —
    no shuffle at all — emitted integer-exact as permille."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def rep(t: pa.Table) -> pa.Table:
        n_bi, n_dup, permille = [], [], []
        for text in t["text"].to_pylist():
            toks = _TOKEN_RE.findall(text.lower())
            bigrams = list(zip(toks, toks[1:]))
            nb = len(bigrams)
            nd = nb - len(set(bigrams))
            n_bi.append(nb)
            n_dup.append(nd)
            permille.append((nd * REP_SCALE) // nb if nb else 0)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bigrams": pa.array(n_bi, pa.int64()),
                "n_dup_bigrams": pa.array(n_dup, pa.int64()),
                "rep_permille": pa.array(permille, pa.int64()),
            }
        )

    return docs.map_batches(rep, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# dd_keep_best: near-dup dedup keeping the highest-quality doc per cluster
# ---------------------------------------------------------------------------

def _member_scores(sf_dir: str, members: set[int]) -> dict[int, int]:
    """Quality scores for the pair-involved docs only: the member id set is
    broadcast (small — bounded by duplicate count, not corpus size), the
    corpus streams through a filtered scoring scan, and only |members| rows
    reduce to the driver."""
    ref = ray.put(pa.array(sorted(members), pa.int64()))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    class ScoreMembers:
        def __init__(self, keys_ref) -> None:
            self.keys = ray.get(keys_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            hit = pc.is_valid(pc.index_in(t["doc_id"], value_set=self.keys))
            f = t.filter(hit)
            return pa.table(
                {
                    "doc_id": f["doc_id"],
                    "score": pa.array(
                        [quality_score(x) for x in f["text"].to_pylist()],
                        pa.int64(),
                    ),
                }
            )

    scored = docs.map_batches(
        ScoreMembers, fn_constructor_kwargs={"keys_ref": ref},
        batch_format="pyarrow", concurrency=(1, 4),
    )
    return {r["doc_id"]: r["score"] for r in scored.take_all()}


def dd_keep_best(sf_dir: str):
    """MinHash near-dup clusters -> keep the member with the highest q47
    quality score (ties by min doc_id). Composes the near-dup pair source,
    the broadcast-keyset member scoring scan, and the clustering/marking
    machinery of ``stages.dedup.near_dup_keep``."""
    from ..stages import dedup

    pairs = dedup.minhash_near_dups(sf_dir)
    members = {
        d
        for col in ("doc_a", "doc_b")
        for d in pairs[col].to_pylist()
    }
    score_of = _member_scores(sf_dir, members) if members else {}
    return dedup.near_dup_keep(sf_dir, pairs=pairs, score_of=score_of)


# ---------------------------------------------------------------------------
# driver registration
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# q67: bloom-prefiltered semi-join (join-reduction technique)
# ---------------------------------------------------------------------------
# The standard big-join reduction: instead of shuffling EVERY lineitem row
# into a key join, a fixed-size (64 KiB) bloom filter of the urgent order
# keys is broadcast and screens rows vectorized — no false negatives, so
# everything the screen drops is exactly-droppable; the surviving ~|match|
# + fp tail is then verified EXACTLY via the coarse-bucket tag-union join,
# so bloom false positives cannot reach the output. At 100 TB the screen
# turns an all-rows shuffle into a matches-only shuffle for the price of
# one broadcast blob.

BLOOM_JOIN_BITS = 1 << 19  # 64 KiB
BLOOM_JOIN_HASHES = 5
URGENT = "1-URGENT"


def q67_bloom_semijoin(sf_dir: str):
    """Count + revenue (cents) of lineitems belonging to urgent orders.
    Output: one row (n_items, revenue_c)."""
    from ..state.bloom import BloomFilter
    from .analytics import cents

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    urgent = orders.filter(expr=f"o_orderpriority == '{URGENT}'")

    def bloom_partial(t: pa.Table) -> pa.Table:
        bf = BloomFilter(n_bits=BLOOM_JOIN_BITS, n_hashes=BLOOM_JOIN_HASHES)
        bf.add_many([str(k) for k in t["o_orderkey"].to_pylist()])
        return pa.table({"bits": pa.array([bf.bits.tobytes()], pa.binary())})

    parts = urgent.map_batches(bloom_partial, batch_format="pyarrow").take_all()
    bf = BloomFilter(n_bits=BLOOM_JOIN_BITS, n_hashes=BLOOM_JOIN_HASHES)
    for r in parts:  # OR-merge: idempotent, order-free
        bf.bits |= np.frombuffer(r["bits"], np.uint8)
    bf_ref = ray.put(bf)

    li = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    )

    class Screen:
        def __init__(self, ref) -> None:
            self.bf = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keys = [str(k) for k in t["l_orderkey"].to_pylist()]
            keep = self.bf.probe_many(keys)
            out = t.filter(pa.array(keep))
            disc = pc.multiply(
                out["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), out["l_discount"]),
            )
            return pa.table(
                {
                    "key": pc.cast(out["l_orderkey"], pa.int64()),
                    "rev_c": cents(disc),
                    "side": pa.array(np.zeros(out.num_rows, np.int64)),
                }
            )

    survivors = li.map_batches(
        Screen, fn_constructor_kwargs={"ref": bf_ref},
        batch_format="pyarrow", concurrency=(1, cluster_cpus()),
    )
    keyside = urgent.map_batches(
        lambda t: pa.table(
            {
                "key": pc.cast(t["o_orderkey"], pa.int64()),
                "rev_c": pa.array(np.zeros(t.num_rows, np.int64)),
                "side": pa.array(np.ones(t.num_rows, np.int64)),
            }
        ),
        batch_format="pyarrow",
    )


    n_groups = max(8, cluster_cpus())

    def bucket(t: pa.Table) -> pa.Table:
        k = t["key"].combine_chunks().to_numpy(zero_copy_only=False)
        return t.append_column("_bk", pa.array(k % n_groups, pa.int64()))

    def verify(df) -> pa.Table:
        true_keys = set(df.loc[df["side"] == 1, "key"])
        rows = df[df["side"] == 0]
        hit = rows[rows["key"].isin(true_keys)]
        return pa.table(
            {
                "n_p": pa.array([len(hit)], pa.int64()),
                "rev_p": pa.array([int(hit["rev_c"].sum())], pa.int64()),
            }
        )

    agg = (
        survivors.union(keyside)
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("_bk")
        .map_groups(verify, batch_format="pandas")
        .aggregate(Sum("n_p", alias_name="n_items"),
                   Sum("rev_p", alias_name="revenue_c"))
    )
    return pa.table(
        {
            "n_items": pa.array([int(agg["n_items"])], pa.int64()),
            "revenue_c": pa.array([int(agg["revenue_c"])], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# q74: classifier threshold sweep (model-evaluation operator)
# ---------------------------------------------------------------------------

SWEEP_THRS = (200, 400, 600, 800, 1000)


def q74_threshold_sweep(sf_dir: str):
    """Precision/recall sweep of the q47 linear quality score against the
    Gopher rule-battery verdict as ground truth — the model-evaluation
    pass that picks a deployment threshold. Per threshold: confusion
    counts + integer ppm precision/recall (0 when the denominator is 0).
    Shape: ONE map pass computes score + truth per doc and emits
    len(SWEEP_THRS) x 4 confusion partials per block; a tiny groupby(thr)
    sums them. Output sorted by thr."""
    from ..pipelines.gopher import _gopher_batch

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    thrs = np.array(SWEEP_THRS, np.int64)

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        feats = np.array(
            [doc_features(x) for x in texts], dtype=np.int64
        ).reshape(len(texts), 4)
        score = feats @ np.asarray(QUALITY_W, np.int64)
        truth = _gopher_batch(t)["keep"].to_numpy().astype(bool)
        rows = {"thr": [], "tp": [], "fp": [], "fn": [], "tn": []}
        for thr in thrs:
            pred = score >= thr
            rows["thr"].append(int(thr))
            rows["tp"].append(int((pred & truth).sum()))
            rows["fp"].append(int((pred & ~truth).sum()))
            rows["fn"].append(int((~pred & truth).sum()))
            rows["tn"].append(int((~pred & ~truth).sum()))
        return pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("thr")
        .aggregate(
            Sum("tp", alias_name="tp"),
            Sum("fp", alias_name="fp"),
            Sum("fn", alias_name="fn"),
            Sum("tn", alias_name="tn"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        tp = t["tp"].combine_chunks().to_numpy(zero_copy_only=False)
        fp = t["fp"].combine_chunks().to_numpy(zero_copy_only=False)
        fn = t["fn"].combine_chunks().to_numpy(zero_copy_only=False)
        prec = np.where(tp + fp > 0, tp * 1_000_000 // np.maximum(tp + fp, 1), 0)
        rec = np.where(tp + fn > 0, tp * 1_000_000 // np.maximum(tp + fn, 1), 0)
        return pa.table(
            {
                "thr": pc.cast(t["thr"], pa.int64()),
                "tp": pc.cast(t["tp"], pa.int64()),
                "fp": pc.cast(t["fp"], pa.int64()),
                "fn": pc.cast(t["fn"], pa.int64()),
                "tn": pc.cast(t["tn"], pa.int64()),
                "precision_ppm": pa.array(prec, pa.int64()),
                "recall_ppm": pa.array(rec, pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort("thr")

QUERIES = {
    "dd_decontaminate": dd_decontaminate,
    "dd_bloom_decontaminate": dd_bloom_decontaminate,
    "q44_shard_assignment": q44_shard_assignment,
    "q45_pack_offsets": q45_pack_offsets,
    "q46_pack_sequences": q46_pack_sequences,
    "q47_quality_classifier": q47_quality_classifier,
    "q48_repetition": q48_repetition,
    "dd_keep_best": dd_keep_best,
    "q67_bloom_semijoin": q67_bloom_semijoin,
    "q74_threshold_sweep": q74_threshold_sweep,
}

_TOKS_SQL = (
    "SELECT doc_id, text, list_filter(regexp_split_to_array(lower(text), "
    "'[^a-z0-9]+'), x -> x <> '') AS ts FROM documents"
)

ORACLE_SQL: dict[str, str] = {
    "dd_decontaminate": f"""
        WITH toks AS ({_TOKS_SQL}),
        grams AS (
            SELECT doc_id,
                   array_to_string(list_slice(ts, i, i + {NGRAM_N} - 1), ' ')
                       AS gram
            FROM (
                SELECT doc_id, ts,
                       unnest(range(1, len(ts) - {NGRAM_N} + 2)) AS i
                FROM toks WHERE len(ts) >= {NGRAM_N}
            )
        ),
        eval_grams AS (
            SELECT DISTINCT gram FROM grams WHERE doc_id % {EVAL_MOD} = 0
        ),
        hits AS (
            SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n_hits
            FROM grams g JOIN eval_grams e USING (gram)
            GROUP BY g.doc_id
        )
        SELECT d.doc_id,
               CAST(d.doc_id % {EVAL_MOD} = 0 AS BIGINT) AS is_eval,
               CAST(COALESCE(h.n_hits, 0) AS BIGINT) AS n_hits,
               CAST(COALESCE(h.n_hits, 0) > 0 AS BIGINT) AS contaminated
        FROM documents d LEFT JOIN hits h USING (doc_id)
        ORDER BY d.doc_id
    """,
    "q44_shard_assignment": f"""
        WITH keyed AS (
            SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS h,
                   CAST(ascii(substr(md5(CAST(doc_id AS VARCHAR)), 1, 1))
                        % {NSHARDS} AS BIGINT) AS shard
            FROM documents
        )
        SELECT doc_id, shard,
               CAST(row_number() OVER (
                   PARTITION BY shard ORDER BY h, doc_id) - 1 AS BIGINT)
                   AS pos
        FROM keyed ORDER BY doc_id
    """,
    "q45_pack_offsets": f"""
        WITH nt AS (
            SELECT doc_id, CAST(len(list_filter(regexp_split_to_array(
                lower(text), '[^a-z0-9]+'), x -> x <> '')) AS BIGINT)
                AS n_tokens
            FROM documents
        ),
        off AS (
            SELECT doc_id, n_tokens,
                   CAST(SUM(n_tokens) OVER (
                       ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
                       - n_tokens AS BIGINT) AS tok_start
            FROM nt
        )
        SELECT doc_id, n_tokens, tok_start,
               CAST(tok_start // {SEQLEN} AS BIGINT) AS seq_first,
               CAST(CASE WHEN n_tokens = 0 THEN tok_start // {SEQLEN}
                    ELSE (tok_start + n_tokens - 1) // {SEQLEN} END
                    AS BIGINT) AS seq_last
        FROM off ORDER BY doc_id
    """,
    "q46_pack_sequences": f"""
        WITH nt AS (
            SELECT doc_id, CAST(len(list_filter(regexp_split_to_array(
                lower(text), '[^a-z0-9]+'), x -> x <> '')) AS BIGINT)
                AS n_tokens
            FROM documents
        ),
        off AS (
            SELECT doc_id, n_tokens,
                   CAST(SUM(n_tokens) OVER (
                       ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
                       - n_tokens AS BIGINT) AS tok_start
            FROM nt WHERE n_tokens > 0
        ),
        spans AS (
            SELECT doc_id, n_tokens, tok_start,
                   unnest(range(tok_start // {SEQLEN},
                                (tok_start + n_tokens - 1) // {SEQLEN} + 1))
                       AS seq_id
            FROM off
        )
        SELECT seq_id,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(LEAST(tok_start + n_tokens, (seq_id + 1) * {SEQLEN})
                        - GREATEST(tok_start, seq_id * {SEQLEN}))
                    AS BIGINT) AS n_tokens
        FROM spans GROUP BY seq_id ORDER BY seq_id
    """,
    "q48_repetition": f"""
        WITH toks AS ({_TOKS_SQL}),
        bi AS (
            SELECT doc_id,
                   array_to_string(list_slice(ts, i, i + 1), ' ') AS bigram
            FROM (
                SELECT doc_id, ts, unnest(range(1, len(ts))) AS i
                FROM toks WHERE len(ts) >= 2
            )
        ),
        agg AS (
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_bigrams,
                   CAST(COUNT(*) - COUNT(DISTINCT bigram) AS BIGINT)
                       AS n_dup_bigrams
            FROM bi GROUP BY doc_id
        )
        SELECT d.doc_id,
               CAST(COALESCE(a.n_bigrams, 0) AS BIGINT) AS n_bigrams,
               CAST(COALESCE(a.n_dup_bigrams, 0) AS BIGINT) AS n_dup_bigrams,
               CAST(CASE WHEN COALESCE(a.n_bigrams, 0) = 0 THEN 0
                    ELSE (a.n_dup_bigrams * {REP_SCALE}) // a.n_bigrams END
                    AS BIGINT) AS rep_permille
        FROM documents d LEFT JOIN agg a USING (doc_id)
        ORDER BY d.doc_id
    """,
    "q47_quality_classifier": f"""
        WITH toks AS ({_TOKS_SQL}),
        feats AS (
            SELECT doc_id,
                   CAST(len(ts) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(ts)) AS BIGINT) AS n_uniq,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(len(list_filter(ts, x -> length(x) >= 6))
                        AS BIGINT) AS n_long
            FROM toks
        )
        SELECT doc_id,
               CAST({QUALITY_W[0]} * n_tokens + {QUALITY_W[1]} * n_uniq
                    + {QUALITY_W[2]} * n_chars
                    + {QUALITY_W[3]} * n_long AS BIGINT) AS score,
               CAST(({QUALITY_W[0]} * n_tokens + {QUALITY_W[1]} * n_uniq
                     + {QUALITY_W[2]} * n_chars + {QUALITY_W[3]} * n_long)
                    >= {QUALITY_THRESHOLD} AS BIGINT) AS keep
        FROM feats ORDER BY doc_id
    """,
    "q67_bloom_semijoin": f"""
        SELECT CAST(COUNT(*) AS BIGINT) AS n_items,
               CAST(SUM(CAST(round(
                   l_extendedprice * (1 - l_discount) * 100, 0)
                   AS BIGINT)) AS BIGINT) AS revenue_c
        FROM lineitem
        WHERE l_orderkey IN (
            SELECT o_orderkey FROM orders
            WHERE o_orderpriority = '{URGENT}'
        )
    """,
}

# The bloom path is exact by construction (no false negatives + exact verify
# of the candidate tail), so it shares the exact path's oracle verbatim.
ORACLE_SQL["dd_bloom_decontaminate"] = ORACLE_SQL["dd_decontaminate"]


# q74's oracle composes the q47 score SQL with the q57 (gopher) truth SQL
from .gopher import ORACLE_SQL as _GOPHER_SQL  # noqa: E402

ORACLE_SQL["q74_threshold_sweep"] = f"""
    WITH score AS ({ORACLE_SQL["q47_quality_classifier"]}),
    truth AS ({_GOPHER_SQL["q57_gopher_rules"]}),
    thrs AS (SELECT CAST(unnest({list(SWEEP_THRS)}) AS BIGINT) AS thr),
    conf AS (
        SELECT t.thr,
               CAST(SUM(CASE WHEN s.score >= t.thr AND g.keep = 1
                        THEN 1 ELSE 0 END) AS BIGINT) AS tp,
               CAST(SUM(CASE WHEN s.score >= t.thr AND g.keep = 0
                        THEN 1 ELSE 0 END) AS BIGINT) AS fp,
               CAST(SUM(CASE WHEN s.score < t.thr AND g.keep = 1
                        THEN 1 ELSE 0 END) AS BIGINT) AS fn,
               CAST(SUM(CASE WHEN s.score < t.thr AND g.keep = 0
                        THEN 1 ELSE 0 END) AS BIGINT) AS tn
        FROM thrs t CROSS JOIN score s
        JOIN truth g USING (doc_id)
        GROUP BY t.thr
    )
    SELECT CAST(thr AS BIGINT) AS thr, tp, fp, fn, tn,
           CAST(CASE WHEN tp + fp > 0
                THEN tp * 1000000 // (tp + fp) ELSE 0 END AS BIGINT)
               AS precision_ppm,
           CAST(CASE WHEN tp + fn > 0
                THEN tp * 1000000 // (tp + fn) ELSE 0 END AS BIGINT)
               AS recall_ppm
    FROM conf ORDER BY thr
"""


# ---------------------------------------------------------------------------
# q88: calibration bins (reliability diagram) for the q47 quality score
# against the Gopher-rule verdict — the model-eval sibling of q74: instead
# of sweeping a decision threshold, bucket documents by score and measure
# the empirical positive rate per bucket.
# ---------------------------------------------------------------------------

CALIB_BIN_W = 200
CALIB_BIN_MAX = 7  # scores >= CALIB_BIN_W * CALIB_BIN_MAX clamp to the top bin


def q88_calibration_bins(sf_dir: str):
    """Per score bin (floor(score / CALIB_BIN_W), clamped to
    [0, CALIB_BIN_MAX]): doc count, Gopher-keep count, keep-rate ppm.
    ONE map pass emits per-block (bin, n, pos) partials; a <=8-row groupby
    finishes. Integer-exact end to end."""
    from ..pipelines.gopher import _gopher_batch

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        feats = np.array(
            [doc_features(x) for x in texts], dtype=np.int64
        ).reshape(len(texts), 4)
        score = feats @ np.asarray(QUALITY_W, np.int64)
        truth = _gopher_batch(t)["keep"].to_numpy().astype(np.int64)
        bins = np.clip(score // CALIB_BIN_W, 0, CALIB_BIN_MAX)
        ids, inv = np.unique(bins, return_inverse=True)
        n = np.bincount(inv, minlength=len(ids)).astype(np.int64)
        pos = np.bincount(inv, weights=truth, minlength=len(ids)).astype(np.int64)
        return pa.table(
            {
                "bin": pa.array(ids, pa.int64()),
                "n_p": pa.array(n, pa.int64()),
                "pos_p": pa.array(pos, pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].combine_chunks().to_numpy(zero_copy_only=False)
        pos = t["n_pos"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bin": t["bin"],
                "n": pa.array(n, pa.int64()),
                "n_pos": pa.array(pos, pa.int64()),
                "keep_rate_ppm": pa.array(
                    np.where(n > 0, pos * 1_000_000 // np.maximum(n, 1), 0),
                    pa.int64(),
                ),
            }
        )

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n_p", alias_name="n"), Sum("pos_p", alias_name="n_pos"))
        .map_batches(finish, batch_format="pyarrow")
        .sort("bin")
    )


QUERIES["q88_calibration_bins"] = q88_calibration_bins

ORACLE_SQL["q88_calibration_bins"] = f"""
    WITH score AS ({ORACLE_SQL["q47_quality_classifier"]}),
    truth AS ({_GOPHER_SQL["q57_gopher_rules"]}),
    binned AS (
        SELECT greatest(least(s.score // {CALIB_BIN_W}, {CALIB_BIN_MAX}), 0)
                   AS bin,
               g.keep
        FROM score s JOIN truth g USING (doc_id)
    )
    SELECT CAST(bin AS BIGINT) AS bin,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(keep) AS BIGINT) AS n_pos,
           CAST(SUM(keep) * 1000000 // COUNT(*) AS BIGINT) AS keep_rate_ppm
    FROM binned GROUP BY bin ORDER BY bin
"""


# ---------------------------------------------------------------------------
# q90: exact ROC-AUC of the q47 score against the Gopher verdict —
# Mann-Whitney U in pure integers: 2U = 2*|{(p,n): s_p > s_n}| + |{s_p = s_n}|,
# AUC_ppm = 1e6 * 2U // (2 * n_pos * n_neg).
# Shape: ONE map pass -> per-block (score, pos, neg) partials; the grouped
# per-score histogram is DISTINCT-SCORE-sized (bounded by the integer
# feature space, not the corpus — same argument as q55's histogram
# quantiles), so the prefix-sum finish runs on the driver over that tiny
# table.
# ---------------------------------------------------------------------------

def q90_auc(sf_dir: str):
    """(n_pos, n_neg, u2, auc_ppm) — one row, integer-exact."""
    from ..pipelines.gopher import _gopher_batch

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        feats = np.array(
            [doc_features(x) for x in texts], dtype=np.int64
        ).reshape(len(texts), 4)
        score = feats @ np.asarray(QUALITY_W, np.int64)
        truth = _gopher_batch(t)["keep"].to_numpy().astype(np.int64)
        ids, inv = np.unique(score, return_inverse=True)
        pos = np.bincount(inv, weights=truth, minlength=len(ids)).astype(np.int64)
        n = np.bincount(inv, minlength=len(ids)).astype(np.int64)
        return pa.table(
            {
                "score": pa.array(ids, pa.int64()),
                "pos_p": pa.array(pos, pa.int64()),
                "neg_p": pa.array(n - pos, pa.int64()),
            }
        )

    hist = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("score")
        .aggregate(Sum("pos_p", alias_name="pos"), Sum("neg_p", alias_name="neg"))
        .sort("score")
    )
    t = pa.concat_tables(
        [b for b in hist.iter_batches(batch_format="pyarrow", batch_size=None)]
    )
    pos = t["pos"].to_numpy(zero_copy_only=False)
    neg = t["neg"].to_numpy(zero_copy_only=False)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    neg_below = np.concatenate([[0], np.cumsum(neg)[:-1]])
    u2 = int(2 * (pos * neg_below).sum() + (pos * neg).sum())
    auc_ppm = (1_000_000 * u2) // (2 * n_pos * n_neg) if n_pos and n_neg else 0
    return pa.table(
        {
            "n_pos": pa.array([n_pos], pa.int64()),
            "n_neg": pa.array([n_neg], pa.int64()),
            "u2": pa.array([u2], pa.int64()),
            "auc_ppm": pa.array([auc_ppm], pa.int64()),
        }
    )


QUERIES["q90_auc"] = q90_auc

ORACLE_SQL["q90_auc"] = f"""
    WITH score AS ({ORACLE_SQL["q47_quality_classifier"]}),
    truth AS ({_GOPHER_SQL["q57_gopher_rules"]}),
    sc AS (
        SELECT s.score, g.keep FROM score s JOIN truth g USING (doc_id)
    ),
    h AS (
        SELECT score, CAST(SUM(keep) AS BIGINT) AS pos,
               CAST(SUM(1 - keep) AS BIGINT) AS neg
        FROM sc GROUP BY score
    ),
    u AS (
        SELECT CAST(COALESCE(SUM(2 * a.pos * b.neg), 0) AS BIGINT) AS gt
        FROM h a JOIN h b ON a.score > b.score
    ),
    tie AS (SELECT CAST(COALESCE(SUM(pos * neg), 0) AS BIGINT) AS eq FROM h),
    tot AS (SELECT CAST(SUM(pos) AS BIGINT) AS n_pos,
                   CAST(SUM(neg) AS BIGINT) AS n_neg FROM h)
    SELECT tot.n_pos, tot.n_neg,
           CAST(u.gt + tie.eq AS BIGINT) AS u2,
           CAST(CASE WHEN tot.n_pos > 0 AND tot.n_neg > 0
                THEN (1000000 * (u.gt + tie.eq)) // (2 * tot.n_pos * tot.n_neg)
                ELSE 0 END AS BIGINT) AS auc_ppm
    FROM u CROSS JOIN tie CROSS JOIN tot
"""


# ---------------------------------------------------------------------------
# ta_zorder: Z-order (Morton) data layout vs naive id-ordered layout —
# per-chunk min/max pruning envelopes. The layout-optimization operator a
# Parquet lake needs: sorting the corpus by an interleaved (length-bucket,
# source-bucket) Morton code makes each written chunk's min/max statistics
# tight in BOTH dimensions, so a reader filtering on either column can skip
# chunks (Morton 1966; the technique behind Delta/Iceberg Z-ORDER BY).
# Emitting BOTH layouts side by side makes the pruning win a checkable
# number instead of a claim.
# ---------------------------------------------------------------------------

ZO_BITS = 4  # 16 buckets per dimension
ZO_CHUNK = 64  # docs per written chunk


def _zo_features(t: pa.Table, mc: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer layout dimensions: x = length bucket (n_chars * 16 // mc),
    y = source hash bucket (first md5 hex nibble). Shared pipeline/SQL."""
    x = (
        t["n_chars"].combine_chunks().to_numpy(zero_copy_only=False)
        * (1 << ZO_BITS)
        // mc
    ).astype(np.int64)
    y = np.array(
        [
            int(hashlib.md5(s.encode()).hexdigest()[0], 16)
            for s in t["source"].to_pylist()
        ],
        np.int64,
    )
    return x, y


def _morton(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = np.zeros_like(x)
    for b in range(ZO_BITS):
        m |= ((x >> b) & 1) << (2 * b)
        m |= ((y >> b) & 1) << (2 * b + 1)
    return m


def ta_zorder(sf_dir: str):
    """Per-chunk pruning envelopes under two physical layouts: 'zorder'
    (sorted by Morton code of (length bucket, source bucket)) and 'byid'
    (naive doc_id order). Output per (layout, chunk_id): n_docs, min/max of
    both dimensions, and vol = (max_x-min_x+1)*(max_y-min_y+1) — the
    fraction of the filter space a reader must consider chunk-intersecting.

    Shape: one feature map pass; ONE sort per layout (the all-to-all any
    layout rewrite pays by definition); global chunk positions via the
    per-block offset prefix scan (the q45 pattern — one int per block to
    the driver); per-chunk Min/Max/Sum groupby. Nothing corpus-sized on the
    driver."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars", "source"])
    mc = int(docs.max("n_chars")) + 1

    def featurize(t: pa.Table) -> pa.Table:
        x, y = _zo_features(t, mc)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64()),
                "morton": pa.array(_morton(x, y), pa.int64()),
            }
        )

    feats = docs.map_batches(featurize, batch_format="pyarrow")

    def chunked(ordered: rd.Dataset, layout: str) -> rd.Dataset:
        refs = ordered.materialize().to_arrow_refs()

        @ray.remote
        def _blockcount(t: pa.Table) -> int:
            return t.num_rows

        @ray.remote
        def _assign(t: pa.Table, base: int, lay: str) -> pa.Table:
            if not t.num_rows or "doc_id" not in t.column_names:
                return pa.schema(
                    [
                        ("layout", pa.string()),
                        ("chunk_id", pa.int64()),
                        ("x", pa.int64()),
                        ("y", pa.int64()),
                        ("one", pa.int64()),
                    ]
                ).empty_table()
            pos = base + np.arange(t.num_rows, dtype=np.int64)
            return pa.table(
                {
                    "layout": pa.array([lay] * t.num_rows, pa.string()),
                    "chunk_id": pa.array(pos // ZO_CHUNK, pa.int64()),
                    "x": t["x"],
                    "y": t["y"],
                    "one": pa.array(np.ones(t.num_rows, np.int64)),
                }
            )

        counts = ray.get([_blockcount.remote(r) for r in refs])
        bases = (
            np.concatenate([[0], np.cumsum(counts)[:-1]]) if counts else []
        )
        return rd.from_arrow_refs(
            [_assign.remote(r, int(b), layout) for r, b in zip(refs, bases)]
        )

    z = chunked(feats.sort(["morton", "doc_id"]), "zorder")
    n = chunked(feats.sort("doc_id"), "byid")

    from ray.data.aggregate import Max, Min

    def finish(t: pa.Table) -> pa.Table:
        vol = pc.multiply(
            pc.add(pc.subtract(t["max_x"], t["min_x"]), 1),
            pc.add(pc.subtract(t["max_y"], t["min_y"]), 1),
        )
        return t.append_column("vol", pc.cast(vol, pa.int64()))

    return (
        z.union(n)
        .groupby(["layout", "chunk_id"])
        .aggregate(
            Sum("one", alias_name="n_docs"),
            Min("x", alias_name="min_x"),
            Max("x", alias_name="max_x"),
            Min("y", alias_name="min_y"),
            Max("y", alias_name="max_y"),
        )
        .map_batches(finish, batch_format="pyarrow")
        .sort(["layout", "chunk_id"])
    )


QUERIES["ta_zorder"] = ta_zorder

_ZO_FEAT_SQL = f"""
    SELECT doc_id,
           CAST(n_chars * {1 << ZO_BITS} // mc AS BIGINT) AS x,
           CAST(strpos('0123456789abcdef', substr(md5(source), 1, 1)) - 1
                AS BIGINT) AS y
    FROM documents CROSS JOIN (SELECT MAX(n_chars) + 1 AS mc FROM documents)
"""

ORACLE_SQL["ta_zorder"] = f"""
    WITH f AS ({_ZO_FEAT_SQL}),
    m AS (
        SELECT doc_id, x, y,
               ((x // 1) % 2) * 1 + ((y // 1) % 2) * 2
             + ((x // 2) % 2) * 4 + ((y // 2) % 2) * 8
             + ((x // 4) % 2) * 16 + ((y // 4) % 2) * 32
             + ((x // 8) % 2) * 64 + ((y // 8) % 2) * 128 AS morton
        FROM f
    ),
    ranked AS (
        SELECT 'zorder' AS layout,
               (row_number() OVER (ORDER BY morton, doc_id) - 1)
                   // {ZO_CHUNK} AS chunk_id, x, y
        FROM m
        UNION ALL
        SELECT 'byid' AS layout,
               (row_number() OVER (ORDER BY doc_id) - 1)
                   // {ZO_CHUNK} AS chunk_id, x, y
        FROM m
    )
    SELECT layout, CAST(chunk_id AS BIGINT) AS chunk_id,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(MIN(x) AS BIGINT) AS min_x, CAST(MAX(x) AS BIGINT) AS max_x,
           CAST(MIN(y) AS BIGINT) AS min_y, CAST(MAX(y) AS BIGINT) AS max_y,
           CAST((MAX(x) - MIN(x) + 1) * (MAX(y) - MIN(y) + 1) AS BIGINT)
               AS vol
    FROM ranked
    GROUP BY layout, chunk_id
    ORDER BY layout, chunk_id
"""
