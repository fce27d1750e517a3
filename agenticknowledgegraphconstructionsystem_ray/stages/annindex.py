"""Persisted ANN index artifacts — build ONCE per corpus, query many.

The reference persists its search structure (tsvector GENERATED columns +
GIN indexes, ``/root/reference/db_init.py:35-42``) so queries never re-derive
it; this module applies the same build-once-query-many contract to the
engine's vector-search family, which previously re-trained centroids /
codebooks / re-coded every vector on every call. Both layouts are cached
through ``state.artifacts.ensure_artifact``, like every persisted artifact:
the ``_DONE`` contract carries the quantizer parameters and the source
table's fingerprint, so a changed corpus invalidates the index.

Artifact layout (under ``ann_root(sf_dir, table)``)::

    ivf_centroids.parquet   (cluster:int64, centroid:list<double>)
    pq_codebooks.parquet    (sub:int64, cluster:int64, centroid:list<int64>)
    coded/ivfb=<b>/*.parquet
        vec_id:int64, embedding:list<double>, pq_code:list<int64>,
        bucket:int32 (= the ivf bucket, duplicated into the data so reads
        need no hive-column parsing), lshb:int32 (sign-LSH code; rows are
        lshb-sorted within each block so parquet row-group stats prune
        LSH probes at the read)

Scale shape: the build is one driver-side sample (IVF centroids), one
distributed integer PQ training loop (tiny partials), and ONE coding pass
over the corpus ending in a partitioned ``write_parquet`` — no all-to-all.
Queries then read ONLY their probed ``ivfb=`` directories (IVF/IVFPQ:
~nprobe/nlist of the corpus), only ``(vec_id, pq_code)`` columns (PQ: the
16x-compressed representation), or row-group-pruned ``lshb`` slices (LSH)
— at 10^11 vectors the index is written once per crawl snapshot and every
query afterwards touches a corpus-fraction, exactly the FAISS on-disk
IVF/PQ deployment recipe (Jegou et al. 2011).

Determinism: the builders are the SAME deterministic kernels the per-call
paths used (``_kmeans_lite`` sample training, integer Lloyd's PQ partials,
seeded hyperplanes), so artifact-backed queries are bit-identical to the
live paths and to the unchanged sequential goldens — asserted by
tests/test_annindex.py and the ann_* oracle battery.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..state.artifacts import cache_root, ensure_artifact, source_fingerprint

ANN_INDEX_VERSION = 2  # v2: + lshproj/ prefix-partitioned LSH projection
ANN_NLIST = 16  # IVF partitions — must match ivf_topk's default
# The LSH projection partitions by the code's top LSH_PREFIX_BITS bits
# (16 dirs at 4 bits): a Hamming-1 multiprobe of an nbits code touches the
# query's own prefix plus one prefix per flipped HIGH bit — 1 +
# LSH_PREFIX_BITS of the 2^LSH_PREFIX_BITS partitions (5/16 of the corpus
# at 4 bits), with files lshb-sorted inside for row-group locality. Two
# projections of one index = one partitioning key per consumer, the
# secondary-index layout.
LSH_PREFIX_BITS = 4


def ann_root(sf_dir: str, table: str = "embeddings") -> str:
    """Cache root of the ANN index for a corpus table — the one place the
    path scheme lives (bench and tests clear caches through this)."""
    return cache_root(
        "annindex", os.path.basename(os.path.normpath(sf_dir)), table)


def _contract(sf_dir: str, table: str) -> dict:
    from ..sources.tables import table_path
    from .similarity import LSH_BITS, LSH_SEED, PQ_ITERS, PQ_K, PQ_M

    return {
        "v": ANN_INDEX_VERSION,
        "nlist": ANN_NLIST,
        "m": PQ_M,
        "kk": PQ_K,
        "iters": PQ_ITERS,
        "nbits": LSH_BITS,
        "seed": LSH_SEED,
        "pbits": LSH_PREFIX_BITS,
        # the source identity: a replaced corpus invalidates the artifact
        # even when the cache root collides (equal sf_dir basenames)
        "src": source_fingerprint(table_path(sf_dir, table)),
    }


def _write_quantizers(tmp: str, ivf_cent: np.ndarray,
                      pq_cents: np.ndarray) -> None:
    """ivf_centroids.parquet + pq_codebooks.parquet (load_ivf_centroids /
    load_pq_codebooks read them back bit-exactly)."""
    pq.write_table(
        pa.table(
            {
                "cluster": pa.array(range(len(ivf_cent)), pa.int64()),
                "centroid": pa.array(
                    ivf_cent.tolist(), pa.list_(pa.float64())
                ),
            }
        ),
        os.path.join(tmp, "ivf_centroids.parquet"),
    )
    m, kk, _ = pq_cents.shape
    pq.write_table(
        pa.table(
            {
                "sub": pa.array(
                    [j for j in range(m) for _ in range(kk)], pa.int64()
                ),
                "cluster": pa.array(list(range(kk)) * m, pa.int64()),
                "centroid": pa.array(
                    [pq_cents[j, c].tolist() for j in range(m)
                     for c in range(kk)],
                    pa.list_(pa.int64()),
                ),
            }
        ),
        os.path.join(tmp, "pq_codebooks.parquet"),
    )


def ensure_ann_index(sf_dir: str, table: str = "embeddings") -> str:
    """Build (or reuse) the persisted ANN index for a corpus table."""
    return ensure_artifact(
        ann_root(sf_dir, table), _contract(sf_dir, table),
        lambda tmp: _build_ann_index(tmp, sf_dir, table),
    )


def _build_ann_index(tmp: str, sf_dir: str, table: str) -> None:
    from ..sources.tables import read_table
    from .similarity import (
        LSH_BITS,
        _kmeans_lite,
        _matrix,
        km_quantize,
        lsh_codes,
        lsh_planes,
        pq_encode,
        train_pq_codebooks,
    )

    ds = read_table(sf_dir, table, columns=["vec_id", "embedding"])

    # IVF centroids: deterministic driver-side sample trainer — identical
    # conventions to the per-call path (file-order limit(2048) sample,
    # normalized rows, _kmeans_lite fixed seed/iters).
    sample_rows = ds.limit(2048).take_all()
    S = np.asarray([r["embedding"] for r in sample_rows], dtype=np.float64)
    S = S / np.linalg.norm(S, axis=1, keepdims=True)
    ivf_cent = _kmeans_lite(S, ANN_NLIST)
    dim = S.shape[1]

    # PQ codebooks: the shared distributed integer Lloyd's trainer (partials
    # merge by integer addition — bit-equal at any parallelism).
    pq_cents = train_pq_codebooks(ds)

    planes = lsh_planes(dim)
    ref = ray.put((ivf_cent, pq_cents, planes))

    def code_block(t: pa.Table, _ref=ref) -> pa.Table:
        icent, pcents, pl = ray.get(_ref)
        if t.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float64())),
                    "pq_code": pa.array([], pa.list_(pa.int64())),
                    "bucket": pa.array([], pa.int32()),
                    "lshb": pa.array([], pa.int32()),
                    "ivfb": pa.array([], pa.int32()),
                }
            )
        raw = _matrix(t)
        rn = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        ivfb = np.argmax(rn @ icent.T, axis=1).astype(np.int32)
        codes = pq_encode(km_quantize(raw), pcents)  # (n, M) int64
        lshb = lsh_codes(raw, pl).astype(np.int32)
        # lshb-sort within the block: the partitioned write preserves row
        # order per partition value, so every output file is lshb-sorted
        # and LSH probe reads prune at row-group granularity
        order = np.argsort(lshb, kind="mergesort")
        emb = t["embedding"].combine_chunks().take(pa.array(order))
        return pa.table(
            {
                "vec_id": t["vec_id"].combine_chunks().take(pa.array(order)),
                "embedding": emb,
                "pq_code": pa.array(
                    codes[order].tolist(), pa.list_(pa.int64())
                ),
                "bucket": pa.array(ivfb[order], pa.int32()),
                "lshb": pa.array(lshb[order], pa.int32()),
                "ivfb": pa.array(ivfb[order], pa.int32()),
            }
        )

    ds.map_batches(code_block, batch_format="pyarrow").write_parquet(
        os.path.join(tmp, "coded"), partition_cols=["ivfb"],
        compression="zstd",
    )

    # Second projection of the same index, partitioned by the LSH code's
    # top LSH_PREFIX_BITS bits — derived from the coded tree (no
    # recompute). One partitioning key per consumer: IVF probes prune on
    # ivfb=, LSH probes prune on lshp=.
    import glob as _glob

    def lsh_block(t: pa.Table) -> pa.Table:
        lshb = t["lshb"].combine_chunks().to_numpy(zero_copy_only=False)
        lshp = (
            lshb.astype(np.int64) >> (LSH_BITS - LSH_PREFIX_BITS)
        ).astype(np.int32)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "embedding": t["embedding"],
                "lshb": t["lshb"],
                "lshp": pa.array(lshp, pa.int32()),
            }
        )

    coded_files = sorted(
        _glob.glob(
            os.path.join(tmp, "coded", "**", "*.parquet"), recursive=True
        )
    )
    rd.read_parquet(
        coded_files, columns=["vec_id", "embedding", "lshb"]
    ).map_batches(lsh_block, batch_format="pyarrow").write_parquet(
        os.path.join(tmp, "lshproj"), partition_cols=["lshp"],
        compression="zstd",
    )
    _write_quantizers(tmp, ivf_cent, pq_cents)


def load_ivf_centroids(root: str) -> np.ndarray:
    """(nlist, dim) float64 — exact float64 roundtrip of the trained
    centroids."""
    t = pq.read_table(os.path.join(root, "ivf_centroids.parquet"))
    order = np.argsort(t["cluster"].to_numpy())
    return np.asarray(t["centroid"].to_pylist(), np.float64)[order]


def load_pq_codebooks(root: str) -> np.ndarray:
    """(M, K, dsub) int64 — the integer codebooks, bit-exact."""
    t = pq.read_table(os.path.join(root, "pq_codebooks.parquet"))
    subs = t["sub"].to_numpy()
    cls = t["cluster"].to_numpy()
    cent = np.asarray(t["centroid"].to_pylist(), np.int64)
    m = int(subs.max()) + 1
    kk = int(cls.max()) + 1
    out = np.zeros((m, kk, cent.shape[1]), np.int64)
    out[subs, cls] = cent
    return out


def coded_dataset(
    root: str,
    buckets: set[int] | None = None,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """The coded corpus — pruned to the probed IVF partitions when
    ``buckets`` is given (each probed directory read directly; a missing
    directory under a valid marker is a legitimately empty bucket, same
    contract as training._read_bucket)."""
    import glob

    base = os.path.join(root, "coded")
    if buckets is None:
        paths = sorted(
            glob.glob(os.path.join(base, "**", "*.parquet"), recursive=True)
        )
    else:
        paths = []
        for b in sorted(buckets):
            d = os.path.join(base, f"ivfb={b}")
            if os.path.isdir(d):
                paths.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
            elif not os.path.exists(os.path.join(root, "_DONE")):
                raise FileNotFoundError(
                    f"ANN index {root} lost its _DONE marker while probing "
                    f"ivfb={b} — index removed or rebuilt mid-query"
                )
    if not paths:  # every probed bucket empty: typed empty dataset
        return rd.from_arrow(
            pa.schema(
                [
                    ("vec_id", pa.int64()),
                    ("embedding", pa.list_(pa.float64())),
                    ("pq_code", pa.list_(pa.int64())),
                    ("bucket", pa.int32()),
                    ("lshb", pa.int32()),
                ]
            ).empty_table()
        )
    return rd.read_parquet(paths, columns=columns)


def lsh_dataset(
    root: str, prefixes: set[int], columns: list[str] | None = None
) -> rd.Dataset:
    """The LSH projection pruned to the probed prefix partitions (same
    missing-dir-vs-lost-marker contract as coded_dataset)."""
    import glob

    paths = []
    for p in sorted(prefixes):
        d = os.path.join(root, "lshproj", f"lshp={p}")
        if os.path.isdir(d):
            paths.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
        elif not os.path.exists(os.path.join(root, "_DONE")):
            raise FileNotFoundError(
                f"ANN index {root} lost its _DONE marker while probing "
                f"lshp={p} — index removed or rebuilt mid-query"
            )
    if not paths:
        return rd.from_arrow(
            pa.schema(
                [
                    ("vec_id", pa.int64()),
                    ("embedding", pa.list_(pa.float64())),
                    ("lshb", pa.int32()),
                ]
            ).empty_table()
        )
    return rd.read_parquet(paths, columns=columns)


# ---------------------------------------------------------------------------
# Incremental index build — the crawl-increment story for the vector
# family (dd_minhash_incremental's shape): quantizers are trained ONCE on
# the base corpus and FROZEN (the FAISS train-once-add-forever contract);
# an increment codes only the delta vectors with the frozen quantizers and
# APPENDS new partition files — base files are never rewritten. Because
# frozen-quantizer coding is per-vector deterministic, base ∪ delta coded
# separately is bit-identical to coding the union in one pass — the same
# provable-equivalence contract as the MinHash band-index increment.
# ---------------------------------------------------------------------------

ANN_INCR_VERSION = 1


def incr_root(sf_dir: str, table: str = "embeddings") -> str:
    return ann_root(sf_dir, table) + "_incr"


def ensure_ann_index_incremental(
    sf_dir: str, table: str = "embeddings"
) -> tuple[str, int]:
    """Two-phase build: base index from the OLD half (vec_id < split_id,
    split at half the corpus count), then an increment pass coding the
    delta with the frozen base quantizers into ``coded_delta/``. Returns
    (root, split_id)."""
    from ..sources.tables import table_path

    # split from the parquet footer: the contract is computed before any
    # data is read, and a changed row count changes the split
    split = pq.read_metadata(table_path(sf_dir, table)).num_rows // 2
    contract = dict(_contract(sf_dir, table), iv=ANN_INCR_VERSION,
                    split=split)
    root = ensure_artifact(
        incr_root(sf_dir, table), contract,
        lambda tmp: _build_ann_index_incremental(tmp, sf_dir, table, split),
    )
    return root, split


def _build_ann_index_incremental(
    tmp: str, sf_dir: str, table: str, split: int
) -> None:
    from ..sources.tables import read_table
    from .similarity import (
        _kmeans_lite,
        _matrix,
        km_quantize,
        pq_encode,
        train_pq_codebooks,
    )
    from ..runtime import cluster_cpus

    ds = read_table(sf_dir, table, columns=["vec_id", "embedding"])
    n_parts = max(8, cluster_cpus())
    # repartition after the filters: a filter leaves empty blocks whose
    # downstream tasks would emit schemaless empties (the "new schema: ."
    # warning class); row-identical, order-irrelevant here
    old = ds.filter(expr=f"vec_id < {split}").repartition(n_parts)
    delta = ds.filter(expr=f"vec_id >= {split}").repartition(n_parts)

    # ---- base phase: quantizers trained on the OLD half only.
    # Canonical sample rule: the rows with the SMALLEST vec_ids (id-bound
    # filter + explicit vec_id sort) — blocking/order-proof, unlike a
    # filter+limit whose row order Ray does not guarantee.
    sample_rows = ds.filter(
        expr=f"vec_id < {min(split, 2048)}"
    ).take_all()
    sample_rows.sort(key=lambda r: r["vec_id"])
    S = np.asarray([r["embedding"] for r in sample_rows], dtype=np.float64)
    S = S / np.linalg.norm(S, axis=1, keepdims=True)
    ivf_cent = _kmeans_lite(S, ANN_NLIST)
    pq_cents = train_pq_codebooks(old)
    ref = ray.put((ivf_cent, pq_cents))

    def code(t: pa.Table, _ref=ref) -> pa.Table:
        icent, pcents = ray.get(_ref)
        if t.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float64())),
                    "pq_code": pa.array([], pa.list_(pa.int64())),
                    "bucket": pa.array([], pa.int32()),
                    "ivfb": pa.array([], pa.int32()),
                }
            )
        raw = _matrix(t)
        rn = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        ivfb = np.argmax(rn @ icent.T, axis=1).astype(np.int32)
        codes = pq_encode(km_quantize(raw), pcents)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "embedding": t["embedding"],
                "pq_code": pa.array(codes.tolist(), pa.list_(pa.int64())),
                "bucket": pa.array(ivfb, pa.int32()),
                "ivfb": pa.array(ivfb, pa.int32()),
            }
        )

    old.map_batches(code, batch_format="pyarrow").write_parquet(
        os.path.join(tmp, "coded_base"), partition_cols=["ivfb"],
        compression="zstd",
    )
    _write_quantizers(tmp, ivf_cent, pq_cents)

    # ---- increment phase: frozen quantizers, delta-only coding pass,
    # new files appended beside the untouched base tree
    delta.map_batches(code, batch_format="pyarrow").write_parquet(
        os.path.join(tmp, "coded_delta"), partition_cols=["ivfb"],
        compression="zstd",
    )


def incr_coded_dataset(
    root: str, buckets: set[int], columns: list[str] | None = None
) -> rd.Dataset:
    """Probed partitions of the incremental index: base AND delta trees
    (same missing-dir-vs-lost-marker contract as coded_dataset)."""
    import glob

    paths = []
    for tree in ("coded_base", "coded_delta"):
        for b in sorted(buckets):
            d = os.path.join(root, tree, f"ivfb={b}")
            if os.path.isdir(d):
                paths.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
            elif not os.path.exists(os.path.join(root, "_DONE")):
                raise FileNotFoundError(
                    f"incremental ANN index {root} lost its _DONE marker "
                    f"while probing {tree}/ivfb={b}"
                )
    if not paths:
        return rd.from_arrow(
            pa.schema(
                [
                    ("vec_id", pa.int64()),
                    ("embedding", pa.list_(pa.float64())),
                    ("pq_code", pa.list_(pa.int64())),
                    ("bucket", pa.int32()),
                ]
            ).empty_table()
        )
    return rd.read_parquet(paths, columns=columns)


def incremental_ivf_topk(
    sf_dir: str,
    query_ids=(0, 1, 2),
    k: int = 10,
    nprobe: int = 4,
    table: str = "embeddings",
) -> pa.Table:
    """IVF top-k over the incrementally-built index: probe the frozen
    base-trained centroids, scan base + delta probed partitions with the
    shared per-block top-k combiner. Output (query_id, vec_id, rank) —
    bit-identical to an index whose quantizers were trained on the base
    half and whose coding ran in one pass over the full corpus (the
    frozen-quantizer equivalence; goldens._seq_ann_incremental)."""
    import pyarrow.compute as pc

    from ..sources.tables import read_table
    from .similarity import PartialTopK, _merge_partials

    root, _split = ensure_ann_index_incremental(sf_dir, table)
    cent = load_ivf_centroids(root)

    emb = read_table(sf_dir, table, columns=["vec_id", "embedding"])
    want = pa.array(sorted(set(query_ids)), pa.int64())
    qrows = emb.map_batches(
        lambda t: t.filter(
            pc.is_valid(pc.index_in(t["vec_id"], value_set=want))
        ),
        batch_format="pyarrow",
    ).take_all()
    q_by_id = {
        r["vec_id"]: np.asarray(r["embedding"], dtype=np.float64)
        for r in qrows
    }
    qid_order = sorted(q_by_id)
    Q = np.asarray([q_by_id[qid] for qid in qid_order], dtype=np.float64)
    Q = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    probe: dict[int, set[int]] = {}
    for qid, qn in zip(qid_order, Q):
        order = np.argsort(-(cent @ qn), kind="stable")[:nprobe]
        probe[qid] = set(int(x) for x in order)

    scan = incr_coded_dataset(
        root,
        buckets=set().union(*probe.values()),
        columns=["vec_id", "embedding", "bucket"],
    )
    partials = scan.map_batches(
        PartialTopK,
        fn_constructor_kwargs={
            "ref": ray.put((qid_order, Q)),
            "k": k,
            "probe_ref": ray.put(probe),
        },
        batch_format="pyarrow", concurrency=(1, 4),
    ).take_all()
    return _merge_partials(partials, k)
