"""Document deduplication family (SURVEY.md §2.7 extended for training-data
pipelines): exact, MinHash+LSH, SimHash, n-gram Jaccard, embedding-cosine.

The reference only has exact-key dedup (D1-D5, UNIQUE constraints +
seen-sets); near-dup is the scale extension. Every hash here is derived from
blake2b/crc — NEVER Python's process-seeded ``hash()`` — so results are
deterministic across workers and runs.

Scale shape (the LSH pattern from the Ray guide): shingle+minhash per batch
(vectorized numpy) -> explode to (band, band_hash, doc_id) rows -> groupby
band bucket -> candidate pairs -> verify exact Jaccard -> connected
components. Candidate pairs are a tiny fraction of the corpus; verification
fetches only the involved documents.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Count

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_MERSENNE = (1 << 61) - 1
_N_PERM = 64
_BANDS = 16  # 16 bands x 4 rows
_ROWS = _N_PERM // _BANDS


def tokens_of(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def shingles_of(text: str, n: int = 3) -> set[str]:
    toks = tokens_of(text)
    if len(toks) < n:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def _stable_u64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")


def _perm_params(seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=_N_PERM, dtype=np.int64)
    b = rng.integers(0, _MERSENNE, size=_N_PERM, dtype=np.int64)
    return a, b


_A, _B = _perm_params()


_TOKEN_HASH_CACHE: dict[str, int] = {}
_TOKEN_HASH_CACHE_MAX = 500_000  # web-scale vocabularies are unbounded; cap
                                 # the per-worker cache so long-lived workers
                                 # don't grow without limit
_SHINGLE_P1 = np.uint64(0x9E3779B97F4A7C15)
_SHINGLE_P2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _token_hash(tok: str) -> int:
    h = _TOKEN_HASH_CACHE.get(tok)
    if h is None:
        if len(_TOKEN_HASH_CACHE) >= _TOKEN_HASH_CACHE_MAX:
            _TOKEN_HASH_CACHE.clear()
        h = _stable_u64(tok)
        _TOKEN_HASH_CACHE[tok] = h
    return h


def shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Distinct uint64 hashes of the token n-gram shingles — token hashes
    are blake2b (cached per worker, vocabularies are small), shingle hashes
    combine them with wraparound multiply-add (vectorized); no per-shingle
    cryptographic hashing in the hot path."""
    toks = tokens_of(text)
    if not toks:
        return np.empty(0, dtype=np.uint64)
    h = np.fromiter((_token_hash(t) for t in toks), dtype=np.uint64, count=len(toks))
    if len(h) < n:
        out = np.zeros(1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for x in h:
                out = out * _SHINGLE_P1 + x
        return out
    with np.errstate(over="ignore"):
        grams = (
            h[: len(h) - n + 1] * _SHINGLE_P1
            + h[1 : len(h) - n + 2] * _SHINGLE_P2
            + h[2 : len(h) - n + 3]
        )
    return np.unique(grams)


def minhash_signature(text: str) -> np.ndarray:
    """64-permutation MinHash signature (uint64[_N_PERM]).

    Permutation family is (h*a + b) with uint64 wraparound — a standard
    multiply-shift-style universal-ish family; deterministic and fully
    vectorized (no per-shingle Python math)."""
    h = shingle_hashes(text)
    if not len(h):
        return np.full(_N_PERM, np.iinfo(np.uint64).max, dtype=np.uint64)
    a = _A.astype(np.uint64)
    b = _B.astype(np.uint64)
    with np.errstate(over="ignore"):
        vals = h[:, None] * a[None, :] + b[None, :]  # uint64 wrap is the hash
    return np.min(vals, axis=0)


def simhash64(text: str) -> int:
    """64-bit SimHash over the token multiset (vectorized bit counting)."""
    toks = tokens_of(text)
    if not toks:
        return 0
    h = np.fromiter((_stable_u64(t) for t in toks), dtype=np.uint64, count=len(toks))
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
    v = (2 * bits - 1).sum(axis=0)
    out = 0
    for i in range(64):
        if v[i] > 0:
            out |= 1 << i
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    u = len(a | b)
    return len(a & b) / u if u else 0.0


# A degenerate LSH bucket (empty docs, shared boilerplate) is O(n^2) in
# pairs. Above this size, emit a sorted CHAIN (id_i, id_{i+1}) instead of all
# pairs: O(n) rows that still connect a true duplicate cluster for the
# downstream connected-components view, at the cost of possibly missing some
# direct pairs between near-(not exactly)-identical members — which the other
# LSH bands usually recover. Same guard family as kgqueries MAX_DEGREE.
MAX_BUCKET_ALL_PAIRS = 100


# LSH bucket keys are numerous and tiny (most buckets are singletons), so a
# per-bucket groupby().map_groups() pays framework overhead per bucket —
# tens of thousands of calls. Instead the band rows are shuffled on a COARSE
# key (bucket-hash % N_COARSE_TASKS) and each coarse group generates pairs
# for ALL its buckets in one vectorized pass (sort + run boundaries).
N_COARSE_TASKS = 64


def _coarse_bucket_pairs(g):
    """One coarse group = many buckets. Columns: band, bkey, doc_id.
    Emits (doc_a, doc_b) pairs per (band, bkey) bucket with the same
    all-pairs / chain-cap semantics as _bucket_pairs."""
    band = g["band"].to_numpy()
    bkey = g["bkey"].to_numpy()
    ids = g["doc_id"].to_numpy()
    order = np.lexsort((ids, bkey, band))
    band, bkey, ids = band[order], bkey[order], ids[order]
    n = len(ids)
    if n < 2:
        return {
            "doc_a": np.array([], dtype=np.int64),
            "doc_b": np.array([], dtype=np.int64),
        }
    change = (band[1:] != band[:-1]) | (bkey[1:] != bkey[:-1])
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1, [n]])
    out_a: list = []
    out_b: list = []
    for s, e in zip(starts[:-1], starts[1:]):
        m = e - s
        if m < 2:
            continue
        run = ids[s:e]
        if m > MAX_BUCKET_ALL_PAIRS:
            out_a.append(run[:-1])
            out_b.append(run[1:])
        else:
            for i in range(m - 1):
                out_a.append(np.full(m - 1 - i, run[i]))
                out_b.append(run[i + 1 :])
    if not out_a:
        return {
            "doc_a": np.array([], dtype=np.int64),
            "doc_b": np.array([], dtype=np.int64),
        }
    return {
        "doc_a": np.concatenate(out_a).astype(np.int64),
        "doc_b": np.concatenate(out_b).astype(np.int64),
    }


def _join_pair_payload(
    pairs: rd.Dataset, payload: rd.Dataset, col: str, col_type: pa.DataType
):
    """Attach a per-doc payload column to candidate pairs for BOTH endpoints
    (distributed; nothing corpus-sized ever reaches the driver). ``payload``
    columns: (doc_id, <col>); doc_id must be unique. Returns a Dataset with
    (doc_a, doc_b, <col>_a, <col>_b).

    Implemented as a join-via-groupby (union tagged rows, group on the doc
    key to pick up the payload, regroup on the pair): ``Dataset.join``'s
    hash partitions lose their schema when empty, which breaks the second
    join on small/skewed candidate sets, and a groupby tolerates any skew.
    """

    def pair_sides(t: pa.Table) -> pa.Table:
        a = t["doc_a"].combine_chunks()
        b = t["doc_b"].combine_chunks()
        n = len(a)
        return pa.table(
            {
                "k": pa.concat_arrays([a, b]),
                "doc_a": pa.concat_arrays([a, a]),
                "doc_b": pa.concat_arrays([b, b]),
                "role": pa.concat_arrays(
                    [pa.array(["a"] * n, pa.string()),
                     pa.array(["b"] * n, pa.string())]
                ),
                col: pa.nulls(2 * n, col_type),
            }
        )

    def payload_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "k": t["doc_id"],
                "doc_a": pa.nulls(n, pa.int64()),
                "doc_b": pa.nulls(n, pa.int64()),
                "role": pa.array(["p"] * n, pa.string()),
                col: t[col],
            }
        )

    tagged = pairs.map_batches(pair_sides, batch_format="pyarrow").union(
        payload.map_batches(payload_rows, batch_format="pyarrow")
    )

    def attach(g):
        vals = g.loc[g["role"] == "p", col]
        if not len(vals):
            return {
                "doc_a": np.array([], dtype=np.int64),
                "doc_b": np.array([], dtype=np.int64),
                "role": np.array([], dtype="U1"),
                col: np.array([], dtype="U1"),
            }
        v = vals.iloc[0]
        side = g[g["role"] != "p"]
        return {
            "doc_a": side["doc_a"].to_numpy(dtype=np.int64, na_value=-1),
            "doc_b": side["doc_b"].to_numpy(dtype=np.int64, na_value=-1),
            "role": side["role"].to_numpy(dtype=object),
            col: np.array([v] * len(side), dtype=object),
        }

    def combine(g):
        va = g.loc[g["role"] == "a", col]
        vb = g.loc[g["role"] == "b", col]
        if not len(va) or not len(vb):
            return {
                "doc_a": np.array([], dtype=np.int64),
                "doc_b": np.array([], dtype=np.int64),
                f"{col}_a": np.array([], dtype="U1"),
                f"{col}_b": np.array([], dtype="U1"),
            }
        return {
            "doc_a": np.array([g["doc_a"].iloc[0]], dtype=np.int64),
            "doc_b": np.array([g["doc_b"].iloc[0]], dtype=np.int64),
            f"{col}_a": np.array([va.iloc[0]], dtype=object),
            f"{col}_b": np.array([vb.iloc[0]], dtype=object),
        }

    return (
        tagged.groupby("k")
        .map_groups(attach, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .map_groups(combine, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# MinHash + LSH candidate generation over a documents Dataset
# ---------------------------------------------------------------------------

_BAND_MIX = np.uint64(0x100000001B3)  # FNV-64 prime (odd => bijective mult)


def band_keys(sigs: np.ndarray) -> np.ndarray:
    """(n_docs, _N_PERM) uint64 signature matrix -> (n_docs, _BANDS) int64
    band keys. Horner polynomial mix of each band's _ROWS rows with uint64
    wraparound + a splitmix64-style finalizer — equality-preserving on the
    band chunk (the LSH requirement), ONE vectorized pass over the whole
    batch instead of a blake2b call per (doc, band). Shared by the
    distributed pipeline AND the sequential golden (goldens.py), so both
    sides bucket identically by construction."""
    n = sigs.shape[0]
    chunks = sigs.reshape(n, _BANDS, _ROWS)
    k = np.zeros((n, _BANDS), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for r in range(_ROWS):
            k = k * _BAND_MIX + chunks[:, :, r]
        # avalanche so the low bits (coarse-task routing) mix all rows
        k ^= k >> np.uint64(33)
        k *= np.uint64(0xFF51AFD7ED558CCD)
        k ^= k >> np.uint64(33)
    return k.view(np.int64)


def _minhash_bands_batch(t: pa.Table) -> pa.Table:
    """doc batch -> (band, bkey, coarse, doc_id) rows (the LSH explode).
    ``bkey`` is the vectorized band_keys int64 digest (equality-preserving,
    faster to shuffle/sort than hex strings); ``coarse`` is the shuffle key
    for _coarse_bucket_pairs. Per-row Python is limited to the signature
    loop (shingle sets vary per doc); banding is one matrix pass."""
    ids = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
    texts = t["text"].to_pylist()
    n = len(texts)
    if not n:
        return pa.table(
            {
                "band": pa.array([], pa.int32()),
                "bkey": pa.array([], pa.int64()),
                "coarse": pa.array([], pa.int32()),
                "doc_id": pa.array([], pa.int64()),
            }
        )
    sigs = np.empty((n, _N_PERM), dtype=np.uint64)
    for i, text in enumerate(texts):
        sigs[i] = minhash_signature(text)
    bkeys = band_keys(sigs).ravel()  # (n*_BANDS,) doc-major
    bands = np.tile(np.arange(_BANDS, dtype=np.int64), n)
    coarse = (bkeys ^ bands) % N_COARSE_TASKS  # numpy mod: sign of divisor
    return pa.table(
        {
            "band": pa.array(bands.astype(np.int32)),
            "bkey": pa.array(bkeys),
            "coarse": pa.array(coarse.astype(np.int32)),
            "doc_id": pa.array(np.repeat(ids, _BANDS)),
        }
    )


def _spread(ds: rd.Dataset) -> rd.Dataset:
    """Spread a (possibly single-block) input across the cluster before a
    per-document CPU-heavy stage: a one-file parquet table arrives as ONE
    block, which would serialize signature computation on one worker. The
    repartition is row-identical and cheap relative to the compute it
    parallelizes. Inputs that are already well-sharded (>= n source files)
    are passed through untouched — repartitioning them would be a full
    pointless shuffle and could REDUCE their block count."""
    from ..runtime import cluster_cpus

    n = max(8, cluster_cpus())
    try:
        files = ds.input_files()
        if files and len(files) >= n:
            return ds
    except Exception:  # noqa: BLE001
        pass
    return ds.repartition(n)


def minhash_candidate_pairs_ds(docs: rd.Dataset) -> rd.Dataset:
    """LSH bucket groupby -> unique candidate pairs as a DISTRIBUTED Dataset
    (doc_a, doc_b) — never collected to the driver."""
    bands = _spread(docs).map_batches(_minhash_bands_batch, batch_format="pyarrow")
    return (
        bands.groupby("coarse")
        .map_groups(_coarse_bucket_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="n_buckets"))
        .select_columns(["doc_a", "doc_b"])
    )


def _involved_id_set(pairs: rd.Dataset) -> set[int]:
    """Distinct doc ids appearing in candidate pairs — bounded by 2x the
    candidate count (the legitimate broadcast small side)."""

    def explode(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [t["doc_a"].combine_chunks(), t["doc_b"].combine_chunks()]
        )
        import pyarrow.compute as pc

        return pa.table({"doc_id": pc.unique(both)})

    return set(
        pairs.map_batches(explode, batch_format="pyarrow").unique("doc_id")
    )


def minhash_near_dups(
    sf_dir_or_ds, threshold: float = 0.8, table: str = "documents"
):
    """Full MinHash-LSH near-dup pipeline: candidates -> exact-Jaccard verify.

    Returns pa.Table(doc_a, doc_b, jaccard_ppm) sorted. Scale shape: the
    candidate-pair set stays a Dataset; only the involved-id SET (2x pairs,
    small by LSH construction + the bucket cap) is broadcast to filter the
    shingle computation, and verification runs as two distributed hash joins
    (pair x shingles) + a vectorized-per-pair Jaccard map — no corpus-sized
    or content-sized driver materialization.
    """
    from ..sources.tables import read_table

    docs = (
        sf_dir_or_ds
        if isinstance(sf_dir_or_ds, rd.Dataset)
        else read_table(sf_dir_or_ds, table, columns=["doc_id", "text"])
    )
    pairs = minhash_candidate_pairs_ds(docs).materialize()
    return _verify_jaccard(docs, pairs, threshold)


def _verify_jaccard(
    docs: rd.Dataset, pairs: rd.Dataset, threshold: float
) -> pa.Table:
    """Exact-Jaccard verification of a candidate-pair Dataset (the
    expensive half of the near-dup pipeline — shared by the full and the
    incremental paths): broadcast the involved-id set (2x pairs, small by
    LSH construction), fetch shingles for involved docs only, two
    distributed pair-payload joins, vectorized per-pair Jaccard."""
    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "jaccard_ppm": pa.array([], pa.int64()),
        }
    )
    involved = _involved_id_set(pairs)
    if not involved:
        return empty
    inv_ref = ray.put(involved)

    def fetch_shingles(t: pa.Table, ref=inv_ref) -> pa.Table:
        # stateless task form (actor-pool spin-up costs ~2 s of fixed wall);
        # ray.get on the broadcast ref is a local in-process-store hit after
        # the first fetch per worker
        want = ray.get(ref) if hasattr(ref, "hex") else ref
        ids, shs = [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if doc_id in want:
                ids.append(doc_id)
                shs.append("\x00".join(sorted(shingles_of(text))))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "sh": pa.array(shs, pa.string())}
        )

    shingle_ds = _spread(docs).map_batches(fetch_shingles, batch_format="pyarrow")

    joined = _join_pair_payload(pairs, shingle_ds, "sh", pa.string())

    def verify(t: pa.Table) -> pa.Table:
        rows = []
        for a, b, sa, sb in zip(
            t["doc_a"].to_pylist(), t["doc_b"].to_pylist(),
            t["sh_a"].to_pylist(), t["sh_b"].to_pylist(),
        ):
            j = jaccard(
                set(sa.split("\x00")) if sa else set(),
                set(sb.split("\x00")) if sb else set(),
            )
            if j >= threshold:
                rows.append((a, b, int(j * 1_000_000 + 0.5)))
        return pa.table(
            {
                "doc_a": pa.array([r[0] for r in rows], pa.int64()),
                "doc_b": pa.array([r[1] for r in rows], pa.int64()),
                "jaccard_ppm": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    out = joined.map_batches(verify, batch_format="pyarrow").take_all()
    rows = sorted((r["doc_a"], r["doc_b"], r["jaccard_ppm"]) for r in out)
    return pa.table(
        {
            "doc_a": pa.array([r[0] for r in rows], pa.int64()),
            "doc_b": pa.array([r[1] for r in rows], pa.int64()),
            "jaccard_ppm": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# incremental MinHash-LSH: delta-vs-corpus near-dup via a persisted band
# index — the crawl-increment shape. A real 100-TB pipeline cannot re-band
# the whole corpus for every increment: the old corpus contributes ONLY its
# persisted (band, bkey, doc_id) index rows (written once, read as parquet),
# the delta is banded live, and only pairs touching the delta are verified
# (old x old pairs were already adjudicated when their docs arrived).
# ---------------------------------------------------------------------------

MH_INDEX_VERSION = "1"
_DELTA_HEX = "0123"  # delta = md5(doc_id) last hex in 0-3 (~25%; the
# q32_stable_split convention — partitioning/order independent)


def is_delta_doc(doc_id: int) -> bool:
    return hashlib.md5(str(doc_id).encode()).hexdigest()[-1] in _DELTA_HEX


def _split_mask(t: pa.Table, want_delta: bool) -> pa.Table:
    keep = pa.array(
        [is_delta_doc(i) == want_delta for i in t["doc_id"].to_pylist()]
    )
    return t.filter(keep)


def mh_index_root(sf_dir: str, table: str = "documents") -> str:
    """Default cache root of the persisted band index for a corpus table
    (keyed on the corpus abspath)."""
    import os

    from ..state.artifacts import cache_root

    tag = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{table}:v{MH_INDEX_VERSION}".encode()
    ).hexdigest()[:16]
    return cache_root("mh_index", tag)


def minhash_band_index(
    docs_old: rd.Dataset, index_dir: str, src_tag: str
) -> str:
    """Persist the old corpus's LSH band rows as a parquet index, cached
    through state.artifacts.ensure_artifact (concurrent builders race
    benignly on identical deterministic content). Index rows are exactly
    what _minhash_bands_batch emits, so reading them back unions cleanly
    with live delta bands. ``src_tag`` is the caller's source fingerprint,
    so a regenerated corpus at the same path rebuilds instead of serving
    stale bands."""
    from ..state.artifacts import ensure_artifact

    contract = {"v": MH_INDEX_VERSION, "perm": _N_PERM, "bands": _BANDS,
                "tasks": N_COARSE_TASKS, "src": src_tag}
    return ensure_artifact(
        index_dir, contract,
        lambda tmp: _spread(docs_old).map_batches(
            _minhash_bands_batch, batch_format="pyarrow"
        ).write_parquet(tmp),
    )


def minhash_near_dups_incremental(
    sf_dir: str,
    threshold: float = 0.8,
    table: str = "documents",
    index_dir: str | None = None,
) -> pa.Table:
    """Near-dup pairs INVOLVING the crawl delta (delta = the is_delta_doc
    ~25% split), against old+delta: old band rows come from the persisted
    index (minhash_band_index), delta bands are computed live, candidate
    pairs are pruned to delta-involving BEFORE the expensive shingle-fetch
    + Jaccard verification.

    Bit-compatibility contract: the unioned band rows are content-identical
    to a full-corpus banding, so _coarse_bucket_pairs (including its
    hot-bucket chain cap) produces exactly the full run's pair set, and the
    result equals the full run's verified pairs filtered to delta-involving
    — which is what the SQL oracle asserts over the golden pair table."""
    from ..sources.tables import read_table

    docs = read_table(sf_dir, table, columns=["doc_id", "text"])
    if index_dir is None:
        index_dir = mh_index_root(sf_dir, table)
    old = docs.map_batches(
        lambda t: _split_mask(t, want_delta=False), batch_format="pyarrow"
    )
    delta = docs.map_batches(
        lambda t: _split_mask(t, want_delta=True), batch_format="pyarrow"
    )
    from ..state.artifacts import source_fingerprint
    from ..sources.tables import table_path

    minhash_band_index(
        old, index_dir,
        src_tag=source_fingerprint(table_path(sf_dir, table)),
    )
    import glob

    # glob the data files: the marker file in the dir is not parquet
    old_bands = rd.read_parquet(sorted(glob.glob(f"{index_dir}/*.parquet")))
    new_bands = _spread(delta).map_batches(
        _minhash_bands_batch, batch_format="pyarrow"
    )

    def keep_delta_pairs(t: pa.Table) -> pa.Table:
        keep = pa.array(
            [
                is_delta_doc(a) or is_delta_doc(b)
                for a, b in zip(
                    t["doc_a"].to_pylist(), t["doc_b"].to_pylist()
                )
            ]
        )
        return t.filter(keep)

    pairs = (
        old_bands.union(new_bands)
        .groupby("coarse")
        .map_groups(_coarse_bucket_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="n_buckets"))
        .select_columns(["doc_a", "doc_b"])
        .map_batches(keep_delta_pairs, batch_format="pyarrow")
        .materialize()
    )
    return _verify_jaccard(docs, pairs, threshold)


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------

def simhash_near_dups(sf_dir_or_ds, max_hamming: int = 3, table: str = "documents"):
    """SimHash near-dup: 4x16-bit band buckets -> candidate pairs -> hamming
    verify. Returns pa.Table(doc_a, doc_b, hamming)."""
    from ..sources.tables import read_table

    docs = (
        sf_dir_or_ds
        if isinstance(sf_dir_or_ds, rd.Dataset)
        else read_table(sf_dir_or_ds, table, columns=["doc_id", "text"])
    )

    def sim_batch(t: pa.Table) -> pa.Table:
        ids, hs = [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ids.append(doc_id)
            hs.append(simhash64(text))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "simhash": pa.array(hs, pa.uint64())}
        )

    # consumed twice (candidate generation + hamming verify) -> materialize
    sims = _spread(docs).map_batches(sim_batch, batch_format="pyarrow").materialize()

    # The hamming payload is 8 bytes/doc, so it is CARRIED THROUGH the band
    # rows and verified INSIDE the pair-generation kernel — no pair-payload
    # join at all. This matters: word-salad-like corpora make 16-bit band
    # buckets collide heavily (150k+ candidate pairs at 5k docs), and only
    # the handful within max_hamming survive; verifying at the bucket means
    # the pair-dedup groupby only ever sees survivors.
    def explode_bands(t: pa.Table) -> pa.Table:
        ids, bands, keys, coarse, hs = [], [], [], [], []
        for doc_id, h in zip(t["doc_id"].to_pylist(), t["simhash"].to_pylist()):
            h_i64 = h - (1 << 64) if h >= 1 << 63 else h  # bit-cast to int64
            for band in range(4):
                k = (h >> (band * 16)) & 0xFFFF
                ids.append(doc_id)
                bands.append(band)
                keys.append(k)
                coarse.append((k ^ band) % N_COARSE_TASKS)
                hs.append(h_i64)
        return pa.table(
            {
                "band": pa.array(bands, pa.int32()),
                "bkey": pa.array(keys, pa.int64()),
                "coarse": pa.array(coarse, pa.int32()),
                "doc_id": pa.array(ids, pa.int64()),
                "h": pa.array(hs, pa.int64()),
            }
        )

    def bucket_verified_pairs(g):
        """Pairs per (band, bkey) bucket with hamming computed in-bucket
        (vectorized xor+popcount); only pairs <= max_hamming are emitted.
        Same all-pairs / chain-cap semantics as _coarse_bucket_pairs."""
        band = g["band"].to_numpy()
        bkey = g["bkey"].to_numpy()
        ids = g["doc_id"].to_numpy()
        hu = g["h"].to_numpy().astype(np.int64).view(np.uint64)
        order = np.lexsort((ids, bkey, band))
        band, bkey, ids, hu = band[order], bkey[order], ids[order], hu[order]
        n = len(ids)
        empty = {
            "doc_a": np.array([], dtype=np.int64),
            "doc_b": np.array([], dtype=np.int64),
            "hamming": np.array([], dtype=np.int64),
        }
        if n < 2:
            return empty
        change = (band[1:] != band[:-1]) | (bkey[1:] != bkey[:-1])
        starts = np.concatenate([[0], np.nonzero(change)[0] + 1, [n]])
        out_a, out_b, out_h = [], [], []
        for s, e in zip(starts[:-1], starts[1:]):
            m = e - s
            if m < 2:
                continue
            run_ids, run_h = ids[s:e], hu[s:e]
            if m > MAX_BUCKET_ALL_PAIRS:
                ii = np.arange(m - 1)
                jj = ii + 1
            else:
                ii, jj = np.triu_indices(m, k=1)
            x = np.bitwise_xor(run_h[ii], run_h[jj])
            ham = (
                np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1)
                .sum(axis=1)
                .astype(np.int64)
            )
            keep = ham <= max_hamming
            if keep.any():
                out_a.append(run_ids[ii[keep]])
                out_b.append(run_ids[jj[keep]])
                out_h.append(ham[keep])
        if not out_a:
            return empty
        return {
            "doc_a": np.concatenate(out_a).astype(np.int64),
            "doc_b": np.concatenate(out_b).astype(np.int64),
            "hamming": np.concatenate(out_h),
        }

    from ray.data.aggregate import Min as RMin

    verified = (
        sims.map_batches(explode_bands, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(bucket_verified_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(RMin("hamming", alias_name="hamming"))
    )
    out = verified.take_all()
    rows = sorted((r["doc_a"], r["doc_b"], r["hamming"]) for r in out)
    return pa.table(
        {
            "doc_a": pa.array([r[0] for r in rows], pa.int64()),
            "doc_b": pa.array([r[1] for r in rows], pa.int64()),
            "hamming": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# near-dup clustering: pairs -> connected components -> keep/representative
# (the step that turns a pair list into an actual dedup decision)
# ---------------------------------------------------------------------------

def near_dup_keep(
    sf_dir_or_ds,
    pairs: pa.Table | None = None,
    table: str = "documents",
    score_of: dict[int, int] | None = None,
):
    """Near-dup pair list -> per-document dedup verdict.

    ``score_of`` (doc_id -> integer score over the pair-involved docs only)
    switches the representative rule from min-id to best-score (ties by min
    id) — the keep-best-quality dedup a training pipeline actually wants.

    Connected components run driver-side over the PAIR list only (union-find
    bounded by the number of duplicate-involved docs — tiny vs the corpus;
    same bound argument as phase B's alias union-find), then the
    component->representative map is broadcast once and a distributed corpus
    scan marks every document: rep_id = min doc_id of its component (itself
    when not near-duplicated), keep = (doc_id == rep_id).

    Returns a Dataset (doc_id, rep_id, keep) over ALL documents — the table
    a training pipeline filters on.
    """
    import ray

    from ..sources.tables import read_table
    from ..state.unionfind import UnionFind

    docs = (
        sf_dir_or_ds
        if isinstance(sf_dir_or_ds, rd.Dataset)
        else read_table(sf_dir_or_ds, table, columns=["doc_id"])
    )
    if pairs is None:
        pairs = minhash_near_dups(sf_dir_or_ds, table=table)

    uf = UnionFind()
    for a, b in zip(pairs["doc_a"].to_pylist(), pairs["doc_b"].to_pylist()):
        uf.add(a)
        uf.add(b)
        uf.union(a, b)
    rep_of: dict[int, int] = {}
    for members in uf.components().values():
        if score_of is None:
            rep = min(members)
        else:
            rep = max(members, key=lambda m: (score_of[m], -m))
        for m in members:
            rep_of[m] = rep
    ref = ray.put(rep_of)

    class MarkKeep:
        def __init__(self, rep_ref) -> None:
            rep = ray.get(rep_ref)
            items = sorted(rep.items())
            self.keys = pa.array([k for k, _ in items], pa.int64())
            self.vals = pa.array([v for _, v in items], pa.int64())

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            hit = pc.take(self.vals, pc.index_in(t["doc_id"], value_set=self.keys))
            rep = pc.coalesce(hit, t["doc_id"])
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "rep_id": rep,
                    "keep": pc.equal(t["doc_id"], rep),
                }
            )

    return docs.map_batches(
        MarkKeep, fn_constructor_kwargs={"rep_ref": ref},
        batch_format="pyarrow", concurrency=(1, 4),
    )
