"""Dedup family on a planted corpus: MinHash-LSH and SimHash must find the
planted near-duplicates and reject unrelated documents."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from agenticknowledgegraphconstructionsystem_ray.stages import dedup


@pytest.fixture(scope="module")
def planted_docs():
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(500)]
    texts = {}
    # ten unrelated base docs
    for i in range(10):
        texts[i] = " ".join(rng.choice(vocab, size=120))
    # 100/101: near-dup of doc 0 (one word changed / appended)
    words = texts[0].split()
    words[5] = "changed"
    texts[100] = " ".join(words)
    texts[101] = texts[1] + " extra tail token"
    # 102: exact dup of doc 2
    texts[102] = texts[2]
    rows = [{"doc_id": k, "text": v} for k, v in sorted(texts.items())]
    return rd.from_arrow(pa.Table.from_pylist(rows))


def test_minhash_finds_planted_pairs(planted_docs):
    out = dedup.minhash_near_dups(planted_docs, threshold=0.7).to_pydict()
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 100) in pairs
    assert (1, 101) in pairs
    assert (2, 102) in pairs
    # unrelated docs never pair with each other
    assert not any(a < 100 and b < 100 for a, b in pairs)
    # exact dup has jaccard 1.0
    j = dict(zip(zip(out["doc_a"], out["doc_b"]), out["jaccard_ppm"]))
    assert j[(2, 102)] == 1_000_000


def test_simhash_finds_planted_pairs(planted_docs):
    out = dedup.simhash_near_dups(planted_docs, max_hamming=6).to_pydict()
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (2, 102) in pairs  # exact dup -> hamming 0
    assert (0, 100) in pairs
    h = dict(zip(zip(out["doc_a"], out["doc_b"]), out["hamming"]))
    assert h[(2, 102)] == 0


def test_minhash_signature_properties():
    s1 = dedup.minhash_signature("the quick brown fox jumps over the lazy dog")
    s2 = dedup.minhash_signature("the quick brown fox jumps over the lazy dog")
    assert np.array_equal(s1, s2)  # deterministic across calls
    s3 = dedup.minhash_signature("completely different content about engines")
    assert not np.array_equal(s1, s3)
    assert s1.dtype == np.uint64 and len(s1) == 64


def test_jaccard_and_hamming():
    assert dedup.jaccard({"a", "b"}, {"a", "b"}) == 1.0
    assert dedup.jaccard({"a"}, {"b"}) == 0.0
    assert dedup.jaccard(set(), set()) == 1.0
    assert dedup.hamming64(0b1010, 0b0110) == 2


def test_shingles():
    assert dedup.shingles_of("a b c d") == {"a b c", "b c d"}
    assert dedup.shingles_of("a b") == {"a b"}
    assert dedup.shingles_of("") == set()


def test_degenerate_hot_bucket_no_quadratic_blowup():
    """A bucket far above MAX_BUCKET_ALL_PAIRS (here: one identical doc
    repeated 500x) must complete quickly with O(n) chain pairs instead of
    O(n^2), and the chain must still connect the duplicate cluster."""
    n = 500
    text = "identical boilerplate page content repeated across the mirror set"
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array([text] * n),
            }
        )
    )
    out = dedup.minhash_near_dups(docs, threshold=0.8).to_pydict()
    pairs = sorted(zip(out["doc_a"], out["doc_b"]))
    # chain, not clique: bounded pair count
    assert len(pairs) <= 2 * n
    assert all(j == 1_000_000 for j in out["jaccard_ppm"])
    # connectivity: union the pairs, all docs end in one component
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    assert len({find(i) for i in range(n)}) == 1


def test_near_dup_keep_clusters(planted_docs):
    pairs = dedup.minhash_near_dups(planted_docs, threshold=0.7)
    out = (
        dedup.near_dup_keep(planted_docs, pairs=pairs)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # every document gets a verdict
    assert len(out) == 13
    # planted dup members collapse onto the min-id representative
    assert out.loc[100, "rep_id"] == 0 and not out.loc[100, "keep"]
    assert out.loc[101, "rep_id"] == 1 and not out.loc[101, "keep"]
    assert out.loc[102, "rep_id"] == 2 and not out.loc[102, "keep"]
    # representatives and untouched docs keep themselves
    for i in range(10):
        assert out.loc[i, "rep_id"] == i and out.loc[i, "keep"]
    # exactly one kept doc per component
    assert out.groupby(out["rep_id"])["keep"].sum().eq(1).all()


def test_near_dup_keep_best_score(planted_docs):
    """score_of flips the representative rule to best-score (ties min id):
    doc 101 = doc 1 + an extra token scores higher on the q47 linear model
    (more tokens/uniq/chars), so it must win its cluster over min-id doc 1."""
    from agenticknowledgegraphconstructionsystem_ray.pipelines.assembly import (
        quality_score,
    )

    pairs = dedup.minhash_near_dups(planted_docs, threshold=0.7)
    texts = {
        r["doc_id"]: r["text"] for r in planted_docs.take_all()
    }
    members = {d for c in ("doc_a", "doc_b") for d in pairs[c].to_pylist()}
    score_of = {m: quality_score(texts[m]) for m in members}
    assert score_of[101] > score_of[1]
    out = (
        dedup.near_dup_keep(planted_docs, pairs=pairs, score_of=score_of)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[101, "keep"] and out.loc[101, "rep_id"] == 101
    assert not out.loc[1, "keep"] and out.loc[1, "rep_id"] == 101
    # exact dup 102 == doc 2: equal scores, tie broken by min id
    assert score_of[102] == score_of[2]
    assert out.loc[2, "keep"] and out.loc[102, "rep_id"] == 2
    assert out.groupby(out["rep_id"])["keep"].sum().eq(1).all()


class TestIncrementalMinhash:
    def test_equals_full_pairs_filtered(self, ray_session, tmp_path):
        sf = "/root/testdata/sf0.001"
        full = dedup.minhash_near_dups(sf, threshold=0.8).to_pandas()
        inc = dedup.minhash_near_dups_incremental(
            sf, threshold=0.8, index_dir=str(tmp_path / "idx")
        ).to_pandas()
        keep = full.apply(
            lambda r: dedup.is_delta_doc(int(r.doc_a))
            or dedup.is_delta_doc(int(r.doc_b)),
            axis=1,
        )
        want = full[keep] if len(full) else full
        assert inc.reset_index(drop=True).equals(want.reset_index(drop=True))

    def test_index_persisted_and_reused(self, ray_session, tmp_path):
        import glob
        import os

        import pyarrow.parquet as pq

        sf = "/root/testdata/sf0.001"
        idx = str(tmp_path / "idx2")
        first = dedup.minhash_near_dups_incremental(
            sf, index_dir=idx
        ).to_pandas()
        marker = os.path.join(idx, "_DONE")
        assert os.path.exists(marker)
        stamp = os.path.getmtime(marker)
        # index holds ONLY old (non-delta) docs' band rows
        files = sorted(glob.glob(f"{idx}/*.parquet"))
        ids = set()
        for f in files:
            ids.update(pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist())
        assert ids and not any(dedup.is_delta_doc(i) for i in ids)
        # second run reuses the index (marker untouched) and matches
        second = dedup.minhash_near_dups_incremental(
            sf, index_dir=idx
        ).to_pandas()
        assert os.path.getmtime(marker) == stamp
        assert first.equals(second)
