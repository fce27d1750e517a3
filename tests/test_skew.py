"""Adversarial skew kill-tests — the evidence behind the 100-TB claims.

Three planted skews, each hitting a different hot-key defense:

1. one HOST carrying 50% of pages  -> the link-table build's per-block
   pair combiner must absorb the hub before the shuffle (shuffle rows
   bounded by distinct pairs per block, not raw links), with the
   aggregate still exact vs a sequential recompute;
2. one ENTITY at ~50% of mentions  -> the KG pipeline's mcount combiner
   + dictionary-encoded id application must keep P/R = 1.0 vs the
   oracle;
3. one TEXT duplicated across 50% of documents -> the MinHash hot-bucket
   chain cap must bound candidate pairs LINEARLY in the cluster size
   (never m^2/2) while preserving cluster connectivity for keep verdicts.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


# ---------------------------------------------------------------------------
# skewed corpora builders
# ---------------------------------------------------------------------------

def _skewed_pages(tmp_path, n=600, n_files=6) -> str:
    """Synth corpus rewritten so every even-index page lives on ONE hub
    host and carries one extra hot-entity sentence (~50% of pages)."""
    from agenticknowledgegraphconstructionsystem_ray import synth

    base = str(tmp_path / "pages_base")
    synth.write_pages(base, n, n_files=n_files)
    skewed = str(tmp_path / "pages_skew")
    os.makedirs(skewed)

    ents = synth.entity_universe()
    hot_subj = ents[0]["aliases"][0]   # proper-case canonical: the
    hot_obj = ents[1]["aliases"][0]    # deterministic NER only fires on
    # capitalized runs. Several sentences, every one naming the hot
    # subject — concentrates ~half of all mentions on one entity (the
    # salted-mcount regime).
    extra = "".join(
        f"<p>{hot_subj} {p} {hot_obj}.</p>"
        for p in ("extends", "cites", "uses", "builds on", "evaluates",
                  "improves on", "outperforms", "introduces") * 2
    ).encode()

    for f in sorted(glob.glob(os.path.join(base, "*.parquet"))):
        t = pq.read_table(f)
        urls, htmls = t["url"].to_pylist(), t["html"].to_pylist()
        for j in range(len(urls)):
            i = int(urls[j].rsplit("/", 1)[1])
            if i % 2 == 0:
                urls[j] = f"https://hub-0.example/page/{i}"
                htmls[j] = htmls[j].replace(b"</body>", extra + b"</body>")
        out = t.set_column(
            t.schema.get_field_index("url"), "url",
            pa.array(urls, pa.string()),
        ).set_column(
            t.schema.get_field_index("html"), "html",
            pa.array(htmls, pa.binary()),
        )
        pq.write_table(out, os.path.join(skewed, os.path.basename(f)))
    return skewed


# ---------------------------------------------------------------------------
# 1. hub host: link-table combiner absorbs the skew, aggregate stays exact
# ---------------------------------------------------------------------------

def test_link_table_exact_and_combiner_bounded_under_hub_host(
    ray_session, tmp_path
):
    from agenticknowledgegraphconstructionsystem_ray.functions.weblinks import (
        host_of,
        resolve_outlinks,
    )
    from agenticknowledgegraphconstructionsystem_ray.pipelines import weblinks

    skewed = _skewed_pages(tmp_path)
    files = sorted(glob.glob(os.path.join(skewed, "*.parquet")))
    root = weblinks._ensure_link_tables_for(files, str(tmp_path / "links"))
    got = pq.read_table(sorted(glob.glob(os.path.join(root, "links",
                                                      "*.parquet"))))
    got_rows = {
        (s, d): n for s, d, n in zip(got["src_host"].to_pylist(),
                                     got["dst_host"].to_pylist(),
                                     got["n_links"].to_pylist())
    }

    # sequential recompute + per-file combiner accounting
    want: dict = {}
    raw_links = 0
    shuffle_rows = 0  # what the per-block combiner actually emits
    for f in files:
        t = pq.read_table(f, columns=["url", "html"])
        block: dict = {}
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            src = host_of(url)
            block.setdefault((src, weblinks._SENTINEL), 0)
            for _, dst, _ in resolve_outlinks(url, html):
                raw_links += 1
                block[(src, dst)] = block.get((src, dst), 0) + 1
        shuffle_rows += len(block)
        for k, v in block.items():
            want[k] = want.get(k, 0) + v

    assert got_rows == want  # exact under 50% hub-host skew

    # the combiner must absorb the hub: rows entering the shuffle are the
    # per-block DISTINCT pairs, a small fraction of the raw link count
    assert shuffle_rows < 0.2 * raw_links, (shuffle_rows, raw_links)

    # and the hub host dominates — the skew is real, not accidental
    hub_out = sum(n for (s, _), n in want.items() if s == "hub-0.example")
    assert hub_out > 0.4 * raw_links


# ---------------------------------------------------------------------------
# 2. hot entity: pipeline parity unchanged at ~50% mention concentration
# ---------------------------------------------------------------------------

def test_kg_parity_under_hot_entity(ray_session, tmp_path):
    from agenticknowledgegraphconstructionsystem_ray import metrics, oracle, synth
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    skewed = _skewed_pages(tmp_path)
    out = str(tmp_path / "kg_out")
    kg.run_pipeline(kg.KGConfig(pages_dir=skewed, out_dir=out,
                                chunk_files=2))

    _, golden = oracle.oracle_graph(skewed, synth.alias_dict())
    e = pq.read_table(
        sorted(glob.glob(os.path.join(out, "edges/**/*.parquet"),
                         recursive=True)),
        columns=["subj", "pred", "obj"],
    )
    emitted = set(zip(e["subj"].to_pylist(), e["pred"].to_pylist(),
                      e["obj"].to_pylist()))
    p, r, f1 = metrics.precision_recall(emitted, golden)
    assert (p, r) == (1.0, 1.0)

    # the planted entity is actually hot: top mention_count node holds a
    # large share of all mentions
    nodes = pq.read_table(
        sorted(glob.glob(os.path.join(out, "nodes", "*.parquet"))),
        columns=["mention_count"],
    )
    counts = sorted(nodes["mention_count"].to_pylist(), reverse=True)
    assert counts[0] > 0.25 * sum(counts)


# ---------------------------------------------------------------------------
# 3. duplicated text: MinHash hot bucket stays linear, cluster stays whole
# ---------------------------------------------------------------------------

def test_minhash_hot_bucket_chain_cap_bounds_pairs(ray_session):
    import ray.data as rd

    from agenticknowledgegraphconstructionsystem_ray.stages import dedup

    n, m = 400, 200  # m identical docs = 50% of the corpus, m >> cap
    assert m > dedup.MAX_BUCKET_ALL_PAIRS
    texts = []
    for i in range(n):
        if i < m:
            texts.append("the identical boilerplate frame " * 12)
        else:
            texts.append(f"unique document body {i} " * 12 + f"tail {i}")
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))

    pairs = dedup.minhash_near_dups(docs, threshold=0.8)
    a = pairs["doc_a"].to_numpy()
    b = pairs["doc_b"].to_numpy()
    in_cluster = (a < m) & (b < m)
    n_cluster_pairs = int(in_cluster.sum())

    # the chain cap bounds the hot cluster LINEARLY: at most one chain per
    # band (bands collide identically for identical docs), never m^2/2
    assert n_cluster_pairs <= dedup._BANDS * (m - 1)
    assert n_cluster_pairs < m * (m - 1) // 4  # far from quadratic

    # connectivity survives the cap: union-find over the emitted pairs
    # still joins ALL m members (keep verdicts need one component)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a[in_cluster], b[in_cluster]):
        parent[find(int(x))] = find(int(y))
    roots = {find(i) for i in range(m)}
    assert len(roots) == 1
