"""Golden-file oracles for the KG pipeline driver queries.

The driver's correctness gate compares each ``queries()`` entry against a
DuckDB ``oracle_sql()`` string. The KG pipeline itself (deterministic NER +
per-page dedup + union-find canonicalization + validation) is not expressible
in SQL over the input tables — but its expected OUTPUT can be computed by an
independent sequential single-process implementation (the same pure kernels
as :mod:`..oracle`, none of the Ray orchestration: no chunking, no shuffles,
no combiners, no broadcast maps) and written as parquet that the oracle SQL
then reads with ``read_parquet``. That turns every ``kg_*`` driver entry from
a rows-only check into a full value comparison: distributed pipeline vs
sequential golden.

Everything here is sequential Python loops on the driver — deliberately so.
It runs once per scale factor (idempotent marker) at the small correctness
scale (sf0.01, 5k pages), never on benchmark-sized data.

Reference parity anchors: extraction semantics
``/root/reference/agents/src/agents/entity-extraction-agent.ts:30-79``,
confidence ``relationship-discovery-agent.ts:43-60``, validation rules
``validation-agent.ts:69-389``, dedup ``db_init.py:128``.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq

from . import synth
from .functions.confidence import calculate_base_confidence
from .functions.html_text import html_to_text
from .functions.textnorm import norm_surface
from .functions.triples import extract_mentions_and_triples, mention_relevance
from .functions.validate_rules import (
    is_valid,
    should_flag_for_review,
    validate_entity,
    validate_relationship,
)
from .state.unionfind import UnionFind

GOLDEN_ROOT = "/tmp/agkg_golden"
GOLDEN_VERSION = "49"  # v48: quantized audio windows; v49: entity issues
                       # from node_issue_rows, not the pipeline's kernel

# The driver's correctness gate always runs at sf0.01; the kg_* oracle SQL
# strings are pinned to this golden directory.
DRIVER_SF = 0.01
DRIVER_SF_DIR = "/root/testdata/sf0.01"


def golden_dir(sf: float) -> str:
    return os.path.join(GOLDEN_ROOT, f"sf{sf:g}")


# ---------------------------------------------------------------------------
# sequential corpus pass
# ---------------------------------------------------------------------------

def _extract_page(text: str, alias: dict | None):
    """One page, sequentially: (mention rows, per-page-deduped edge rows,
    per-norm (n_in_page, score) dict). Mirrors the SEMANTICS of the
    distributed extractor: extraction runs the sequential reference kernel
    (not the pipeline's document scanner), and the orchestration
    (aggregation order, dedup representative, confidence inputs) is
    re-derived independently here."""
    mentions, triples = extract_mentions_and_triples(text or "")

    agg: dict[str, dict] = {}
    for m in mentions:
        slot = agg.get(m.norm)
        if slot is None:
            agg[m.norm] = {"surface": m.surface, "n": 1}
        else:
            slot["n"] += 1
    scores = {norm: mention_relevance(s["n"]) for norm, s in agg.items()}

    m_rows = []
    for norm in sorted(agg):
        s = agg[norm]
        if alias is not None:
            hit = alias.get(norm)
            ent_type = hit[1] if hit else "concept"
            link_score = 1.0 if hit else 0.0
        else:
            ent_type, link_score = None, None
        m_rows.append(
            {
                "norm_surface": norm,
                "surface": s["surface"],
                "ent_type": ent_type,
                "score": scores[norm],
                "n_in_page": s["n"],
                "link_score": link_score,
            }
        )

    # per-page exact dedup on the canonical key, smallest
    # (confidence, context, subj, subj_norm, obj, obj_norm) representative
    best: dict[tuple, tuple] = {}
    for t in triples:
        sn, on = norm_surface(t.subj), norm_surface(t.obj)
        if alias is not None:
            canon_s = norm_surface(alias[sn][0]) if sn in alias else sn
            canon_o = norm_surface(alias[on][0]) if on in alias else on
        else:
            canon_s, canon_o = sn, on
        shared = [v for k, v in scores.items() if k not in (sn, on)]
        conf = calculate_base_confidence(shared)
        key = (canon_s, t.pred, canon_o)
        cand = (conf, t.context, t.subj, sn, t.obj, on)
        if key not in best or cand < best[key]:
            best[key] = cand
    e_rows = [
        {
            "subj": subj,
            "subj_norm": sn,
            "pred": key[1],
            "obj": obj,
            "obj_norm": on,
            "confidence": conf,
            "context": context,
        }
        for key, (conf, context, subj, sn, obj, on) in sorted(best.items())
    ]
    return m_rows, e_rows, {n: (agg[n]["n"], scores[n]) for n in agg}


def _canonicalize(counts: dict[str, list], alias: dict):
    """Sequential union-find canonicalization -> (node row dicts sorted by
    canonical name with dense entity ids, norm -> (entity_id, canonical))."""
    uf = UnionFind()
    for norm in counts:
        uf.add(norm)
        hit = alias.get(norm)
        if hit is not None:
            uf.union(norm, norm_surface(hit[0]))

    rows = []
    for _, members in sorted(uf.components().items()):
        canon_names = sorted({alias[m][0] for m in members if m in alias})
        member_types = sorted({alias[m][1] for m in members if m in alias})
        canonical = canon_names[0] if canon_names else members[0]
        ent_type = member_types[0] if member_types else "concept"
        seen = [m for m in members if m in counts]
        if not seen:
            continue
        rows.append(
            {
                "canonical_name": canonical,
                "ent_type": ent_type,
                "mention_count": sum(counts[m][0] for m in seen),
                "link_count": sum(counts[m][1] for m in seen),
                "perfect_links": sum(counts[m][2] for m in seen),
                "max_score": max(counts[m][3] for m in seen),
                "min_score": min(counts[m][4] for m in seen),
                "aliases": sorted(seen),
                "_members": members,
            }
        )
    rows.sort(key=lambda r: r["canonical_name"])
    id_map: dict[str, tuple[int, str]] = {}
    for eid, r in enumerate(rows):
        r["entity_id"] = eid
        for m in r.pop("_members"):
            id_map[m] = (eid, r["canonical_name"])
    return rows, id_map


def node_issue_rows(nodes: list[dict]) -> list[dict]:
    """Entity issue rows of node dicts, one node at a time: the sequential
    reference of ``stages.validate.validate_nodes_table``. E3 runs on the
    node's score aggregates (max/min score, perfect-score link count)."""
    rows: list[dict] = []
    for r in nodes:
        issues = validate_entity(
            name=r["canonical_name"],
            mention_count=r["mention_count"],
            link_count=r["link_count"],
            relevance_scores=[],
        )
        for s in (r["max_score"], r["min_score"]):
            if s is not None and (s < 0 or s > 1):
                issues.append(
                    {
                        "severity": "error",
                        "rule": "invalid_relevance_score",
                        "message": f"Relevance score {s} is outside valid range [0, 1]",
                    }
                )
        if r["perfect_links"] > 0 and r["mention_count"] == 1:
            issues.append(
                {
                    "severity": "warning",
                    "rule": "suspicious_perfect_score",
                    "message": "Relevance 1.0 but concept mentioned in only 1 document - may be overstated",
                }
            )
        for i in issues:
            rows.append({"domain": "entity", "key": r["canonical_name"], **i})
    return rows


def _compute_kg_golden(pages_dir: str, alias: dict):
    """Full sequential KG run -> dict of pyarrow Tables keyed by artifact."""
    from .stages.validate import EDGE_RULES

    text_rows: list[dict] = []
    mention_rows: list[dict] = []
    raw_edges: list[dict] = []
    # norm -> [mention_count, link_count, perfect_links, max_score, min_score]
    counts: dict[str, list] = {}

    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        t = pq.read_table(f, columns=["url", "warc_ts", "html", "lang"])
        for url, ts, html, lang in zip(
            t.column("url").to_pylist(),
            t.column("warc_ts").to_pylist(),
            t.column("html").to_pylist(),
            t.column("lang").to_pylist(),
        ):
            text = html_to_text(html)
            text_rows.append({"url": url, "text": text, "lang": lang})
            m_rows, e_rows, page_counts = _extract_page(text, alias)
            for r in m_rows:
                r["url"] = url
                mention_rows.append(r)
            for r in e_rows:
                r["url"] = url
                r["warc_ts"] = ts
                raw_edges.append(r)
            for norm, (n, score) in page_counts.items():
                slot = counts.get(norm)
                if slot is None:
                    counts[norm] = [n, 1, int(score == 1.0), score, score]
                else:
                    slot[0] += n
                    slot[1] += 1
                    slot[2] += int(score == 1.0)
                    slot[3] = max(slot[3], score)
                    slot[4] = min(slot[4], score)

    node_rows, id_map = _canonicalize(counts, alias)

    edges = []
    for r in raw_edges:
        sid, sname = id_map.get(r["subj_norm"], (-1, r["subj_norm"]))
        oid, oname = id_map.get(r["obj_norm"], (-1, r["obj_norm"]))
        issues = validate_relationship(
            sid, oid, r["pred"], r["confidence"], r["context"]
        )
        edges.append(
            {
                "subj_id": sid,
                "pred": r["pred"],
                "obj_id": oid,
                "subj": sname,
                "obj": oname,
                "url": r["url"],
                "warc_ts": r["warc_ts"],
                "confidence": r["confidence"],
                "context": r["context"],
                "validated": is_valid(issues),
                "flag_for_review": should_flag_for_review(
                    r["confidence"], issues
                ),
                "_issues": issues,
            }
        )
    edges.sort(key=lambda e: (e["subj_id"], e["pred"], e["obj_id"], e["url"]))

    # issue rows: entity issues one node at a time, edge issues with the
    # pipeline's static per-rule messages
    nodes_table = pa.table(
        {
            "entity_id": pa.array([r["entity_id"] for r in node_rows], pa.int64()),
            "canonical_name": pa.array([r["canonical_name"] for r in node_rows]),
            "ent_type": pa.array([r["ent_type"] for r in node_rows]),
            "mention_count": pa.array([r["mention_count"] for r in node_rows], pa.int64()),
            "link_count": pa.array([r["link_count"] for r in node_rows], pa.int64()),
            "perfect_links": pa.array([r["perfect_links"] for r in node_rows], pa.int64()),
            "max_score": pa.array([r["max_score"] for r in node_rows], pa.float64()),
            "min_score": pa.array([r["min_score"] for r in node_rows], pa.float64()),
            "aliases": pa.array([r["aliases"] for r in node_rows], pa.list_(pa.string())),
        }
    )
    issue_rows = node_issue_rows(node_rows)
    for e in edges:
        key = f'{e["subj_id"]}|{e["pred"]}|{e["obj_id"]}|{e["url"]}'
        for i in e.pop("_issues"):
            sev, msg = EDGE_RULES[i["rule"]]
            issue_rows.append(
                {
                    "domain": "relationship",
                    "key": key,
                    "severity": sev,
                    "rule": i["rule"],
                    "message": msg,
                }
            )

    out: dict[str, pa.Table] = {}
    out["text"] = pa.table(
        {
            "url": pa.array([r["url"] for r in text_rows]),
            "text": pa.array([r["text"] for r in text_rows]),
            "lang": pa.array([r["lang"] for r in text_rows]),
        }
    )
    out["mentions"] = pa.table(
        {
            "url": pa.array([r["url"] for r in mention_rows]),
            "norm_surface": pa.array([r["norm_surface"] for r in mention_rows]),
            "surface": pa.array([r["surface"] for r in mention_rows]),
            "ent_type": pa.array([r["ent_type"] for r in mention_rows]),
            "score": pa.array([r["score"] for r in mention_rows], pa.float64()),
            "n_in_page": pa.array([r["n_in_page"] for r in mention_rows], pa.int32()),
            "link_score": pa.array([r["link_score"] for r in mention_rows], pa.float64()),
        }
    )
    out["nodes"] = nodes_table.drop_columns(["aliases"]).append_column(
        "aliases_joined",
        pa.array(["|".join(r["aliases"]) for r in node_rows], pa.string()),
    )
    out["edges"] = pa.table(
        {
            "subj_id": pa.array([e["subj_id"] for e in edges], pa.int64()),
            "pred": pa.array([e["pred"] for e in edges]),
            "obj_id": pa.array([e["obj_id"] for e in edges], pa.int64()),
            "subj": pa.array([e["subj"] for e in edges]),
            "obj": pa.array([e["obj"] for e in edges]),
            "url": pa.array([e["url"] for e in edges]),
            "warc_ts": pa.array([e["warc_ts"] for e in edges], pa.timestamp("us")),
            "confidence": pa.array([e["confidence"] for e in edges], pa.float64()),
            "context": pa.array([e["context"] for e in edges]),
            "validated": pa.array([e["validated"] for e in edges], pa.bool_()),
            "flag_for_review": pa.array([e["flag_for_review"] for e in edges], pa.bool_()),
        }
    )
    out["issues"] = pa.table(
        {
            "domain": pa.array([r["domain"] for r in issue_rows]),
            "key": pa.array([r["key"] for r in issue_rows]),
            "severity": pa.array([r["severity"] for r in issue_rows]),
            "rule": pa.array([r["rule"] for r in issue_rows]),
            "message": pa.array([r["message"] for r in issue_rows]),
        }
    )
    return out


def _compute_docs_triples_golden(sf_dir: str) -> pa.Table:
    """Sequential golden for kg_docs_triples: per-document mention/triple row
    counts from the extractor applied to the documents table (no alias dict,
    matching the pipeline call)."""
    rows = []
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    for doc_id, text in zip(
        t.column("doc_id").to_pylist(), t.column("text").to_pylist()
    ):
        m_rows, e_rows, _ = _extract_page(text, alias=None)
        rows.append(
            {
                "url": f"doc://{doc_id}",
                "n_mentions": len(m_rows),
                "n_triples": len(e_rows),
            }
        )
    return pa.table(
        {
            "url": pa.array([r["url"] for r in rows]),
            "n_mentions": pa.array([r["n_mentions"] for r in rows], pa.int64()),
            "n_triples": pa.array([r["n_triples"] for r in rows], pa.int64()),
        }
    )


def _seq_minhash_pairs(sf_dir: str, threshold: float = 0.8) -> pa.Table:
    """Sequential MinHash-LSH near-dup golden: same pure per-doc kernels
    (minhash_signature/band_keys/shingles/jaccard), orchestration (banding,
    bucketing, candidate generation, verify) re-run in one process with
    plain dicts."""
    import numpy as np

    from .stages import dedup

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ids = t["doc_id"].to_pylist()
    texts = dict(zip(ids, t["text"].to_pylist()))
    buckets: dict[tuple, list[int]] = {}
    for i in ids:
        sig = dedup.minhash_signature(texts[i])
        keys = dedup.band_keys(sig.reshape(1, -1))[0]
        for band in range(dedup._BANDS):
            key = (band, int(keys[band]))
            buckets.setdefault(key, []).append(i)
    cand: set[tuple[int, int]] = set()
    for members in buckets.values():
        ms = sorted(members)
        if len(ms) > dedup.MAX_BUCKET_ALL_PAIRS:
            cand.update(zip(ms[:-1], ms[1:]))
        else:
            cand.update((a, b) for i, a in enumerate(ms) for b in ms[i + 1 :])
    sh = {
        i: dedup.shingles_of(texts[i]) for i in {d for p in cand for d in p}
    }
    rows = []
    for a, b in sorted(cand):
        j = dedup.jaccard(sh[a], sh[b])
        if j >= threshold:
            rows.append((a, b, int(j * 1_000_000 + 0.5)))
    return pa.table(
        {
            "doc_a": pa.array([r[0] for r in rows], pa.int64()),
            "doc_b": pa.array([r[1] for r in rows], pa.int64()),
            "jaccard_ppm": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _seq_simhash_pairs(sf_dir: str, max_hamming: int = 3) -> pa.Table:
    """Sequential SimHash near-dup golden (4x16-bit band buckets)."""
    from .stages import dedup

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ids = t["doc_id"].to_pylist()
    h = {i: dedup.simhash64(x) for i, x in zip(ids, t["text"].to_pylist())}
    buckets: dict[tuple, list[int]] = {}
    for i in ids:
        for band in range(4):
            buckets.setdefault(
                (band, (h[i] >> (band * 16)) & 0xFFFF), []
            ).append(i)
    cand: set[tuple[int, int]] = set()
    for members in buckets.values():
        ms = sorted(members)
        if len(ms) > dedup.MAX_BUCKET_ALL_PAIRS:
            cand.update(zip(ms[:-1], ms[1:]))
        else:
            cand.update((a, b) for i, a in enumerate(ms) for b in ms[i + 1 :])
    rows = []
    for a, b in sorted(cand):
        d = dedup.hamming64(h[a], h[b])
        if d <= max_hamming:
            rows.append((a, b, d))
    return pa.table(
        {
            "doc_a": pa.array([r[0] for r in rows], pa.int64()),
            "doc_b": pa.array([r[1] for r in rows], pa.int64()),
            "hamming": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _seq_fingerprints(sf_dir: str) -> pa.Table:
    """Sequential fingerprint golden (same pure rolling-hash kernel)."""
    import numpy as np

    from .stages.textstats import fingerprint

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    res = [fingerprint(x) for x in t["text"].to_pylist()]
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "fp_min": pa.array([np.uint64(r[0]) for r in res], pa.uint64()),
            "n_fps": pa.array([r[1] for r in res], pa.int64()),
        }
    )


def _seq_winnow_pairs(sf_dir: str) -> pa.Table:
    """Sequential winnowing-pair golden: same winnow_set kernel per doc,
    then an in-memory posting dict with the identical WN_CAP drop rule and
    WN_MIN_SHARED threshold."""
    from .stages.textstats import WN_CAP, WN_MIN_SHARED, winnow_set

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    post: dict[int, set[int]] = {}
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        for fp in winnow_set(text):
            post.setdefault(fp, set()).add(doc_id)
    shared: dict[tuple[int, int], int] = {}
    for ids in post.values():
        if len(ids) < 2 or len(ids) > WN_CAP:
            continue
        ordered = sorted(ids)
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                k = (ordered[i], ordered[j])
                shared[k] = shared.get(k, 0) + 1
    rows = sorted((a, b, n) for (a, b), n in shared.items()
                  if n >= WN_MIN_SHARED)
    return pa.table(
        {
            "doc_a": pa.array([r[0] for r in rows], pa.int64()),
            "doc_b": pa.array([r[1] for r in rows], pa.int64()),
            "n_shared": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _seq_ivf_topk(
    sf_dir: str,
    query_ids=(0, 1, 2),
    k: int = 10,
    nlist: int = 16,
    nprobe: int = 4,
) -> pa.Table:
    """Sequential IVF golden: same deterministic kmeans-lite kernel + probe
    rule, one numpy pass instead of the bucketed Dataset pipeline."""
    import numpy as np

    from .stages.similarity import _kmeans_lite

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    M = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = Mn[:2048]
    cent = _kmeans_lite(S, nlist)
    assign = np.argmax(Mn @ cent.T, axis=1)
    rows = []
    pos = {int(v): i for i, v in enumerate(ids)}
    for qid in sorted(query_ids):
        qn = Mn[pos[qid]]
        order = np.argsort(-(cent @ qn), kind="stable")[:nprobe]
        probe = set(int(x) for x in order)
        mask = np.isin(assign, list(probe)) & (ids != qid)
        cids = ids[mask]
        sims = Mn[mask] @ qn
        top = np.lexsort((cids, -sims))[:k]
        for rank, j in enumerate(top, 1):
            rows.append((qid, int(cids[j]), rank))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "vec_id": pa.array([r[1] for r in rows], pa.int64()),
            "rank": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _seq_lsh_topk(
    sf_dir: str,
    query_ids=(0, 1, 2),
    k: int = 10,
    nbits: int | None = None,
) -> pa.Table:
    """Sequential LSH golden: same seeded hyperplanes + sign-code + Hamming-1
    probe rule (stages/similarity.lsh_planes/lsh_codes — shared kernels), one
    numpy pass instead of the bucketed Dataset pipeline."""
    import numpy as np

    from .stages.similarity import LSH_BITS, lsh_codes, lsh_planes

    nbits = LSH_BITS if nbits is None else nbits
    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    M = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    planes = lsh_planes(Mn.shape[1], nbits)
    codes = lsh_codes(Mn, planes)
    pos = {int(v): i for i, v in enumerate(ids)}
    rows = []
    for qid in sorted(query_ids):
        qn = Mn[pos[qid]]
        qcode = int(lsh_codes(qn[None, :], planes)[0])
        probe = {qcode} | {qcode ^ (1 << b) for b in range(nbits)}
        mask = np.isin(codes, list(probe)) & (ids != qid)
        cids = ids[mask]
        sims = Mn[mask] @ qn
        top = np.lexsort((cids, -sims))[:k]
        for rank, j in enumerate(top, 1):
            rows.append((qid, int(cids[j]), rank))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "vec_id": pa.array([r[1] for r in rows], pa.int64()),
            "rank": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _seq_pca(sf_dir: str) -> pa.Table:
    """Sequential PCA golden: ONE integer moment partial over the whole
    matrix (same pca_partial kernel), then the same driver eigensolve.
    Integer partial sums are associative, so this is bit-identical to the
    pipeline's per-block merge."""
    import numpy as np

    from .stages.similarity import pca_eigen_ppm, pca_partial

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["embedding"]
    )
    M = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    n, s, o = pca_partial(M)
    s_obj = [int(x) for x in s]
    o_obj = np.asarray([int(x) for x in o.reshape(-1)], dtype=object).reshape(
        o.shape
    )
    return pca_eigen_ppm(n, s_obj, o_obj)


def _seq_knn(sf_dir: str) -> pa.Table:
    """Sequential kNN golden: exact cosine top-k per query in one numpy pass
    (same (sim DESC, vec_id ASC) tie-break as the distributed merge) + the
    shared knn_vote kernel."""
    import numpy as np

    from .stages.similarity import KNN_K, KNN_QUERIES, knn_vote

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
    )
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    labels = np.asarray(t["label"].to_pylist(), dtype=np.int64)
    M = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    pos = {int(v): i for i, v in enumerate(ids)}
    out = {"query_id": [], "pred_label": [], "true_label": [], "votes": []}
    for qid in sorted(set(KNN_QUERIES)):
        qn = Mn[pos[qid]]
        mask = ids != qid
        cids = ids[mask]
        sims = Mn[mask] @ qn
        top = np.lexsort((cids, -sims))[:KNN_K]
        lab, votes = knn_vote([int(labels[mask][j]) for j in top])
        out["query_id"].append(qid)
        out["pred_label"].append(lab)
        out["true_label"].append(int(labels[pos[qid]]))
        out["votes"].append(votes)
    return pa.table({c: pa.array(v, pa.int64()) for c, v in out.items()})


def _seq_ridge(sf_dir: str) -> pa.Table:
    """Sequential ridge golden: ONE integer moment partial over the whole
    matrix (same ridge_partial kernel), then the same driver solve —
    integer partial sums are associative, so this is bit-identical to the
    pipeline's per-block merge."""
    import numpy as np

    from .stages.similarity import ridge_partial, ridge_solve_ppm

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["embedding", "label"]
    )
    M = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    y = np.asarray(t["label"].to_pylist(), dtype=np.int64)
    n, sx, xtx, xty, sy, sy2 = ridge_partial(M, y)
    xtx_obj = np.asarray(
        [int(x) for x in xtx.reshape(-1)], dtype=object
    ).reshape(xtx.shape)
    return ridge_solve_ppm(
        n, [int(v) for v in sx], xtx_obj, [int(v) for v in xty], sy, sy2
    )


def _seq_nbayes(sf_dir: str) -> pa.Table:
    """Sequential Naive-Bayes golden: same pure kernels
    (functions/nbayes.py) run single-process — train counts are order-free
    integer sums and the argmax is exact rational comparison, so the
    distributed pipeline must match bit-for-bit."""
    from .functions import nbayes

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    rows = sorted(
        zip(
            t["doc_id"].to_pylist(),
            t["text"].to_pylist(),
            t["lang"].to_pylist(),
        )
    )
    memo: dict[str, int] = {}
    n_docs: dict[str, int] = {}
    cnt: dict[tuple[str, int], int] = {}
    tot: dict[str, int] = {}
    for doc_id, text, lang in rows:
        if nbayes.is_test_doc(doc_id):
            continue
        n_docs[lang] = n_docs.get(lang, 0) + 1
        for b in nbayes.doc_buckets(text, memo):
            cnt[(lang, b)] = cnt.get((lang, b), 0) + 1
            tot[lang] = tot.get(lang, 0) + 1
    classes = sorted(n_docs)
    ids, true_l, pred_l = [], [], []
    for doc_id, text, lang in rows:
        if not nbayes.is_test_doc(doc_id):
            continue
        ids.append(doc_id)
        true_l.append(lang)
        pred_l.append(
            nbayes.predict_doc(
                nbayes.doc_buckets(text, memo), classes, n_docs, cnt, tot
            )
        )
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "lang": pa.array(true_l, pa.string()),
            "pred_lang": pa.array(pred_l, pa.string()),
            "correct": pa.array(
                [int(a == b) for a, b in zip(true_l, pred_l)], pa.int64()
            ),
        }
    )


def _seq_pairs_keep(
    sf_dir: str, pairs: pa.Table, score_of: dict[int, int] | None = None
) -> pa.Table:
    """Sequential near-dup keep golden: same UnionFind kernel over a
    sequential pair list (any source), plain dict orchestration, full doc
    scan. ``score_of`` switches to the best-score representative rule
    (mirrors stages.dedup.near_dup_keep)."""
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
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    ids = t["doc_id"].to_pylist()
    reps = [rep_of.get(i, i) for i in ids]
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "rep_id": pa.array(reps, pa.int64()),
            "keep": pa.array([i == r for i, r in zip(ids, reps)], pa.bool_()),
        }
    )


def _seq_mm_keep(
    sf_dir: str, pairs: pa.Table, predicate_mod: int, predicate_not: bool
) -> pa.Table:
    """Sequential image/video keep golden (mirrors training._mm_keep):
    UnionFind over the modality pair list, min-id representative, verdict
    row for every media item matching the modality's formula predicate
    (media_id == doc_id)."""
    uf = UnionFind()
    for a, b in zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()):
        uf.add(a)
        uf.add(b)
        uf.union(a, b)
    rep_of: dict[int, int] = {}
    for members in uf.components().values():
        rep = min(members)
        for m in members:
            rep_of[m] = rep
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    ids = [
        i
        for i in t["doc_id"].to_pylist()
        if (i % predicate_mod == 2) != predicate_not
    ]
    reps = [rep_of.get(i, i) for i in ids]
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "rep_id": pa.array(reps, pa.int64()),
            "keep": pa.array([i == r for i, r in zip(ids, reps)], pa.bool_()),
        }
    )


def _seq_keep_best(sf_dir: str, pairs: pa.Table) -> pa.Table:
    """Sequential keep-best golden: same pure quality kernel
    (assembly.quality_score) over the pair-involved docs, best-score
    representative rule."""
    from .pipelines.assembly import quality_score

    members = {
        d for col in ("doc_a", "doc_b") for d in pairs[col].to_pylist()
    }
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    score_of = {
        i: quality_score(x)
        for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
        if i in members
    }
    return _seq_pairs_keep(sf_dir, pairs, score_of=score_of)


def _seq_kmeans(sf_dir: str, k: int = 8, iters: int = 5) -> pa.Table:
    """Sequential Lloyd's k-means golden: one numpy process, plain loop —
    same pure kernels (km_quantize / km_assign, stages/similarity.py) and
    the identical integer floor-mean update, independent orchestration.
    Exact agreement with the distributed path is guaranteed by the int64
    fixed-point contract (block order cannot change integer sums)."""
    import numpy as np

    from .stages.similarity import km_assign, km_quantize

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    order = pa.compute.sort_indices(t["vec_id"])
    vec_ids = pa.compute.take(t["vec_id"], order).to_numpy()
    mat = np.array(pa.compute.take(t["embedding"], order).to_pylist(), np.float64)
    q = km_quantize(mat)
    cent = q[:k].copy()  # vec_ids are 0..n-1 sorted, so seeds = ids < k
    for _ in range(iters):
        cl, _ = km_assign(q, cent)
        cent = cent.copy()
        for j in range(k):
            sel = q[cl == j]
            if len(sel):
                cent[j] = sel.sum(axis=0) // len(sel)
    cl, d = km_assign(q, cent)
    return pa.table(
        {
            "vec_id": pa.array(vec_ids, pa.int64()),
            "cluster": pa.array(cl, pa.int64()),
            "dist2": pa.array(d, pa.int64()),
        }
    )


def _seq_components(nodes_t: pa.Table, edges_t: pa.Table) -> pa.Table:
    """Sequential weakly-connected-components golden: plain union-find over
    the linked (subj_id, obj_id) edges + every node as its own seed;
    component = smallest member id (matches min-label propagation)."""
    uf = UnionFind()
    for eid in nodes_t["entity_id"].to_pylist():
        uf.add(int(eid))
    for s_, o_ in zip(
        edges_t["subj_id"].to_pylist(), edges_t["obj_id"].to_pylist()
    ):
        if s_ >= 0 and o_ >= 0:
            uf.add(int(s_))
            uf.add(int(o_))
            uf.union(int(s_), int(o_))
    comp_of: dict[int, int] = {}
    for members in uf.components().values():
        rep = min(members)
        for m in members:
            comp_of[m] = rep
    ids = sorted(comp_of)
    return pa.table(
        {
            "entity_id": pa.array(ids, pa.int64()),
            "component": pa.array([comp_of[i] for i in ids], pa.int64()),
        }
    )


def _seq_pagerank(nodes_t: pa.Table, edges_t: pa.Table) -> pa.Table:
    """Sequential fixed-point PageRank golden — same integer semantics as
    :func:`..pipelines.graphalgo.pagerank` (distinct linked (subj, obj)
    pairs, damping 85/100 by floor division, dangling mass dropped, fixed
    iteration count), plain dict orchestration."""
    from .pipelines.graphalgo import (
        PR_BASE,
        PR_DAMP_DEN,
        PR_DAMP_NUM,
        PR_ITERS,
        PR_SCALE,
        PR_TOP,
    )

    node_ids = nodes_t["entity_id"].to_pylist()
    pairs = {
        (s, o)
        for s, o in zip(
            edges_t["subj_id"].to_pylist(), edges_t["obj_id"].to_pylist()
        )
        if s >= 0 and o >= 0
    }
    succ: dict[int, list[int]] = {}
    for s, o in pairs:
        succ.setdefault(s, []).append(o)

    rank = {v: PR_SCALE for v in node_ids}
    for _ in range(PR_ITERS):
        nxt = {v: PR_BASE for v in node_ids}
        for s, outs in succ.items():
            share = (rank[s] * PR_DAMP_NUM // PR_DAMP_DEN) // len(outs)
            for o in outs:
                nxt[o] += share
        rank = nxt
    top = sorted(rank.items(), key=lambda kv: (-kv[1], kv[0]))[:PR_TOP]
    return pa.table(
        {
            "entity_id": pa.array([k for k, _ in top], pa.int64()),
            "rank_fp": pa.array([v for _, v in top], pa.int64()),
        }
    )


def _seq_ppr(nodes_t: pa.Table, edges_t: pa.Table, seed_mod: int) -> pa.Table:
    """Sequential personalized-PageRank golden — _seq_pagerank with the
    teleport mass (init + per-round base) restricted to seed nodes."""
    from .pipelines.graphalgo import (
        PR_BASE,
        PR_DAMP_DEN,
        PR_DAMP_NUM,
        PR_ITERS,
        PR_SCALE,
        PR_TOP,
    )

    node_ids = nodes_t["entity_id"].to_pylist()
    pairs = {
        (s, o)
        for s, o in zip(
            edges_t["subj_id"].to_pylist(), edges_t["obj_id"].to_pylist()
        )
        if s >= 0 and o >= 0
    }
    succ: dict[int, list[int]] = {}
    for s, o in pairs:
        succ.setdefault(s, []).append(o)

    rank = {v: (PR_SCALE if v % seed_mod == 0 else 0) for v in node_ids}
    for _ in range(PR_ITERS):
        nxt = {v: (PR_BASE if v % seed_mod == 0 else 0) for v in node_ids}
        for s, outs in succ.items():
            share = (rank[s] * PR_DAMP_NUM // PR_DAMP_DEN) // len(outs)
            for o in outs:
                nxt[o] += share
        rank = nxt
    top = sorted(rank.items(), key=lambda kv: (-kv[1], kv[0]))[:PR_TOP]
    return pa.table(
        {
            "entity_id": pa.array([k for k, _ in top], pa.int64()),
            "rank_fp": pa.array([v for _, v in top], pa.int64()),
        }
    )


def _seq_kcore(edges_t: pa.Table) -> pa.Table:
    """Sequential k-core golden: plain-Python bulk peeling with the same
    semantics as :func:`..pipelines.graphalgo.kcore` (undirected distinct
    pairs of linked edges, self-loops dropped, all below-k nodes removed
    per round). Emits (entity_id, core_deg) sorted by entity_id."""
    from .pipelines.graphalgo import KCORE_K

    edges = {
        (min(s, o), max(s, o))
        for s, o in zip(
            edges_t["subj_id"].to_pylist(), edges_t["obj_id"].to_pylist()
        )
        if s >= 0 and o >= 0 and s != o
    }
    while True:
        deg: dict[int, int] = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        low = {n for n, d in deg.items() if d < KCORE_K}
        if not low or not edges:
            break
        edges = {e for e in edges if e[0] not in low and e[1] not in low}
    ids = sorted(deg) if edges else []
    return pa.table(
        {
            "entity_id": pa.array(ids, pa.int64()),
            "core_deg": pa.array([deg[i] for i in ids], pa.int64()),
        }
    )


def _seq_bfs(nodes_t: pa.Table, edges_t: pa.Table) -> pa.Table:
    """Sequential BFS golden: plain-Python frontier expansion with the same
    semantics as :func:`..pipelines.graphalgo.bfs_hops` (undirected distinct
    pairs of linked edges, self-loops dropped, seeds = entity_id %
    BFS_SEED_MOD == 0, reachable nodes only). Emits (entity_id, dist)
    sorted by entity_id."""
    from .pipelines.graphalgo import BFS_SEED_MOD

    adj: dict[int, set[int]] = {}
    for s, o in zip(
        edges_t["subj_id"].to_pylist(), edges_t["obj_id"].to_pylist()
    ):
        if s >= 0 and o >= 0 and s != o:
            adj.setdefault(s, set()).add(o)
            adj.setdefault(o, set()).add(s)
    dist = {
        n: 0
        for n in nodes_t["entity_id"].to_pylist()
        if n % BFS_SEED_MOD == 0
    }
    frontier = sorted(dist)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for n in frontier:
            for m in adj.get(n, ()):
                if m not in dist:
                    dist[m] = d
                    nxt.append(m)
        frontier = nxt
    ids = sorted(dist)
    return pa.table(
        {
            "entity_id": pa.array(ids, pa.int64()),
            "dist": pa.array([dist[i] for i in ids], pa.int64()),
        }
    )


def _seq_walks(nodes_t: pa.Table, edges_t: pa.Table) -> pa.Table:
    """Sequential random-walk golden: same keyed-hash next-hop rule as
    :func:`..pipelines.graphalgo.random_walks` (neighbor minimizing
    md5(f"{start}:{step}:{neighbor}"), undirected distinct pairs, dead ends
    stop). Emits (start_id, step, node_id) sorted by (start_id, step)."""
    import hashlib

    from .pipelines.graphalgo import WALK_LEN

    adj: dict[int, set[int]] = {}
    for s, o in zip(
        edges_t["subj_id"].to_pylist(), edges_t["obj_id"].to_pylist()
    ):
        if s >= 0 and o >= 0 and s != o:
            adj.setdefault(s, set()).add(o)
            adj.setdefault(o, set()).add(s)
    rows = []
    for start in sorted(nodes_t["entity_id"].to_pylist()):
        cur = start
        rows.append((start, 0, cur))
        for step in range(WALK_LEN):
            nbrs = adj.get(cur)
            if not nbrs:
                break
            cur = min(
                nbrs,
                key=lambda d: (
                    hashlib.md5(f"{start}:{step}:{d}".encode()).hexdigest(),
                    d,
                ),
            )
            rows.append((start, step + 1, cur))
    return pa.table(
        {
            "start_id": pa.array([r[0] for r in rows], pa.int64()),
            "step": pa.array([r[1] for r in rows], pa.int64()),
            "node_id": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _seq_harmonic(nodes_t: pa.Table, edges_t: pa.Table) -> pa.Table:
    """Sequential harmonic-centrality golden: per-seed BFS to HC_MAX_D over
    the undirected distinct-pair graph, same integer 1e6//d contributions
    as pipelines.graphalgo.harmonic_centrality."""
    from collections import deque

    from .pipelines.graphalgo import HC_MAX_D, HC_PPM, HC_SEED_MOD

    adj: dict[int, set[int]] = {}
    for s, o in zip(
        edges_t["subj_id"].to_pylist(), edges_t["obj_id"].to_pylist()
    ):
        if s >= 0 and o >= 0 and s != o:
            adj.setdefault(s, set()).add(o)
            adj.setdefault(o, set()).add(s)
    h: dict[int, int] = {}
    n_seeds: dict[int, int] = {}
    for seed in sorted(nodes_t["entity_id"].to_pylist()):
        if seed % HC_SEED_MOD != 0:
            continue
        dist = {seed: 0}
        q = deque([seed])
        while q:
            u = q.popleft()
            if dist[u] >= HC_MAX_D:
                continue
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        for v, d in dist.items():
            if d > 0:
                h[v] = h.get(v, 0) + HC_PPM // d
                n_seeds[v] = n_seeds.get(v, 0) + 1
    ids = sorted(h)
    return pa.table(
        {
            "entity_id": pa.array(ids, pa.int64()),
            "harmonic_ppm": pa.array([h[i] for i in ids], pa.int64()),
            "n_seeds": pa.array([n_seeds[i] for i in ids], pa.int64()),
        }
    )


def _seq_betweenness(nodes_t: pa.Table, edges_t: pa.Table) -> pa.Table:
    """Sequential truncated-Brandes golden: per-seed BFS with path counts to
    BC_MAX_D, then level-wise dependency accumulation with the SAME
    per-successor-edge integer floor as
    pipelines.graphalgo.betweenness_centrality."""
    from collections import deque

    from .pipelines.graphalgo import BC_MAX_D, BC_SCALE, BC_SEED_MOD

    adj: dict[int, set[int]] = {}
    for s, o in zip(
        edges_t["subj_id"].to_pylist(), edges_t["obj_id"].to_pylist()
    ):
        if s >= 0 and o >= 0 and s != o:
            adj.setdefault(s, set()).add(o)
            adj.setdefault(o, set()).add(s)
    bc: dict[int, int] = {}
    n_seeds: dict[int, int] = {}
    for seed in sorted(nodes_t["entity_id"].to_pylist()):
        if seed % BC_SEED_MOD != 0:
            continue
        dist = {seed: 0}
        sigma = {seed: 1}
        q = deque([seed])
        while q:
            u = q.popleft()
            if dist[u] >= BC_MAX_D:
                continue
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    sigma[v] = 0
                    q.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
        delta = {v: 0 for v in dist}
        for v in sorted(dist, key=lambda x: -dist[x]):
            acc = 0
            for w in adj.get(v, ()):
                if dist.get(w) == dist[v] + 1:
                    acc += sigma[v] * (BC_SCALE + delta[w]) // sigma[w]
            delta[v] = acc
        for v, d in dist.items():
            if d > 0:
                bc[v] = bc.get(v, 0) + delta[v]
                n_seeds[v] = n_seeds.get(v, 0) + 1
    ids = sorted(bc)
    return pa.table(
        {
            "entity_id": pa.array(ids, pa.int64()),
            "bc_fp": pa.array([bc[i] for i in ids], pa.int64()),
            "n_seeds": pa.array([n_seeds[i] for i in ids], pa.int64()),
        }
    )


def _seq_lineage(pages_dir: str) -> pa.Table:
    """Sequential lineage golden: replays the deterministic chunk plan
    (kg.plan_chunks over the sorted page files — a pure function of the
    file listing, shared per NOTES invariant 1) and counts pages per chunk
    from parquet metadata. Mirrors what phase A's committed manifests must
    record for a complete run."""
    import dataclasses

    from .pipelines.kg import KGConfig, plan_chunks

    default_chunk_files = next(
        f.default for f in dataclasses.fields(KGConfig)
        if f.name == "chunk_files"
    )
    chunks = plan_chunks(pages_dir, default_chunk_files)
    rows = []
    for cid, files in enumerate(chunks):
        n = sum(pq.read_metadata(f).num_rows for f in files)
        rows.append((cid, len(files), n, "success"))
    return pa.table(
        {
            "chunk_id": pa.array([r[0] for r in rows], pa.int64()),
            "n_files": pa.array([r[1] for r in rows], pa.int64()),
            "n_pages": pa.array([r[2] for r in rows], pa.int64()),
            "status": pa.array([r[3] for r in rows], pa.string()),
        }
    )


def _seq_ann_incremental(
    sf_dir: str, query_ids=(0, 1, 2), k: int = 10, nprobe: int = 4
) -> pa.Table:
    """Sequential mirror of annindex.incremental_ivf_topk: quantizers
    trained on the OLD half (vec_id < n//2) with the SHARED kernels, then
    IVF probe + exact cosine over the full corpus — the frozen-quantizer
    equivalence makes base∪delta coding identical to this one-pass form."""
    import numpy as np

    from .stages.annindex import ANN_NLIST
    from .stages.similarity import _kmeans_lite

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    M = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    split = len(ids) // 2
    # canonical sample rule (mirrors ensure_ann_index_incremental): the
    # smallest vec_ids below min(split, 2048), ordered by vec_id
    bound = min(split, 2048)
    sel = np.nonzero(ids < bound)[0]
    sel = sel[np.argsort(ids[sel], kind="stable")]
    S = Mn[sel]
    cent = _kmeans_lite(S, ANN_NLIST)
    assign = np.argmax(Mn @ cent.T, axis=1)
    pos = {int(v): i for i, v in enumerate(ids)}
    rows = []
    for qid in sorted(query_ids):
        qn = Mn[pos[qid]]
        order = np.argsort(-(cent @ qn), kind="stable")[:nprobe]
        probe = set(int(x) for x in order)
        mask = np.isin(assign, list(probe)) & (ids != qid)
        cids = ids[mask]
        sims = Mn[mask] @ qn
        top = np.lexsort((cids, -sims))[:k]
        for rank, j in enumerate(top, 1):
            rows.append((qid, int(cids[j]), rank))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "vec_id": pa.array([r[1] for r in rows], pa.int64()),
            "rank": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _seq_pq(sf_dir: str, k: int = 10) -> pa.Table:
    """Sequential PQ golden: same fixed-point kernels (km_quantize /
    km_assign / pq_encode) run on the whole matrix in one process — the
    distributed trainer's integer partial-sum merge must reproduce this
    bit-for-bit."""
    import numpy as np

    from .stages.similarity import (
        PQ_ITERS,
        PQ_K,
        PQ_M,
        km_assign,
        km_quantize,
        pq_encode,
    )

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    ids = np.asarray(t["vec_id"].to_pylist(), np.int64)
    mat = km_quantize(np.asarray(t["embedding"].to_pylist(), np.float64))
    order = np.argsort(ids, kind="stable")
    ids, mat = ids[order], mat[order]
    dim = mat.shape[1]
    dsub = dim // PQ_M
    smat = mat[ids < PQ_K]
    cents = np.stack(
        [smat[:, j * dsub : (j + 1) * dsub].copy() for j in range(PQ_M)]
    )
    for _ in range(PQ_ITERS):
        new = cents.copy()
        for j in range(PQ_M):
            sub = mat[:, j * dsub : (j + 1) * dsub]
            cl, _ = km_assign(sub, cents[j])
            for c in range(PQ_K):
                sel = sub[cl == c]
                if len(sel):
                    new[j, c] = sel.sum(axis=0) // len(sel)
        cents = new
    codes = pq_encode(mat, cents)
    query_ids = [0, 1, 2]
    rows_q, rows_v, rows_r = [], [], []
    for qid in query_ids:
        qv = mat[ids == qid][0]
        lut = np.stack(
            [qv[j * dsub : (j + 1) * dsub] @ cents[j].T for j in range(PQ_M)]
        )
        scores = lut[np.arange(PQ_M)[None, :], codes].sum(axis=1)
        top = np.lexsort((ids, -scores))[:k]
        rows_q.extend([qid] * len(top))
        rows_v.extend(ids[top].tolist())
        rows_r.extend(range(len(top)))
    return pa.table(
        {
            "query_id": pa.array(rows_q, pa.int64()),
            "vec_id": pa.array(rows_v, pa.int64()),
            "rank": pa.array(rows_r, pa.int64()),
        }
    )


def _seq_hits(nodes_t: pa.Table, edges_t: pa.Table) -> pa.Table:
    """Sequential fixed-point HITS golden — same integer semantics as
    :func:`..pipelines.graphalgo.hits` (distinct linked directed pairs,
    L-infinity normalization by floor division each half-step, fixed
    iteration count), plain dict orchestration."""
    from .pipelines.graphalgo import HITS_ITERS, HITS_SCALE, HITS_TOP

    node_ids = nodes_t["entity_id"].to_pylist()
    pairs = {
        (s, o)
        for s, o in zip(
            edges_t["subj_id"].to_pylist(), edges_t["obj_id"].to_pylist()
        )
        if s >= 0 and o >= 0
    }

    hub = {v: HITS_SCALE for v in node_ids}
    auth = dict(hub)
    for _ in range(HITS_ITERS):
        raw = {v: 0 for v in node_ids}
        for s, o in pairs:
            raw[o] += hub[s]
        mx = max(max(raw.values(), default=0), 1)
        auth = {v: x * HITS_SCALE // mx for v, x in raw.items()}
        raw = {v: 0 for v in node_ids}
        for s, o in pairs:
            raw[s] += auth[o]
        mx = max(max(raw.values(), default=0), 1)
        hub = {v: x * HITS_SCALE // mx for v, x in raw.items()}

    rows = sorted(node_ids, key=lambda v: (-auth[v], v))[:HITS_TOP]
    return pa.table(
        {
            "entity_id": pa.array(rows, pa.int64()),
            "auth_fp": pa.array([auth[v] for v in rows], pa.int64()),
            "hub_fp": pa.array([hub[v] for v in rows], pa.int64()),
        }
    )


def _seq_semdedup(sf_dir: str) -> pa.Table:
    """Sequential SemDeDup golden: the shared integer k-means kernels assign
    clusters in one process, then the shared greedy kernel
    (stages/similarity.semdedup_group_kernel) scans each cluster's members in
    vec_id order — the distributed groupby("cluster") path must reproduce
    this bit-for-bit (cluster membership is integer-exact; the group kernel
    is literally the same function on the same sorted rows)."""
    import numpy as np

    from .stages.similarity import (
        SD_ITERS,
        SD_K,
        km_assign,
        km_quantize,
        semdedup_group_kernel,
    )

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    ids = np.asarray(t["vec_id"].to_pylist(), np.int64)
    raw = np.asarray(t["embedding"].to_pylist(), np.float64)
    order = np.argsort(ids, kind="stable")
    ids, raw = ids[order], raw[order]
    q = km_quantize(raw)
    cent = q[: SD_K].copy()  # vec_ids are 0..n-1 sorted, so seeds = ids < K
    for _ in range(SD_ITERS):
        cl, _ = km_assign(q, cent)
        cent = cent.copy()
        for j in range(SD_K):
            sel = q[cl == j]
            if len(sel):
                cent[j] = sel.sum(axis=0) // len(sel)
    cl, _ = km_assign(q, cent)
    keep = np.ones(len(ids), dtype=bool)
    for j in range(SD_K):
        sel = cl == j
        keep[sel] = semdedup_group_kernel(ids[sel], raw[sel])
    return pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "cluster": pa.array(cl, pa.int64()),
            "keep": pa.array(keep, pa.bool_()),
        }
    )


def _seq_pq_rerank(sf_dir: str) -> pa.Table:
    """Sequential PQ+re-rank golden: the sequential PQ shortlist
    (cand_mult*k) + the shared exact re-rank kernel over raw float64
    embeddings."""
    import numpy as np

    from .stages.similarity import PQR_CAND_MULT, exact_rerank_kernel

    k = 10
    query_ids = [0, 1, 2]
    shortlist = _seq_pq(sf_dir, k=PQR_CAND_MULT * k)
    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    emb_by_id = {
        int(i): np.asarray(v, np.float64)
        for i, v in zip(t["vec_id"].to_pylist(), t["embedding"].to_pylist())
    }
    sl_qid = shortlist["query_id"].to_numpy().astype(np.int64)
    sl_vid = shortlist["vec_id"].to_numpy().astype(np.int64)
    Q = np.stack([emb_by_id[q] for q in query_ids])
    Q = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    cand_mat = np.stack([emb_by_id[int(v)] for v in sl_vid])
    return exact_rerank_kernel(Q, query_ids, sl_vid, cand_mat, sl_qid, k)


def _seq_ivfpq_rerank(
    sf_dir: str,
    query_ids=(0, 1, 2),
    k: int = 10,
    nlist: int = 16,
    nprobe: int = 4,
) -> pa.Table:
    """Sequential IVFPQ+refine golden: the _seq_ivf_topk sample/probe
    conventions (file-order 2048 sample, normalized argmax buckets, self
    excluded) + the _seq_pq integer codebook trainer and LUT scoring, then
    the shared exact re-rank kernel over the cand_mult*k shortlist."""
    import numpy as np

    from .stages.similarity import (
        PQ_ITERS,
        PQ_K,
        PQ_M,
        PQR_CAND_MULT,
        _kmeans_lite,
        exact_rerank_kernel,
        km_assign,
        km_quantize,
        pq_encode,
    )

    query_ids = sorted(set(query_ids))
    cand_k = PQR_CAND_MULT * k
    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    M = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    pos = {int(v): i for i, v in enumerate(ids)}

    # IVF side (conventions of _seq_ivf_topk)
    ivf_cent = _kmeans_lite(Mn[:2048], nlist)
    assign = np.argmax(Mn @ ivf_cent.T, axis=1)

    # PQ side (trainer of _seq_pq — integer, order-free)
    mat = km_quantize(M)
    dim = mat.shape[1]
    dsub = dim // PQ_M
    smat = mat[ids < PQ_K]
    cents = np.stack(
        [smat[:, j * dsub : (j + 1) * dsub].copy() for j in range(PQ_M)]
    )
    for _ in range(PQ_ITERS):
        new = cents.copy()
        for j in range(PQ_M):
            sub = mat[:, j * dsub : (j + 1) * dsub]
            cl, _ = km_assign(sub, cents[j])
            for c in range(PQ_K):
                sel = sub[cl == c]
                if len(sel):
                    new[j, c] = sel.sum(axis=0) // len(sel)
        cents = new
    codes = pq_encode(mat, cents)

    sl_qid, sl_vid = [], []
    for qid in query_ids:
        qn = Mn[pos[qid]]
        order = np.argsort(-(ivf_cent @ qn), kind="stable")[:nprobe]
        probe = set(int(x) for x in order)
        mask = np.isin(assign, list(probe)) & (ids != qid)
        cids = ids[mask]
        qv = mat[pos[qid]]
        lut = np.stack(
            [qv[j * dsub : (j + 1) * dsub] @ cents[j].T for j in range(PQ_M)]
        )
        scores = lut[np.arange(PQ_M)[None, :], codes[mask]].sum(axis=1)
        top = np.lexsort((cids, -scores))[:cand_k]
        sl_qid.extend([qid] * len(top))
        sl_vid.extend(cids[top].tolist())
    sl_qid = np.asarray(sl_qid, np.int64)
    sl_vid = np.asarray(sl_vid, np.int64)

    Q = np.stack([Mn[pos[q]] for q in query_ids])
    cand_mat = (
        np.stack([M[pos[int(v)]] for v in sl_vid])
        if len(sl_vid)
        else np.zeros((0, M.shape[1]))
    )
    return exact_rerank_kernel(Q, list(query_ids), sl_vid, cand_mat, sl_qid, k)


def _seq_bpe(sf_dir: str) -> pa.Table:
    """Sequential BPE golden: plain-Python word counting + the shared merge
    kernel (functions/bpe.py) — the distributed side's word-count shuffle
    must feed the identical merge sequence."""
    import re

    from .functions import bpe

    token_re = re.compile(r"[a-z0-9]+")
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    counts: dict[str, int] = {}
    for text in t["text"].to_pylist():
        for tok in token_re.findall(text.lower()):
            counts[tok] = counts.get(tok, 0) + 1
    merges = bpe.learn_merges(bpe.cap_words(counts))
    return pa.table(
        {
            "rank": pa.array(range(len(merges)), pa.int64()),
            "sym_a": pa.array([m[0] for m in merges], pa.string()),
            "sym_b": pa.array([m[1] for m in merges], pa.string()),
            "n": pa.array([m[2] for m in merges], pa.int64()),
        }
    )


def _seq_bpe_encode(sf_dir: str) -> pa.Table:
    """Sequential tokenizer-application golden: sequential word counting +
    the shared learn/encode kernels (functions/bpe.py) over every doc."""
    import re

    from .functions import bpe

    token_re = re.compile(r"[a-z0-9]+")
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    counts: dict[str, int] = {}
    docs_toks: list[list[str]] = []
    for text in t["text"].to_pylist():
        ts = token_re.findall(text.lower())
        docs_toks.append(ts)
        for tok in ts:
            counts[tok] = counts.get(tok, 0) + 1
    merges = [
        (a, b) for a, b, _ in bpe.learn_merges(bpe.cap_words(counts))
    ]
    cache: dict[str, int] = {}
    n_words, n_bpe = [], []
    for ts in docs_toks:
        total = 0
        for w in ts:
            n = cache.get(w)
            if n is None:
                n = len(bpe.encode_word(w, merges))
                cache[w] = n
            total += n
        n_words.append(len(ts))
        n_bpe.append(total)
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_words": pa.array(n_words, pa.int64()),
            "n_bpe_tokens": pa.array(n_bpe, pa.int64()),
        }
    )


def _seq_zlib_ratio(sf_dir: str) -> pa.Table:
    """Sequential compression-ratio golden (same shared kernel,
    stages/textstats.zlib_ratio_batch, run on the whole table at once)."""
    from .stages.textstats import zlib_ratio_batch

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return zlib_ratio_batch(t)


def _seq_rrf(sf_dir: str, query_ids=(0, 1, 2), k: int = 10) -> pa.Table:
    """Sequential RRF golden: one-process exact brute-force ranking + the
    sequential PQ ranking, fused by the shared kernel
    (stages/similarity.rrf_fuse_kernel)."""
    import numpy as np

    from .stages.similarity import rrf_fuse_kernel

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    M = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    pos = {int(v): i for i, v in enumerate(ids)}
    rows_q, rows_v, rows_r = [], [], []
    for qid in sorted(query_ids):
        qn = Mn[pos[qid]]
        mask = ids != qid
        cids = ids[mask]
        sims = Mn[mask] @ qn
        top = np.lexsort((cids, -sims))[:k]
        for rank, j in enumerate(top, 1):
            rows_q.append(qid)
            rows_v.append(int(cids[j]))
            rows_r.append(rank)
    exact = pa.table(
        {
            "query_id": pa.array(rows_q, pa.int64()),
            "vec_id": pa.array(rows_v, pa.int64()),
            "rank": pa.array(rows_r, pa.int64()),
        }
    )
    return rrf_fuse_kernel([exact, _seq_pq(sf_dir, k=k)], k)


def _seq_dhash(sf_dir: str) -> pa.Table:
    """Sequential dHash golden: hashes computed DIRECTLY from the synthesis
    formulas (no codec), via the shared kernel (stages/imagehash.dhash64) —
    driver parity vs the encode->decode->hash pipeline proves real codec
    inversion AND hash parity."""
    from .stages.imagehash import dhash64, to_gray_i64
    from .stages.multimodal import synth_blocks, synth_gif_rgb, synth_pixels

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    ids, hs = [], []
    for d in sorted(t["doc_id"].to_pylist()):
        k = d % 5
        if k in (0, 1):
            arr = synth_pixels(d)
        elif k == 3:
            arr = synth_gif_rgb(d)
        elif k == 4:
            arr = synth_blocks(d)
        else:
            continue  # WAV
        ids.append(d)
        hs.append(dhash64(to_gray_i64(arr)))
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "dhash": pa.array(hs, pa.int64()),
        }
    )


def _seq_dhash_pairs(sf_dir: str) -> pa.Table:
    """Sequential banded near-dup mirror over the formula-direct hashes —
    same band split, bucket cap and hamming threshold as the distributed
    path (shared kernels band_values / pairs_from_bucket)."""
    from .stages.imagehash import band_values, pairs_from_bucket

    h = _seq_dhash(sf_dir)
    ids = h["media_id"].to_pylist()
    hs = h["dhash"].to_pylist()
    buckets: dict[int, list[int]] = {}
    for i, mid in enumerate(ids):
        for b, v in enumerate(band_values(hs[i])):
            buckets.setdefault(b * 65536 + v, []).append(i)
    best: dict[tuple[int, int], int] = {}
    for members in buckets.values():
        for a, b, d in pairs_from_bucket(
            [ids[i] for i in members], [hs[i] for i in members]
        ):
            best.setdefault((a, b), d)
    keys = sorted(best)
    return pa.table(
        {
            "id_a": pa.array([k[0] for k in keys], pa.int64()),
            "id_b": pa.array([k[1] for k in keys], pa.int64()),
            "hamming": pa.array([best[k] for k in keys], pa.int64()),
        }
    )


def _seq_truss(nodes_t: pa.Table, edges_t: pa.Table) -> pa.Table:
    """Sequential k-truss golden: plain set-adjacency peel with the same
    threshold as pipelines.graphalgo.truss (support = |N(a) ∩ N(b)|,
    remove edges below k-2, repeat to fixpoint, report fixpoint support)."""
    from .pipelines.graphalgo import TRUSS_K

    E: set[tuple[int, int]] = set()
    for s, o in zip(
        edges_t["subj_id"].to_pylist(), edges_t["obj_id"].to_pylist()
    ):
        if s != o and s >= 0 and o >= 0:
            E.add((min(s, o), max(s, o)))
    adj: dict[int, set[int]] = {}
    for a, b in E:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    while True:
        drop = [
            (a, b) for (a, b) in E if len(adj[a] & adj[b]) < TRUSS_K - 2
        ]
        if not drop:
            break
        for a, b in drop:
            E.discard((a, b))
            adj[a].discard(b)
            adj[b].discard(a)
    ks = sorted(E)
    return pa.table(
        {
            "a": pa.array([k[0] for k in ks], pa.int64()),
            "b": pa.array([k[1] for k in ks], pa.int64()),
            "support": pa.array(
                [len(adj[a] & adj[b]) for a, b in ks], pa.int64()
            ),
        }
    )


def _seq_video_pairs(sf_dir: str) -> pa.Table:
    """Sequential cross-video frame-overlap near-dup golden: shares
    build_media_batch, FrameSampler and frame_hash with the distributed
    path; postings capped and thresholded with the same constants."""
    from .stages.multimodal import (
        VF_MIN_SHARED,
        VF_POST_CAP,
        VF_STRIDE,
        FrameSampler,
        build_media_batch,
        frame_hash,
    )

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "n_chars"],
    )
    media = build_media_batch(docs)
    frames = FrameSampler(stride=VF_STRIDE)(media)
    posts: dict[int, set[int]] = {}
    for mid, fr in zip(
        frames["media_id"].to_pylist(), frames["frame"].to_pylist()
    ):
        posts.setdefault(frame_hash(fr), set()).add(mid)
    counts: dict[tuple[int, int], int] = {}
    for mids in posts.values():
        if len(mids) < 2 or len(mids) > VF_POST_CAP:
            continue
        ms = sorted(mids)
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                k = (ms[i], ms[j])
                counts[k] = counts.get(k, 0) + 1
    keys = sorted(k for k, v in counts.items() if v >= VF_MIN_SHARED)
    return pa.table(
        {
            "id_a": pa.array([k[0] for k in keys], pa.int64()),
            "id_b": pa.array([k[1] for k in keys], pa.int64()),
            "n_shared": pa.array([counts[k] for k in keys], pa.int64()),
        }
    )


def _seq_audio_pairs(sf_dir: str) -> pa.Table:
    """Sequential cross-audio window-overlap golden: samples straight from
    the synthesis formula (synth_samples — no codec), SHARED
    audio_window_hashes kernel; postings capped and thresholded with the
    same constants. Pipeline parity proves WAV codec inversion."""
    from .stages.multimodal import (
        AF_MIN_SHARED,
        AF_POST_CAP,
        audio_window_hashes,
        synth_samples,
    )

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    posts: dict[int, set[int]] = {}
    for d in docs["doc_id"].to_pylist():
        if d % 5 != 2:
            continue
        _rate, samples = synth_samples(d)
        for h in audio_window_hashes(samples):
            posts.setdefault(h, set()).add(d)
    counts: dict[tuple[int, int], int] = {}
    for mids in posts.values():
        if len(mids) < 2 or len(mids) > AF_POST_CAP:
            continue
        ms = sorted(mids)
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                k = (ms[i], ms[j])
                counts[k] = counts.get(k, 0) + 1
    keys = sorted(k for k, v in counts.items() if v >= AF_MIN_SHARED)
    return pa.table(
        {
            "id_a": pa.array([k[0] for k in keys], pa.int64()),
            "id_b": pa.array([k[1] for k in keys], pa.int64()),
            "n_shared": pa.array([counts[k] for k in keys], pa.int64()),
        }
    )


def _seq_cdc(sf_dir: str) -> pa.Table:
    """Sequential gear-CDC chunk-dedup golden: one-process pass with the
    SHARED chunking kernel (stages/cdc.doc_chunk_rows); global first
    occurrence per chunk hash = smallest (doc_id, offset)."""
    from .stages.cdc import doc_chunk_rows

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    rows: list[tuple[int, int, int, int]] = []
    for d, tx in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        rows.extend(doc_chunk_rows(d, tx))
    first: dict[int, tuple[int, int]] = {}
    for h, d, off, ln in sorted(rows, key=lambda r: (r[1], r[2])):
        first.setdefault(h, (d, off))
    agg: dict[int, list[int]] = {}
    for h, d, off, ln in rows:
        dup = int(first[h] != (d, off))
        a = agg.setdefault(d, [0, 0, 0, 0])
        a[0] += 1
        a[1] += ln
        a[2] += dup
        a[3] += ln * dup
    ids = sorted(agg)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_chunks": pa.array([agg[i][0] for i in ids], pa.int64()),
            "n_bytes": pa.array([agg[i][1] for i in ids], pa.int64()),
            "dup_chunks": pa.array([agg[i][2] for i in ids], pa.int64()),
            "dup_bytes": pa.array([agg[i][3] for i in ids], pa.int64()),
        }
    )


def _seq_weblinks_tables(pages_dir: str):
    """Sequential web-graph goldens (weblink_stats, host_graph, host_rank):
    shared pure kernel (functions/weblinks.py), plain-dict aggregation, and
    the sequential fixed-point PageRank over the distinct external host
    graph (reuses _seq_pagerank's integer semantics verbatim)."""
    from .functions.weblinks import host_id, host_of, resolve_outlinks

    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    stat_rows: list[tuple[str, int, int, int]] = []
    edge_counts: dict[tuple[str, str], int] = {}
    hosts: set[str] = set()
    ext_pairs: set[tuple[str, str]] = set()
    for f in files:
        t = pq.read_table(f, columns=["url", "html"])
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            src = host_of(url)
            hosts.add(src)
            links = resolve_outlinks(url, html)
            stat_rows.append(
                (
                    url,
                    len(links),
                    sum(1 for _, _, i in links if not i),
                    len({h for _, h, _ in links}),
                )
            )
            for _, dst, internal in links:
                k = (src, dst)
                edge_counts[k] = edge_counts.get(k, 0) + 1
                if not internal:
                    hosts.add(dst)
                    ext_pairs.add((src, dst))

    stat_rows.sort()
    stats = pa.table(
        {
            "url": pa.array([r[0] for r in stat_rows], pa.string()),
            "n_links": pa.array([r[1] for r in stat_rows], pa.int64()),
            "n_external": pa.array([r[2] for r in stat_rows], pa.int64()),
            "n_hosts": pa.array([r[3] for r in stat_rows], pa.int64()),
        }
    )
    ekeys = sorted(edge_counts)
    graph = pa.table(
        {
            "src_host": pa.array([k[0] for k in ekeys], pa.string()),
            "dst_host": pa.array([k[1] for k in ekeys], pa.string()),
            "n_links": pa.array([edge_counts[k] for k in ekeys], pa.int64()),
        }
    )
    id_of = {h: host_id(h) for h in hosts}
    host_by_id = {v: k for k, v in id_of.items()}
    nodes_t = pa.table({"entity_id": pa.array(sorted(id_of.values()), pa.int64())})
    edges_t = pa.table(
        {
            "subj_id": pa.array([id_of[a] for a, b in ext_pairs], pa.int64()),
            "obj_id": pa.array([id_of[b] for a, b in ext_pairs], pa.int64()),
        }
    )
    pr = _seq_pagerank(nodes_t, edges_t)
    rank = pa.table(
        {
            "host": pa.array(
                [host_by_id[i] for i in pr["entity_id"].to_pylist()], pa.string()
            ),
            "rank_fp": pr["rank_fp"],
        }
    )
    ht = _seq_hits(nodes_t, edges_t)
    host_hits = pa.table(
        {
            "host": pa.array(
                [host_by_id[i] for i in ht["entity_id"].to_pylist()], pa.string()
            ),
            "auth_fp": ht["auth_fp"],
            "hub_fp": ht["hub_fp"],
        }
    )

    # weighted pagerank: mass split by link multiplicity
    from .pipelines.graphalgo import (
        PR_BASE,
        PR_DAMP_DEN,
        PR_DAMP_NUM,
        PR_ITERS,
        PR_SCALE,
        PR_TOP,
    )

    wedges = {
        (id_of[a], id_of[b]): n
        for (a, b), n in edge_counts.items()
        if a != b
    }
    # node universe = hosts PARTICIPATING in the aggregated link graph
    # (matches the distributed side, which works over the (src,dst)
    # aggregate and cannot see hosts whose pages carry no links at all —
    # possible at sf0.001 where each host has a single page)
    wnodes = {id_of[a] for ab in edge_counts for a in ab}
    wout: dict[int, int] = {}
    for (si, _oi), w in wedges.items():
        wout[si] = wout.get(si, 0) + w
    wrank = {v: PR_SCALE for v in wnodes}
    for _ in range(PR_ITERS):
        nxt = {v: PR_BASE for v in wnodes}
        for (si, oi), w in wedges.items():
            nxt[oi] += (wrank[si] * PR_DAMP_NUM // PR_DAMP_DEN) * w // wout[si]
        wrank = nxt
    wtop = sorted(wrank.items(), key=lambda kv: (-kv[1], kv[0]))[:PR_TOP]
    host_wrank = pa.table(
        {
            "host": pa.array([host_by_id[i] for i, _ in wtop], pa.string()),
            "rank_fp": pa.array([v for _, v in wtop], pa.int64()),
        }
    )
    return stats, graph, rank, host_hits, host_wrank


def _seq_anchor_terms(pages_dir: str) -> pa.Table:
    """Sequential anchor-term index golden: shared extract_anchor_links
    kernel, dict aggregation, per-host top-k by (n desc, term asc)."""
    import re as _re

    from .functions.weblinks import extract_anchor_links
    from .pipelines.weblinks import ANCHOR_TOPK

    term_re = _re.compile(r"[a-z0-9]+")
    counts: dict[tuple[str, str], int] = {}
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        t = pq.read_table(f, columns=["url", "html"])
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            for _, h, internal, text in extract_anchor_links(url, html):
                if internal:
                    continue
                for tok in term_re.findall(text.lower()):
                    counts[(tok, h)] = counts.get((tok, h), 0) + 1
    by_host: dict[str, list[tuple[int, str]]] = {}
    for (tok, h), n in counts.items():
        by_host.setdefault(h, []).append((n, tok))
    rows = []
    for h in sorted(by_host):
        top = sorted(by_host[h], key=lambda x: (-x[0], x[1]))[:ANCHOR_TOPK]
        rows.extend((h, tok, n) for n, tok in top)
    rows.sort(key=lambda r: (r[0], r[1]))
    return pa.table(
        {
            "dst_host": pa.array([r[0] for r in rows], pa.string()),
            "term": pa.array([r[1] for r in rows], pa.string()),
            "n": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _doc_ids(sf_dir: str) -> list[int]:
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    return t["doc_id"].to_pylist()


def _seq_media_decode(sf_dir: str) -> pa.Table:
    """Sequential golden for mm_decode_pixels: features computed DIRECTLY
    from the synthesis formula (stages/multimodal.synth_pixels/samples) —
    the pipeline path additionally round-trips through the real PNG/BMP/WAV
    codecs, so parity proves encode/decode inversion, not just plumbing."""
    import numpy as np

    from .stages.multimodal import (
        synth_blocks,
        synth_gif_rgb,
        synth_pixels,
        synth_samples,
    )

    rows = []
    for doc_id in _doc_ids(sf_dir):
        k = doc_id % 5
        if k in (0, 1):
            arr = synth_pixels(doc_id).astype(np.int64)
            fmt = "PNG" if k == 0 else "BMP"
            w, h = arr.shape[1], arr.shape[0]
        elif k == 2:
            rate, samples = synth_samples(doc_id)
            arr = samples.astype(np.int64)
            fmt, w, h = "WAV", rate, samples.shape[1]
        elif k == 3:
            arr = synth_gif_rgb(doc_id).astype(np.int64)
            fmt, w, h = "GIF", arr.shape[1], arr.shape[0]
        else:
            arr = synth_blocks(doc_id).astype(np.int64)
            fmt, w, h = "JPEG", arr.shape[1], arr.shape[0]
        rows.append(
            (doc_id, fmt, w, h, int(arr.size), int(arr.sum()),
             int(arr.min()), int(arr.max()))
        )
    cols = list(zip(*rows))
    return pa.table(
        {
            "media_id": pa.array(cols[0], pa.int64()),
            "format": pa.array(cols[1], pa.string()),
            "width": pa.array(cols[2], pa.int64()),
            "height": pa.array(cols[3], pa.int64()),
            "n_values": pa.array(cols[4], pa.int64()),
            "sum_values": pa.array(cols[5], pa.int64()),
            "min_value": pa.array(cols[6], pa.int64()),
            "max_value": pa.array(cols[7], pa.int64()),
        }
    )


def _seq_media_resize(sf_dir: str) -> pa.Table:
    """Sequential golden for mm_resize_stats: exact 2x2 integer box
    downsample straight from the formula pixels."""
    import numpy as np

    from .stages.multimodal import synth_blocks, synth_gif_rgb, synth_pixels

    rows = []
    for doc_id in _doc_ids(sf_dir):
        k = doc_id % 5
        if k == 2:  # WAV: no image to resize
            continue
        if k == 3:
            arr = synth_gif_rgb(doc_id)
        elif k == 4:
            arr = synth_blocks(doc_id)
        else:
            arr = synth_pixels(doc_id)
        h2, w2 = arr.shape[0] // 2, arr.shape[1] // 2
        a = arr[: h2 * 2, : w2 * 2].astype(np.int64)
        if a.ndim == 2:  # grayscale (JPEG)
            small = a.reshape(h2, 2, w2, 2).sum(axis=(1, 3)) // 4
        else:
            small = a.reshape(h2, 2, w2, 2, 3).sum(axis=(1, 3)) // 4
        rows.append((doc_id, w2, h2, int(small.sum())))
    cols = list(zip(*rows))
    return pa.table(
        {
            "media_id": pa.array(cols[0], pa.int64()),
            "resized_w": pa.array(cols[1], pa.int64()),
            "resized_h": pa.array(cols[2], pa.int64()),
            "sum_resized": pa.array(cols[3], pa.int64()),
        }
    )


def _seq_audio_stats(sf_dir: str) -> pa.Table:
    """Golden for mm_audio_stats: features straight from the synthesis
    formula (no codec) — parity vs the decode path proves WAV inversion."""
    import numpy as np

    from .stages.multimodal import synth_samples

    rows = []
    for doc_id in _doc_ids(sf_dir):
        if doc_id % 5 != 2:
            continue
        rate, samples = synth_samples(doc_id)
        s = samples.astype(np.int64)
        c0 = s[:, 0]
        rows.append(
            (
                doc_id, rate, samples.shape[1], samples.shape[0],
                int((s * s).sum()), int(np.abs(s).max()),
                int((c0[:-1] * c0[1:] < 0).sum()),
            )
        )
    rows.sort()
    names = ["media_id", "rate", "channels", "n_frames", "energy", "peak",
             "zero_crossings"]
    return pa.table(
        {n: pa.array([r[i] for r in rows], pa.int64())
         for i, n in enumerate(names)}
    )


def _seq_hll_users(sf_dir: str) -> pa.Table:
    """Sequential HLL golden: per-event_type approximate distinct users —
    same register kernel (functions/hll.py), one driver-side pass with plain
    dicts instead of the combiner + AggregateFn orchestration."""
    from .functions import hll

    t = pq.read_table(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "user_id"]
    )
    users: dict[str, set] = {}
    for et, uid in zip(
        t["event_type"].to_pylist(), t["user_id"].to_pylist()
    ):
        users.setdefault(et, set()).add(uid)
    rows = [
        (et, hll.estimate(hll.sketch_of([str(u) for u in sorted(us)])))
        for et, us in sorted(users.items())
    ]
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_users_est": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


def _seq_hll_terms(sf_dir: str) -> pa.Table:
    """Sequential HLL golden: corpus-wide approximate distinct tokens."""
    import re

    from .functions import hll

    token_re = re.compile(r"[a-z0-9]+")
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    toks: set[str] = set()
    for text in t["text"].to_pylist():
        toks.update(token_re.findall(text.lower()))
    est = hll.estimate(hll.sketch_of(sorted(toks)))
    return pa.table({"n_terms_est": pa.array([est], pa.int64())})


def _seq_cms(sf_dir: str) -> pa.Table:
    """Sequential Count-Min golden: one pass counts every token exactly,
    builds ONE sketch with the shared kernel (functions/cms.py), and point-
    queries the top-CMS_TOP terms — same output contract as the distributed
    per-block-partial + add-merge orchestration in stages/sketch.py."""
    import re

    import numpy as np

    from .functions import cms
    from .stages.sketch import CMS_TOP

    token_re = re.compile(r"[a-z0-9]+")
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    counts: dict[str, int] = {}
    for text in t["text"].to_pylist():
        for tok in token_re.findall(text.lower()):
            counts[tok] = counts.get(tok, 0) + 1
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:CMS_TOP]
    m = cms.sketch_of(counts)
    terms = [k for k, _ in top]
    exact = np.array([v for _, v in top], np.int64)
    est = cms.estimate(m, terms)
    return pa.table(
        {
            "term": pa.array(terms, pa.string()),
            "n_exact": pa.array(exact, pa.int64()),
            "n_est": pa.array(est, pa.int64()),
            "overcount": pa.array(est - exact, pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# idempotent writer + oracle SQL
# ---------------------------------------------------------------------------

def ensure_kg_golden(sf: float = DRIVER_SF, seed: int = 42) -> str:
    """Compute-and-write the sequential golden for a scale factor (cached)."""
    d = golden_dir(sf)
    marker = os.path.join(d, "_GOLDEN_OK")
    sf_dir = f"/root/testdata/sf{sf:g}"
    # the tag records whether the optional testdata-derived tables were
    # built, so a golden generated before /root/testdata existed is
    # regenerated (not served incomplete forever) once it appears
    tag = f"v{GOLDEN_VERSION}:{sf:g}:{seed}:td{int(os.path.isdir(sf_dir))}"
    if os.path.exists(marker) and open(marker).read() == tag:
        return d

    pages_dir = synth.ensure_pages(sf, seed=seed)
    alias = synth.alias_dict()
    tables = _compute_kg_golden(pages_dir, alias)
    tables["pagerank"] = _seq_pagerank(tables["nodes"], tables["edges"])
    from .pipelines.graphalgo import PPR_SEED_MOD

    tables["ppr"] = _seq_ppr(tables["nodes"], tables["edges"], PPR_SEED_MOD)
    tables["components"] = _seq_components(tables["nodes"], tables["edges"])
    tables["kcore"] = _seq_kcore(tables["edges"])
    tables["bfs"] = _seq_bfs(tables["nodes"], tables["edges"])
    tables["walks"] = _seq_walks(tables["nodes"], tables["edges"])
    tables["harmonic"] = _seq_harmonic(tables["nodes"], tables["edges"])
    tables["betweenness"] = _seq_betweenness(tables["nodes"], tables["edges"])
    tables["truss"] = _seq_truss(tables["nodes"], tables["edges"])
    tables["lineage"] = _seq_lineage(pages_dir)
    tables["hits"] = _seq_hits(tables["nodes"], tables["edges"])
    (
        tables["weblink_stats"],
        tables["host_graph"],
        tables["host_rank"],
        tables["host_hits"],
        tables["host_wrank"],
    ) = _seq_weblinks_tables(pages_dir)
    tables["anchor_terms"] = _seq_anchor_terms(pages_dir)
    if os.path.isdir(sf_dir):
        tables["docs_triples"] = _compute_docs_triples_golden(sf_dir)
        tables["dd_minhash"] = _seq_minhash_pairs(sf_dir)
        tables["dd_keep"] = _seq_pairs_keep(sf_dir, tables["dd_minhash"])
        tables["dd_keep_best"] = _seq_keep_best(sf_dir, tables["dd_minhash"])
        tables["dd_simhash"] = _seq_simhash_pairs(sf_dir)
        tables["dd_keep_simhash"] = _seq_pairs_keep(sf_dir, tables["dd_simhash"])
        tables["fingerprints"] = _seq_fingerprints(sf_dir)
        tables["winnow_pairs"] = _seq_winnow_pairs(sf_dir)
        tables["ivf_topk"] = _seq_ivf_topk(sf_dir)
        tables["ann_incremental"] = _seq_ann_incremental(sf_dir)  # v46
        tables["lsh_topk"] = _seq_lsh_topk(sf_dir)
        tables["pca"] = _seq_pca(sf_dir)
        tables["knn"] = _seq_knn(sf_dir)
        tables["ridge"] = _seq_ridge(sf_dir)
        tables["nbayes"] = _seq_nbayes(sf_dir)
        tables["pq_topk"] = _seq_pq(sf_dir)
        tables["hll_users"] = _seq_hll_users(sf_dir)
        tables["hll_terms"] = _seq_hll_terms(sf_dir)
        tables["cms"] = _seq_cms(sf_dir)
        tables["bpe"] = _seq_bpe(sf_dir)
        tables["bpe_encode"] = _seq_bpe_encode(sf_dir)
        tables["zlib_ratio"] = _seq_zlib_ratio(sf_dir)
        tables["rrf"] = _seq_rrf(sf_dir)
        tables["dhash"] = _seq_dhash(sf_dir)
        tables["dhash_pairs"] = _seq_dhash_pairs(sf_dir)
        tables["video_pairs"] = _seq_video_pairs(sf_dir)
        tables["audio_pairs"] = _seq_audio_pairs(sf_dir)  # v47
        # modality keep verdicts compose the near_dup_keep mirror over the
        # multimodal pair sources (v45)
        tables["mm_dhash_keep"] = _seq_mm_keep(
            sf_dir, tables["dhash_pairs"], 5, True
        )
        tables["mm_video_keep"] = _seq_mm_keep(
            sf_dir, tables["video_pairs"], 3, False
        )
        tables["mm_audio_keep"] = _seq_mm_keep(
            sf_dir, tables["audio_pairs"], 5, False
        )
        tables["cdc"] = _seq_cdc(sf_dir)
        tables["mm_decode"] = _seq_media_decode(sf_dir)
        tables["mm_resize"] = _seq_media_resize(sf_dir)
        tables["mm_audio"] = _seq_audio_stats(sf_dir)
        tables["kmeans"] = _seq_kmeans(sf_dir)
        tables["semdedup"] = _seq_semdedup(sf_dir)
        tables["pq_rerank"] = _seq_pq_rerank(sf_dir)
        tables["ivfpq_rerank"] = _seq_ivfpq_rerank(sf_dir)

    import shutil

    # per-process tmp name: concurrent generators (pytest + check_oracles)
    # must not rmtree each other's in-progress writes
    tmp = d + f".tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(tmp, f"{name}.parquet"))
    with open(os.path.join(tmp, "_GOLDEN_OK"), "w") as f:
        f.write(tag)
    shutil.rmtree(d, ignore_errors=True)
    try:
        os.replace(tmp, d)
    except OSError:
        # another process promoted its (identical, deterministic) golden
        # between our rmtree and replace — accept theirs
        shutil.rmtree(tmp, ignore_errors=True)
        if not (os.path.exists(marker) and open(marker).read() == tag):
            raise
    return d


def _g(name: str) -> str:
    return f"read_parquet('{golden_dir(DRIVER_SF)}/{name}.parquet')"


def _jaccard_sql() -> str:
    """Wedge self-join Jaccard over the golden edges — same capped-center
    semantics as pipelines.graphalgo.jaccard_pairs."""
    from .pipelines.graphalgo import JC_MAX_DEG, JC_MIN_COMMON, JC_TOP

    return f"""
        WITH pairs AS (
            SELECT DISTINCT LEAST(subj_id, obj_id) AS a,
                            GREATEST(subj_id, obj_id) AS b
            FROM {_g('edges')}
            WHERE subj_id >= 0 AND obj_id >= 0 AND subj_id <> obj_id
        ),
        sym AS (
            SELECT a AS src, b AS dst FROM pairs
            UNION ALL SELECT b, a FROM pairs
        ),
        deg AS (
            SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS deg
            FROM sym GROUP BY src
        ),
        wed AS (
            SELECT s1.dst AS u, s2.dst AS v
            FROM sym s1
            JOIN sym s2 ON s1.src = s2.src AND s1.dst < s2.dst
            JOIN deg dw ON dw.node = s1.src
            WHERE dw.deg <= {JC_MAX_DEG}
        ),
        com AS (
            SELECT u, v, CAST(COUNT(*) AS BIGINT) AS common
            FROM wed GROUP BY u, v
            HAVING COUNT(*) >= {JC_MIN_COMMON}
        )
        SELECT c.u AS node_a, c.v AS node_b, c.common,
               CAST(c.common * 1000000
                    // (du.deg + dv.deg - c.common) AS BIGINT) AS jaccard_ppm
        FROM com c
        JOIN deg du ON du.node = c.u
        JOIN deg dv ON dv.node = c.v
        ORDER BY jaccard_ppm DESC, node_a, node_b
        LIMIT {JC_TOP}
    """


def _cc_sql() -> str:
    """Unoriented wedge-closure mirror of
    pipelines.graphalgo.clustering_coefficients — tri(v) = closed wedges
    centered at v (each triangle contributes once per corner), integer ppm
    with floor division. Independent algorithm, same exact quantity."""
    from .pipelines.graphalgo import CC_SCALE, CC_TOP

    return f"""
        WITH pairs AS (
            SELECT DISTINCT LEAST(subj_id, obj_id) AS a,
                            GREATEST(subj_id, obj_id) AS b
            FROM {_g('edges')}
            WHERE subj_id >= 0 AND obj_id >= 0 AND subj_id <> obj_id
        ),
        sym AS (
            SELECT a AS src, b AS dst FROM pairs
            UNION ALL SELECT b, a FROM pairs
        ),
        deg AS (
            SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS deg
            FROM sym GROUP BY src
        ),
        tri AS (
            SELECT s1.src AS node, CAST(COUNT(*) AS BIGINT) AS tri
            FROM sym s1
            JOIN sym s2 ON s1.src = s2.src AND s1.dst < s2.dst
            JOIN pairs p ON p.a = s1.dst AND p.b = s2.dst
            GROUP BY s1.src
        )
        SELECT d.node AS entity_id, d.deg,
               CAST(COALESCE(t.tri, 0) AS BIGINT) AS tri_cnt,
               CAST(
                   CASE WHEN d.deg >= 2
                        THEN 2 * COALESCE(t.tri, 0) * {CC_SCALE}
                             // (d.deg * (d.deg - 1))
                        ELSE 0 END AS BIGINT
               ) AS cc_ppm
        FROM deg d LEFT JOIN tri t ON t.node = d.node
        ORDER BY cc_ppm DESC, entity_id
        LIMIT {CC_TOP}
    """


def _ra_sql() -> str:
    """Wedge self-join Resource-Allocation score over the golden edges —
    same capped-center, integer-division semantics as
    pipelines.graphalgo.resource_allocation_pairs."""
    from .pipelines.graphalgo import RA_MAX_DEG, RA_MIN_COMMON, RA_SCALE, RA_TOP

    return f"""
        WITH pairs AS (
            SELECT DISTINCT LEAST(subj_id, obj_id) AS a,
                            GREATEST(subj_id, obj_id) AS b
            FROM {_g('edges')}
            WHERE subj_id >= 0 AND obj_id >= 0 AND subj_id <> obj_id
        ),
        sym AS (
            SELECT a AS src, b AS dst FROM pairs
            UNION ALL SELECT b, a FROM pairs
        ),
        deg AS (
            SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS deg
            FROM sym GROUP BY src
        ),
        wed AS (
            SELECT s1.dst AS u, s2.dst AS v,
                   CAST({RA_SCALE} // dw.deg AS BIGINT) AS w
            FROM sym s1
            JOIN sym s2 ON s1.src = s2.src AND s1.dst < s2.dst
            JOIN deg dw ON dw.node = s1.src
            WHERE dw.deg <= {RA_MAX_DEG}
        )
        SELECT u AS node_a, v AS node_b,
               CAST(COUNT(*) AS BIGINT) AS common,
               CAST(SUM(w) AS BIGINT) AS ra_score
        FROM wed GROUP BY u, v
        HAVING COUNT(*) >= {RA_MIN_COMMON}
        ORDER BY ra_score DESC, node_a, node_b
        LIMIT {RA_TOP}
    """


def _negatives_sql() -> str:
    """Negative-sampling mirror over the golden edges/nodes — same integer
    mix as pipelines.graphalgo.negative_samples."""
    from .pipelines.graphalgo import NEG_K, NEG_MIX_A, NEG_MIX_B, NEG_MIX_J

    return f"""
        WITH pairs AS (
            SELECT DISTINCT LEAST(subj_id, obj_id) AS a,
                            GREATEST(subj_id, obj_id) AS b
            FROM {_g('edges')}
            WHERE subj_id >= 0 AND obj_id >= 0 AND subj_id <> obj_id
        ),
        nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM {_g('nodes')}),
        pos AS (
            SELECT a AS src, b AS dst,
                   CAST(1 AS BIGINT) AS label, CAST(-1 AS BIGINT) AS k
            FROM pairs
        ),
        neg AS (
            SELECT p.a AS src,
                   (p.a * {NEG_MIX_A} + p.b * {NEG_MIX_B}
                    + j * {NEG_MIX_J}) % nn.n AS dst,
                   CAST(0 AS BIGINT) AS label, CAST(j AS BIGINT) AS k
            FROM (SELECT a, b, unnest(range({NEG_K})) AS j FROM pairs) p, nn
        )
        SELECT src, dst, label, k FROM pos
        UNION ALL SELECT src, dst, label, k FROM neg
        ORDER BY src, dst, label, k
    """


def _stop_en_sql() -> str:
    from .stages.textstats import LANG_STOPWORDS

    return "[" + ", ".join(f"'{w}'" for w in LANG_STOPWORDS["en"]) + "]"


def _kg_diff_sql() -> str:
    from .pipelines.kgqueries import merge_cut_rows

    cut = merge_cut_rows(DRIVER_SF)
    return f"""
        SELECT 'added' AS change, subj, pred, obj, url
        FROM {_g('edges')}
        WHERE CAST(regexp_extract(url, 'page/([0-9]+)$', 1) AS BIGINT)
              >= {cut}
        ORDER BY change, subj, pred, obj, url
    """

def _walk_lift_sql() -> str:
    """ANSI-SQL mirror of graphalgo.walk_cooc_lift over the golden walks:
    the step-difference self-join equals the pipeline's shifted-array pair
    pass because steps within a walk are contiguous; `//` on BIGINTs is the
    same floor division the pipeline computes with Python ints."""
    from .pipelines.graphalgo import LIFT_PPM, LIFT_WINDOW

    return f"""
        WITH w AS (SELECT start_id, step, node_id FROM {_g('walks')}),
        p AS (
            SELECT LEAST(w1.node_id, w2.node_id) AS a,
                   GREATEST(w1.node_id, w2.node_id) AS b
            FROM w w1 JOIN w w2
              ON w2.start_id = w1.start_id
             AND w2.step - w1.step BETWEEN 1 AND {LIFT_WINDOW}
             AND w2.node_id <> w1.node_id
        ),
        cab AS (
            SELECT a, b, CAST(COUNT(*) AS BIGINT) AS n_cooc
            FROM p GROUP BY a, b
        ),
        occ AS (
            SELECT node_id, CAST(COUNT(*) AS BIGINT) AS c
            FROM w GROUP BY node_id
        ),
        tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS t FROM p)
        SELECT cab.a, cab.b, cab.n_cooc,
               CAST(({LIFT_PPM} * cab.n_cooc * tot.t)
                    // (oa.c * ob.c) AS BIGINT) AS lift_ppm
        FROM cab
        CROSS JOIN tot
        JOIN occ oa ON oa.node_id = cab.a
        JOIN occ ob ON ob.node_id = cab.b
        ORDER BY cab.a, cab.b
    """


def _kg_search_sql(query: tuple = None) -> str:
    """Golden oracle for kgqueries.kg_search (and its degenerate single
    stop-word variant — SAME SQL, different term list): tokenize the
    golden text the same way as scoring._TOK_SQL, require ALL query terms
    (tsquery AND), score with the q89 integer BM25 formula, enrich from
    golden mentions."""
    from .pipelines.kgqueries import KG_SEARCH_K, KG_SEARCH_QUERY

    if query is None:
        query = KG_SEARCH_QUERY
    terms = ", ".join(f"'{q}'" for q in query)
    return f"""
        WITH tok AS (
            SELECT url, unnest(list_filter(regexp_split_to_array(lower(text),
                   '[^a-z0-9]+'), x -> x <> '')) AS term
            FROM {_g('text')}
        ),
        n AS (SELECT CAST(COUNT(*) AS BIGINT) AS nd FROM {_g('text')}),
        t AS (SELECT CAST(COUNT(*) AS BIGINT) AS tt FROM tok),
        dl AS (SELECT url, CAST(COUNT(*) AS BIGINT) AS dlen
               FROM tok GROUP BY url),
        tf AS (SELECT url, term, CAST(COUNT(*) AS BIGINT) AS tf
               FROM tok WHERE term IN ({terms}) GROUP BY url, term),
        df AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df
               FROM tf GROUP BY term),
        hit AS (SELECT url FROM tf GROUP BY url
                HAVING COUNT(DISTINCT term) = {len(query)}),
        scored AS (
            SELECT tf.url,
                   CAST(SUM(
                       length(CAST((2 * n.nd + 1) // (2 * df.df + 1)
                                   AS VARCHAR))
                       * ((1000000 * 22 * t.tt * tf.tf)
                          // (10 * t.tt * tf.tf + 3 * t.tt
                              + 9 * dl.dlen * n.nd))
                   ) AS BIGINT) AS bm25_ppm
            FROM tf
            JOIN hit USING (url) JOIN df USING (term) JOIN dl USING (url)
            CROSS JOIN n CROSS JOIN t
            GROUP BY tf.url
        ),
        top AS (SELECT url, bm25_ppm FROM scored
                ORDER BY bm25_ppm DESC, url LIMIT {KG_SEARCH_K}),
        ent AS (
            SELECT url, CAST(COUNT(*) AS BIGINT) AS n_entities,
                   CAST(SUM(n_in_page) AS BIGINT) AS n_mentions
            FROM {_g('mentions')} GROUP BY url
        )
        SELECT top.url, top.bm25_ppm,
               CAST(COALESCE(ent.n_entities, 0) AS BIGINT) AS n_entities,
               CAST(COALESCE(ent.n_mentions, 0) AS BIGINT) AS n_mentions
        FROM top LEFT JOIN ent USING (url)
        ORDER BY bm25_ppm DESC, url
    """


def _kg_phrase_sql() -> str:
    """Oracle for kg_phrase_indexed: LATERAL token positions over the
    golden text, per-(url, term) positions capped at FTS_POS_CAP by
    window rank (mirroring the stored positional payload), adjacency
    join, grouped counts."""
    from .pipelines.kgqueries import FTS_POS_CAP, KG_PHRASE

    t1, t2 = KG_PHRASE
    return f"""
        WITH lst AS (
            SELECT url, list_filter(regexp_split_to_array(lower(text),
                   '[^a-z0-9]+'), x -> x <> '') AS toks
            FROM {_g('text')}
        ),
        tok AS (
            SELECT url, CAST(i AS BIGINT) AS pos, toks[i] AS term
            FROM lst, LATERAL (
                SELECT unnest(generate_series(1, len(toks))) AS i
            )
        ),
        a AS (
            SELECT url, pos FROM (
                SELECT url, pos, row_number() OVER (
                    PARTITION BY url ORDER BY pos
                ) AS rk FROM tok WHERE term = '{t1}'
            ) WHERE rk <= {FTS_POS_CAP}
        ),
        b AS (
            SELECT url, pos FROM (
                SELECT url, pos, row_number() OVER (
                    PARTITION BY url ORDER BY pos
                ) AS rk FROM tok WHERE term = '{t2}'
            ) WHERE rk <= {FTS_POS_CAP}
        ),
        m AS (
            SELECT a.url, a.pos
            FROM a JOIN b ON b.url = a.url AND b.pos = a.pos + 1
        )
        SELECT url, CAST(COUNT(*) AS BIGINT) AS n_phrase,
               CAST(MIN(pos) AS BIGINT) AS first_pos
        FROM m GROUP BY url ORDER BY url
    """


def _degen_query() -> tuple:
    from .pipelines.kgqueries import KG_SEARCH_DEGEN_QUERY

    return KG_SEARCH_DEGEN_QUERY


def kg_oracle_sql() -> dict[str, str]:
    """DuckDB oracles for the kg_* driver queries, reading the sequential
    golden parquet. Pinned to the driver's correctness scale (sf0.01)."""
    return {
        "kg_text": f"SELECT url, text, lang FROM {_g('text')}",
        "kg_mentions": f"""
            SELECT url, norm_surface, surface, ent_type, score, n_in_page,
                   link_score
            FROM {_g('mentions')}
        """,
        "kg_nodes": f"""
            SELECT entity_id, canonical_name, ent_type, mention_count,
                   link_count, perfect_links, max_score, min_score,
                   aliases_joined
            FROM {_g('nodes')}
        """,
        "kg_edges": f"""
            SELECT subj_id, pred, obj_id, subj, obj, url, warc_ts,
                   confidence, context, validated, flag_for_review
            FROM {_g('edges')}
        """,
        "kg_validation_issues": f"""
            SELECT domain, key, severity, rule, message FROM {_g('issues')}
        """,
        "kg_triangles": f"""
            WITH pairs AS (
                SELECT DISTINCT LEAST(subj_id, obj_id) AS a,
                                GREATEST(subj_id, obj_id) AS b
                FROM {_g('edges')}
                WHERE subj_id >= 0 AND obj_id >= 0 AND subj_id <> obj_id
            ),
            deg AS (
                SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
                FROM (SELECT a AS node FROM pairs
                      UNION ALL SELECT b FROM pairs)
                GROUP BY node
            ),
            ori AS (
                SELECT CASE WHEN (d1.deg < d2.deg)
                              OR (d1.deg = d2.deg AND p.a < p.b)
                            THEN p.a ELSE p.b END AS src
                FROM pairs p
                JOIN deg d1 ON d1.node = p.a
                JOIN deg d2 ON d2.node = p.b
            ),
            outd AS (SELECT src, CAST(COUNT(*) AS BIGINT) AS c
                     FROM ori GROUP BY src)
            SELECT
                (SELECT CAST(COUNT(*) AS BIGINT) FROM pairs) AS n_edges,
                CAST(COALESCE(
                    (SELECT SUM(c * (c - 1) // 2) FROM outd), 0) AS BIGINT)
                    AS n_wedges,
                (SELECT CAST(COUNT(*) AS BIGINT)
                 FROM pairs e1
                 JOIN pairs e2 ON e2.a = e1.a AND e2.b > e1.b
                 JOIN pairs e3 ON e3.a = e1.b AND e3.b = e2.b)
                    AS n_triangles
        """,
        "kg_top_concepts": f"""
            SELECT entity_id, canonical_name, ent_type, mention_count
            FROM {_g('nodes')}
            ORDER BY mention_count DESC, entity_id LIMIT 10
        """,
        "kg_concept_summary": f"""
            SELECT canonical_name, ent_type, mention_count, link_count,
                   max_score, min_score
            FROM {_g('nodes')}
            ORDER BY link_count DESC, canonical_name LIMIT 100
        """,
        "kg_relationship_summary": f"""
            SELECT pred, COUNT(*) AS n_edges,
                   CAST(SUM(CAST(round(confidence*1000000, 0) AS BIGINT))
                        AS BIGINT) AS sum_conf_ppm,
                   CAST(SUM(CAST(validated AS BIGINT)) AS BIGINT)
                       AS n_validated,
                   CAST(SUM(CASE WHEN confidence < 0.5 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_low_confidence
            FROM {_g('edges')} GROUP BY pred
        """,
        "kg_shared_entities_dropcap": f"""
            WITH rel AS (
                SELECT url, norm_surface FROM {_g('mentions')}
                WHERE score >= 0.4
            ),
            ok AS (
                SELECT norm_surface FROM rel GROUP BY norm_surface
                HAVING COUNT(*) BETWEEN 2 AND 20
            )
            SELECT a.url AS url_a, b.url AS url_b, COUNT(*) AS n_shared
            FROM rel a
            JOIN rel b ON a.norm_surface = b.norm_surface AND a.url < b.url
            JOIN ok ON ok.norm_surface = a.norm_surface
            GROUP BY a.url, b.url
            ORDER BY n_shared DESC, url_a, url_b LIMIT 50
        """,
        "kg_shared_entities": f"""
            WITH rel AS (
                SELECT url, norm_surface FROM {_g('mentions')}
                WHERE score >= 0.4
            ),
            ranked AS (
                SELECT url, norm_surface,
                       row_number() OVER (
                           PARTITION BY norm_surface
                           ORDER BY md5(norm_surface || '|' || url), url
                       ) AS rk
                FROM rel
            ),
            kept AS (SELECT url, norm_surface FROM ranked WHERE rk <= 20)
            SELECT a.url AS url_a, b.url AS url_b, COUNT(*) AS n_shared
            FROM kept a
            JOIN kept b ON a.norm_surface = b.norm_surface AND a.url < b.url
            GROUP BY a.url, b.url
            ORDER BY n_shared DESC, url_a, url_b LIMIT 50
        """,
        "kg_docs_triples": f"""
            SELECT url, n_mentions, n_triples FROM {_g('docs_triples')}
        """,
        "wg_outlinks": f"""
            SELECT url, n_links, n_external, n_hosts FROM {_g('weblink_stats')}
        """,
        "wg_host_graph": f"""
            SELECT src_host, dst_host, n_links FROM {_g('host_graph')}
        """,
        "wg_host_graph_incremental": f"""
            SELECT src_host, dst_host, n_links FROM {_g('host_graph')}
        """,
        "wg_host_rank": f"SELECT host, rank_fp FROM {_g('host_rank')}",
        "wg_host_hits": f"SELECT host, auth_fp, hub_fp FROM {_g('host_hits')}",
        "wg_host_rank_weighted": f"SELECT host, rank_fp FROM {_g('host_wrank')}",
        "wg_indegree_gini": f"""
            WITH ind AS (
                SELECT dst_host, CAST(SUM(n_links) AS BIGINT) AS x
                FROM {_g('host_graph')} WHERE src_host <> dst_host
                GROUP BY dst_host
            ),
            r AS (
                SELECT x,
                       row_number() OVER (ORDER BY x, dst_host) AS i,
                       COUNT(*) OVER () AS n,
                       SUM(x) OVER () AS sx
                FROM ind
            )
            SELECT CAST(MAX(n) AS BIGINT) AS n_hosts,
                   CAST(MAX(sx) AS BIGINT) AS total_links,
                   CAST((1000000 * (2 * SUM(i * x) - (MAX(n) + 1) * MAX(sx)))
                        // (MAX(n) * MAX(sx)) AS BIGINT) AS gini_ppm
            FROM r
        """,
        "mm_audio_stats": f"""
            SELECT media_id, rate, channels, n_frames, energy, peak,
                   zero_crossings
            FROM {_g('mm_audio')}
        """,
        "dd_ensemble_pairs": f"""
            SELECT COALESCE(m.doc_a, s.doc_a) AS doc_a,
                   COALESCE(m.doc_b, s.doc_b) AS doc_b,
                   CAST(CASE WHEN m.doc_a IS NOT NULL THEN 1 ELSE 0 END
                        + CASE WHEN s.doc_a IS NOT NULL THEN 2 ELSE 0 END
                        AS BIGINT) AS methods,
                   CAST(COALESCE(m.jaccard_ppm, -1) AS BIGINT) AS jaccard_ppm,
                   CAST(COALESCE(s.hamming, -1) AS BIGINT) AS hamming
            FROM {_g('dd_minhash')} m
            FULL OUTER JOIN {_g('dd_simhash')} s
              ON m.doc_a = s.doc_a AND m.doc_b = s.doc_b
            ORDER BY doc_a, doc_b
        """,
        "wg_outlink_concentration": f"""
            SELECT src_host,
                   CAST(SUM(n_links) AS BIGINT) AS n_ext_links,
                   CAST(COUNT(*) AS BIGINT) AS n_dst_hosts,
                   CAST((1000000 * SUM(n_links * n_links))
                        // (SUM(n_links) * SUM(n_links)) AS BIGINT) AS hhi_ppm
            FROM {_g('host_graph')}
            WHERE src_host <> dst_host
            GROUP BY src_host ORDER BY src_host
        """,
        "wg_anchor_terms": f"""
            SELECT dst_host, term, n FROM {_g('anchor_terms')}
        """,
        "wg_reciprocity": f"""
            WITH d AS (
                SELECT DISTINCT src_host AS s, dst_host AS t
                FROM {_g('host_graph')} WHERE src_host <> dst_host
            ),
            u AS (
                SELECT LEAST(s, t) AS lo, GREATEST(s, t) AS hi,
                       CAST(SUM(CASE WHEN s < t THEN 1 ELSE 2 END) AS BIGINT)
                           AS m
                FROM d GROUP BY 1, 2
            ),
            c AS (
                SELECT CAST(SUM(CASE WHEN m = 3 THEN 2 ELSE 1 END) AS BIGINT)
                           AS n_pairs,
                       CAST(SUM(CASE WHEN m = 3 THEN 2 ELSE 0 END) AS BIGINT)
                           AS n_recip
                FROM u
            )
            SELECT n_pairs, n_recip,
                   CAST((1000000 * n_recip) // n_pairs AS BIGINT) AS recip_ppm
            FROM c
        """,
        "wg_host_quality": f"""
            WITH q AS (
                SELECT regexp_extract(url, '^https?://([^/]+)', 1) AS host,
                       length(list_filter(regexp_split_to_array(lower(text),
                              '[^a-z0-9]+'), x -> x <> '')) AS n_tokens,
                       length(list_intersect(
                           list_distinct(list_filter(regexp_split_to_array(
                               lower(text), '[^a-z0-9]+'), x -> x <> '')),
                           {_stop_en_sql()})) AS stop_hits_en,
                       length(regexp_extract_all(text, '[.,;:!?]')) AS n_punct
                FROM {_g('text')}
            )
            SELECT host,
                   CAST(COUNT(*) AS BIGINT) AS n_pages,
                   CAST(SUM(CASE WHEN n_tokens >= 50 AND stop_hits_en >= 3
                                  AND n_punct * 4 <= n_tokens
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_high,
                   CAST(SUM(CASE WHEN n_tokens < 10 OR stop_hits_en = 0
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_low,
                   CAST(SUM(n_tokens) AS BIGINT) AS sum_tokens
            FROM q GROUP BY host ORDER BY host
        """,
        "kg_growth": f"""
            WITH fd AS (
                SELECT subj_id, pred, obj_id,
                       MIN(epoch_us(warc_ts) // 3600000000) AS first_hour
                FROM {_g('edges')}
                GROUP BY 1, 2, 3
            ),
            h AS (
                SELECT first_hour, CAST(COUNT(*) AS BIGINT) AS n_new
                FROM fd GROUP BY first_hour
            )
            SELECT CAST(first_hour * 3600000000 AS BIGINT) AS hour,
                   n_new AS n_new_edges,
                   CAST(SUM(n_new) OVER (ORDER BY first_hour) AS BIGINT)
                       AS n_cum_edges
            FROM h ORDER BY hour
        """,
        "kg_type_matrix": f"""
            SELECT ns.ent_type AS type_a, no_.ent_type AS type_b,
                   CAST(COUNT(*) AS BIGINT) AS n_edges
            FROM {_g('edges')} e
            JOIN {_g('nodes')} ns ON e.subj_id = ns.entity_id
            JOIN {_g('nodes')} no_ ON e.obj_id = no_.entity_id
            WHERE e.subj_id >= 0 AND e.obj_id >= 0
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "kg_betweenness": f"""
            SELECT entity_id, bc_fp, n_seeds FROM {_g('betweenness')}
            ORDER BY entity_id
        """,
        "kg_neigh_agg": f"""
            WITH pairs AS (
                SELECT DISTINCT LEAST(subj_id, obj_id) AS a,
                                GREATEST(subj_id, obj_id) AS b
                FROM {_g('edges')}
                WHERE subj_id >= 0 AND obj_id >= 0 AND subj_id <> obj_id
            ),
            sym AS (
                SELECT a AS src, b AS dst FROM pairs
                UNION ALL SELECT b, a FROM pairs
            )
            SELECT s.src AS entity_id,
                   CAST(COUNT(*) AS BIGINT) AS n_neigh,
                   CAST(SUM(n.mention_count) AS BIGINT) AS sum_nbr_mentions,
                   CAST(MAX(n.mention_count) AS BIGINT) AS max_nbr_mentions,
                   CAST((SUM(n.mention_count) * 1000000) // COUNT(*)
                        AS BIGINT) AS avg_nbr_mentions_ppm
            FROM sym s JOIN {_g('nodes')} n ON n.entity_id = s.dst
            GROUP BY s.src ORDER BY entity_id
        """,
        "kg_trending": f"""
            WITH en AS (
                SELECT epoch_us(warc_ts) // 3600000000 AS hour,
                       subj_id AS entity_id
                FROM {_g('edges')} WHERE subj_id >= 0
                UNION ALL
                SELECT epoch_us(warc_ts) // 3600000000, obj_id
                FROM {_g('edges')} WHERE obj_id >= 0
            ),
            c AS (
                SELECT hour, entity_id, CAST(COUNT(*) AS BIGINT) AS n_edges
                FROM en GROUP BY 1, 2
            ),
            r AS (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY hour ORDER BY n_edges DESC, entity_id
                ) AS rank FROM c
            )
            SELECT CAST(hour AS BIGINT) AS hour, entity_id, n_edges,
                   CAST(rank AS BIGINT) AS rank
            FROM r WHERE rank <= 5
        """,
        "kg_edge_history": f"""
            SELECT subj_id, pred, obj_id,
                   CAST(COUNT(*) AS BIGINT) AS n_pages,
                   MIN(warc_ts) AS first_ts,
                   MAX(warc_ts) AS last_ts
            FROM {_g('edges')}
            GROUP BY 1, 2, 3
        """,
        "kg_ppr": f"SELECT entity_id, rank_fp FROM {_g('ppr')}",
        "kg_pagerank": f"""
            SELECT entity_id, rank_fp FROM {_g('pagerank')}
        """,
        "kg_degree_stats": f"""
            WITH pairs AS (
                SELECT DISTINCT subj_id, obj_id FROM {_g('edges')}
                WHERE subj_id >= 0 AND obj_id >= 0
            ),
            outd AS (
                SELECT subj_id AS entity_id, CAST(COUNT(*) AS BIGINT) AS out_deg
                FROM pairs GROUP BY subj_id
            ),
            ind AS (
                SELECT obj_id AS entity_id, CAST(COUNT(*) AS BIGINT) AS in_deg
                FROM pairs GROUP BY obj_id
            )
            SELECT COALESCE(outd.entity_id, ind.entity_id) AS entity_id,
                   CAST(COALESCE(out_deg, 0) AS BIGINT) AS out_deg,
                   CAST(COALESCE(in_deg, 0) AS BIGINT) AS in_deg,
                   CAST(COALESCE(out_deg, 0) + COALESCE(in_deg, 0) AS BIGINT)
                       AS total_deg
            FROM outd FULL OUTER JOIN ind USING (entity_id)
            ORDER BY total_deg DESC, entity_id LIMIT 20
        """,
        "dd_minhash_pairs": f"""
            SELECT doc_a, doc_b, jaccard_ppm FROM {_g('dd_minhash')}
        """,
        # incremental = full pairs filtered to delta-involving (delta =
        # md5(doc_id) last hex 0-3, stages/dedup.is_delta_doc)
        "dd_minhash_incremental": f"""
            SELECT doc_a, doc_b, jaccard_ppm FROM {_g('dd_minhash')}
            WHERE substr(md5(CAST(doc_a AS VARCHAR)), 32, 1)
                      IN ('0', '1', '2', '3')
               OR substr(md5(CAST(doc_b AS VARCHAR)), 32, 1)
                      IN ('0', '1', '2', '3')
            ORDER BY doc_a, doc_b
        """,
        "dd_simhash_pairs": f"""
            SELECT doc_a, doc_b, hamming FROM {_g('dd_simhash')}
        """,
        "dd_minhash_keep": f"""
            SELECT doc_id, rep_id, keep FROM {_g('dd_keep')}
        """,
        "dd_simhash_keep": f"""
            SELECT doc_id, rep_id, keep FROM {_g('dd_keep_simhash')}
        """,
        "dd_keep_best": f"""
            SELECT doc_id, rep_id, keep FROM {_g('dd_keep_best')}
        """,
        "ml_kmeans": f"""
            SELECT vec_id, cluster, dist2 FROM {_g('kmeans')}
        """,
        "kg_kcore": f"""
            SELECT entity_id, core_deg FROM {_g('kcore')}
            ORDER BY entity_id
        """,
        "kg_components": f"""
            SELECT entity_id, component FROM {_g('components')}
        """,
        "tx_winnow_pairs": f"""
            SELECT doc_a, doc_b, n_shared FROM {_g('winnow_pairs')}
            ORDER BY doc_a, doc_b
        """,
        "tx_fingerprints": f"""
            SELECT doc_id, fp_min, n_fps FROM {_g('fingerprints')}
        """,
        "ann_incremental_topk": f"""
            SELECT query_id, vec_id, rank FROM {_g('ann_incremental')}
        """,
        "ann_ivf_topk": f"""
            SELECT query_id, vec_id, rank FROM {_g('ivf_topk')}
        """,
        "ann_lsh_topk": f"""
            SELECT query_id, vec_id, rank FROM {_g('lsh_topk')}
        """,
        "ml_pca_var": f"""
            SELECT component, var_ppm, cum_ppm FROM {_g('pca')}
        """,
        "ml_knn": f"""
            SELECT query_id, pred_label, true_label, votes FROM {_g('knn')}
        """,
        "ml_ridge": f"""
            SELECT name, value_ppm FROM {_g('ridge')}
        """,
        "ml_nbayes": f"""
            SELECT doc_id, lang, pred_lang, correct FROM {_g('nbayes')}
        """,
        "dd_semdedup": f"""
            SELECT vec_id, cluster, keep FROM {_g('semdedup')}
        """,
        "ann_pq_rerank": f"""
            SELECT query_id, vec_id, rank FROM {_g('pq_rerank')}
        """,
        "ann_ivfpq_rerank": f"""
            SELECT query_id, vec_id, rank FROM {_g('ivfpq_rerank')}
        """,
        "ann_recall": f"""
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                       FROM embeddings),
            brute AS (
                SELECT query_id, vec_id FROM (
                    SELECT q.vec_id AS query_id, x.vec_id,
                           row_number() OVER (
                               PARTITION BY q.vec_id
                               ORDER BY list_cosine_similarity(q.v, x.v)
                                        DESC, x.vec_id) AS rank
                    FROM e q JOIN e x ON x.vec_id <> q.vec_id
                    WHERE q.vec_id IN (0, 1, 2))
                WHERE rank <= 10
            ),
            m AS (
                SELECT 'ivf' AS method, query_id, vec_id
                FROM {_g('ivf_topk')}
                UNION ALL SELECT 'ivfpq_rerank', query_id, vec_id
                FROM {_g('ivfpq_rerank')}
                UNION ALL SELECT 'lsh', query_id, vec_id
                FROM {_g('lsh_topk')}
                UNION ALL SELECT 'pq', query_id, vec_id
                FROM {_g('pq_topk')}
                UNION ALL SELECT 'pq_rerank', query_id, vec_id
                FROM {_g('pq_rerank')}
            )
            SELECT m.method, m.query_id, CAST(10 AS BIGINT) AS k,
                   CAST(COUNT(b.vec_id) AS BIGINT) AS hits,
                   CAST(COUNT(b.vec_id) * 1000000 // 10 AS BIGINT)
                       AS recall_ppm
            FROM m LEFT JOIN brute b
                 ON b.query_id = m.query_id AND b.vec_id = m.vec_id
            GROUP BY m.method, m.query_id
            ORDER BY m.method, m.query_id
        """,
        "ann_pq_topk": f"""
            SELECT query_id, vec_id, rank FROM {_g('pq_topk')}
        """,
        "ann_rrf_topk": f"""
            SELECT query_id, vec_id, rrf_ppm, rank FROM {_g('rrf')}
        """,
        "mm_dhash": f"""
            SELECT media_id, dhash FROM {_g('dhash')}
        """,
        "mm_dhash_pairs": f"""
            SELECT id_a, id_b, hamming FROM {_g('dhash_pairs')}
        """,
        "mm_dhash_keep": f"""
            SELECT media_id, rep_id, keep FROM {_g('mm_dhash_keep')}
        """,
        "mm_video_keep": f"""
            SELECT media_id, rep_id, keep FROM {_g('mm_video_keep')}
        """,
        "mm_audio_keep": f"""
            SELECT media_id, rep_id, keep FROM {_g('mm_audio_keep')}
        """,
        "mm_audio_pairs": f"""
            SELECT id_a, id_b, n_shared FROM {_g('audio_pairs')}
        """,
        "mm_video_pairs": f"""
            SELECT id_a, id_b, n_shared FROM {_g('video_pairs')}
        """,
        "kg_truss": f"""
            SELECT a, b, support FROM {_g('truss')}
        """,
        "wg_cocitation": f"""
            WITH ext AS (
                SELECT DISTINCT src_host AS src, dst_host AS dst
                FROM {_g('host_graph')} WHERE src_host <> dst_host
            ),
            keep AS (
                SELECT dst FROM ext GROUP BY dst
                HAVING COUNT(*) BETWEEN 2 AND 64
            ),
            p AS (
                SELECT a.src AS host_a, b.src AS host_b,
                       CAST(COUNT(*) AS BIGINT) AS n_shared_dsts
                FROM ext a JOIN ext b ON a.dst = b.dst AND a.src < b.src
                JOIN keep k ON k.dst = a.dst
                GROUP BY 1, 2
            )
            SELECT host_a, host_b, n_shared_dsts FROM p
            ORDER BY n_shared_dsts DESC, host_a, host_b
            LIMIT 20
        """,
        "tx_fertility": f"""
            SELECT d.lang,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(e.n_bpe_tokens) AS BIGINT) AS sum_tokens,
                   CAST(SUM(d.n_chars) AS BIGINT) AS sum_chars,
                   CAST(1000000 * SUM(e.n_bpe_tokens) // SUM(d.n_chars)
                        AS BIGINT) AS fertility_ppm
            FROM {_g('bpe_encode')} e JOIN documents d USING (doc_id)
            GROUP BY d.lang ORDER BY d.lang
        """,
        "tx_cdc": f"""
            SELECT doc_id, n_chunks, n_bytes, dup_chunks, dup_bytes
            FROM {_g('cdc')}
        """,
        "kg_assortativity": f"""
            WITH pairs AS (
                SELECT DISTINCT LEAST(subj_id, obj_id) AS a,
                                GREATEST(subj_id, obj_id) AS b
                FROM {_g('edges')}
                WHERE subj_id >= 0 AND obj_id >= 0 AND subj_id <> obj_id
            ),
            deg AS (
                SELECT node, CAST(COUNT(*) AS HUGEINT) AS deg
                FROM (SELECT a AS node FROM pairs
                      UNION ALL SELECT b FROM pairs)
                GROUP BY node
            ),
            xy AS (
                SELECT d1.deg AS x, d2.deg AS y
                FROM pairs JOIN deg d1 ON d1.node = a
                           JOIN deg d2 ON d2.node = b
            ),
            s AS (
                SELECT CAST(COUNT(*) AS HUGEINT) AS m,
                       SUM(x * y) AS se, SUM(x + y) AS ss,
                       SUM(x * x + y * y) AS sq
                FROM xy
            )
            SELECT CAST(m AS BIGINT) AS m, CAST(se AS BIGINT) AS se,
                   CAST(ss AS BIGINT) AS ss, CAST(sq AS BIGINT) AS sq,
                   CAST(CASE WHEN 2 * m * sq - ss * ss = 0 THEN 0
                        ELSE ((4 * m * se - ss * ss) * 1000000)
                             // (2 * m * sq - ss * ss) END AS BIGINT)
                       AS r_ppm
            FROM s
        """,
        "kg_modularity": f"""
            WITH pairs AS (
                SELECT DISTINCT LEAST(subj_id, obj_id) AS a,
                                GREATEST(subj_id, obj_id) AS b
                FROM {_g('edges')}
                WHERE subj_id >= 0 AND obj_id >= 0 AND subj_id <> obj_id
            ),
            typed AS (
                SELECT na.ent_type AS ta, nb.ent_type AS tb
                FROM pairs
                JOIN {_g('nodes')} na ON na.entity_id = a
                JOIN {_g('nodes')} nb ON nb.entity_id = b
            ),
            tot AS (SELECT CAST(COUNT(*) AS HUGEINT) AS m FROM typed),
            stats AS (
                SELECT ent_type,
                       CAST(SUM(mi) AS HUGEINT) AS m_in,
                       CAST(SUM(d) AS HUGEINT) AS d_sum
                FROM (
                    SELECT ta AS ent_type, 1 AS d,
                           CASE WHEN ta = tb THEN 1 ELSE 0 END AS mi
                    FROM typed
                    UNION ALL
                    SELECT tb, 1, 0 FROM typed
                ) GROUP BY ent_type
            )
            SELECT ent_type,
                   CAST(m_in AS BIGINT) AS m_in,
                   CAST(d_sum AS BIGINT) AS d_sum,
                   CAST((m_in * 4 * m - d_sum * d_sum) * 1000000
                        // (4 * m * m) AS BIGINT) AS contrib_ppm
            FROM stats, tot ORDER BY ent_type
        """,
        "sk_hll_users": f"""
            SELECT event_type, n_users_est FROM {_g('hll_users')}
        """,
        "sk_hll_terms": f"""
            SELECT n_terms_est FROM {_g('hll_terms')}
        """,
        "sk_cms_terms": f"""
            SELECT term, n_exact, n_est, overcount FROM {_g('cms')}
        """,
        "q70_bpe_merges": f"""
            SELECT rank, sym_a, sym_b, n FROM {_g('bpe')}
        """,
        "tx_bpe_encode": f"""
            SELECT doc_id, n_words, n_bpe_tokens FROM {_g('bpe_encode')}
            ORDER BY doc_id
        """,
        "tx_zlib_ratio": f"""
            SELECT doc_id, n_bytes, n_comp, ratio_ppm FROM {_g('zlib_ratio')}
            ORDER BY doc_id
        """,
        "q75_split_leakage": f"""
            WITH f AS (
                SELECT substr(md5(CAST(doc_a AS VARCHAR)), 32, 1)
                           IN ('0','1','2','3') AS ta,
                       substr(md5(CAST(doc_b AS VARCHAR)), 32, 1)
                           IN ('0','1','2','3') AS tb
                FROM {_g('dd_minhash')}
            )
            SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs,
                   CAST(COALESCE(SUM(CASE WHEN ta <> tb THEN 1 ELSE 0 END),
                                 0) AS BIGINT) AS n_leaking
            FROM f
        """,
        "kg_bfs": f"""
            SELECT entity_id, dist FROM {_g('bfs')}
        """,
        "kg_jaccard": _jaccard_sql(),
        "kg_link_ra": _ra_sql(),
        "kg_clustering": _cc_sql(),
        "kg_hits": f"""
            SELECT entity_id, auth_fp, hub_fp FROM {_g('hits')}
        """,
        "kg_negatives": _negatives_sql(),
        "kg_walks": f"""
            SELECT start_id, step, node_id FROM {_g('walks')}
        """,
        "kg_walk_lift": _walk_lift_sql(),
        "kg_harmonic": f"""
            SELECT entity_id, harmonic_ppm, n_seeds FROM {_g('harmonic')}
        """,
        "kg_lineage": f"""
            SELECT chunk_id, n_files, n_pages, status FROM {_g('lineage')}
        """,
        "mm_decode_pixels": f"""
            SELECT media_id, format, width, height, n_values, sum_values,
                   min_value, max_value
            FROM {_g('mm_decode')}
        """,
        "mm_resize_stats": f"""
            SELECT media_id, resized_w, resized_h, sum_resized
            FROM {_g('mm_resize')}
        """,
        # kg_merge_*: the incremental merge is bit-identical to the full
        # run by construction, so its oracle IS the full-run golden
        "kg_merge_nodes": f"""
            SELECT entity_id, canonical_name, ent_type, mention_count,
                   link_count, perfect_links, max_score, min_score,
                   aliases_joined
            FROM {_g('nodes')}
        """,
        "kg_merge_edges": f"""
            SELECT subj_id, pred, obj_id, subj, obj, url, warc_ts,
                   confidence, context, validated, flag_for_review
            FROM {_g('edges')}
        """,
        # snapshot diff between two builds: the base half vs the merged
        # full build — every delta-half edge is 'added', nothing 'removed';
        # the synth url embeds the page row index, so delta membership is
        # SQL-derivable from the cut row of the merge fixture
        "kg_diff": _kg_diff_sql(),
        # graph-level consistency + provenance diagnostics
        "kg_conflicts": f"""
            WITH d AS (
                SELECT pred,
                       LEAST(subj_id, obj_id) AS entity_a,
                       GREATEST(subj_id, obj_id) AS entity_b,
                       CASE WHEN subj_id < obj_id THEN 1 ELSE 0 END AS fwd
                FROM {_g('edges')}
                WHERE pred IN ('outperforms', 'improves_on', 'extends',
                               'builds_on')
                  AND subj_id <> obj_id
            ),
            agg AS (
                SELECT pred, entity_a, entity_b,
                       CAST(SUM(fwd) AS BIGINT) AS n_fwd,
                       CAST(SUM(1 - fwd) AS BIGINT) AS n_rev
                FROM d GROUP BY 1, 2, 3
            )
            SELECT pred, entity_a, entity_b, n_fwd, n_rev
            FROM agg WHERE n_fwd > 0 AND n_rev > 0
            ORDER BY pred, entity_a, entity_b
        """,
        "kg_entity_history": f"""
            WITH sides AS (
                SELECT subj_id AS entity_id, url, epoch_us(warc_ts) AS ts
                FROM {_g('edges')}
                UNION ALL
                SELECT obj_id, url, epoch_us(warc_ts) FROM {_g('edges')}
            )
            SELECT entity_id,
                   CAST(MIN(ts) AS BIGINT) AS first_ts_us,
                   CAST(MAX(ts) AS BIGINT) AS last_ts_us,
                   CAST(COUNT(DISTINCT url) AS BIGINT) AS n_pages
            FROM sides GROUP BY entity_id ORDER BY entity_id
        """,
        # sample-query analogs (db_init.py:226-275)
        "kg_improves_seminal": f"""
            WITH sem AS (
                SELECT entity_id FROM {_g('nodes')}
                ORDER BY mention_count DESC, entity_id LIMIT 1
            )
            SELECT n.canonical_name AS improving_entity,
                   e.context AS explanation, e.confidence, e.url
            FROM {_g('edges')} e
            JOIN sem ON e.obj_id = sem.entity_id
            JOIN {_g('nodes')} n ON n.entity_id = e.subj_id
            WHERE e.pred = 'improves_on'
            ORDER BY e.confidence DESC, improving_entity, e.url
        """,
        "kg_stats": f"""
            SELECT
                (SELECT CAST(COUNT(*) AS BIGINT) FROM {_g('text')})
                    AS total_pages,
                (SELECT CAST(COUNT(*) AS BIGINT) FROM {_g('nodes')})
                    AS total_entities,
                (SELECT CAST(COUNT(*) AS BIGINT) FROM {_g('mentions')})
                    AS total_links,
                (SELECT CAST(COUNT(*) AS BIGINT) FROM {_g('edges')})
                    AS total_edges,
                (SELECT CAST(SUM(CAST(validated AS BIGINT)) AS BIGINT)
                 FROM {_g('edges')}) AS validated_edges
        """,
        "kg_pages_needing_edges": f"""
            SELECT m.url, CAST(COUNT(*) AS BIGINT) AS n_entities
            FROM {_g('mentions')} m
            WHERE NOT EXISTS (
                SELECT 1 FROM {_g('edges')} e WHERE e.url = m.url
            )
            GROUP BY m.url ORDER BY m.url
        """,
        "kg_pages_no_edges": f"""
            SELECT t.url, t.lang FROM {_g('text')} t
            WHERE NOT EXISTS (
                SELECT 1 FROM {_g('edges')} e WHERE e.url = t.url
            )
            ORDER BY t.url
        """,
        # kg_search: AND-semantics (tsquery '&') BM25-ranked full-text search
        # over the golden extracted text + KG-entity enrichment join — same
        # integer math as the Ray path (scoring.q89 kernel), so bit-exact
        "kg_search": _kg_search_sql(),
        # kg_search_degenerate: same SQL oracle with the single stop-word
        # term — the Ray side runs its streaming fallback regime here
        "kg_search_degenerate": _kg_search_sql(_degen_query()),
        # indexed variants: SAME SQL oracles — the persisted-index path
        # must not change the answer (the link-table proof standard)
        "kg_search_indexed": _kg_search_sql(),
        "kg_phrase_indexed": _kg_phrase_sql(),
        "kg_search_indexed_degenerate": _kg_search_sql(_degen_query()),
        # incremental flagships: base artifact + delta-only work must equal
        # the full-corpus answer — SAME oracles as the full-build queries
        "kg_update_search": _kg_search_sql(),
        # pure SQL (no golden needed): the deterministic fake video payload is
        # text-derived, so the frame-sample count is arithmetic on byte length
        "mm_sampled_frames": """
            SELECT doc_id AS media_id,
                   CAST(((octet_length(encode(text)) + 255) // 256 + 3) // 4
                        AS BIGINT) AS n_sampled_frames
            FROM documents
            WHERE doc_id % 3 = 2 AND octet_length(encode(text)) > 0
        """,
    }
