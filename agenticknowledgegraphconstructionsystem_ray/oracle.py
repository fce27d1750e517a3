"""Sequential single-process oracle (SURVEY.md §5).

Runs the pure kernels one page at a time, with no Ray involvement. Triple
extraction uses the sequential reference kernel
(``triples.extract_mentions_and_triples``, a loop over every token), not the
pipeline's document scanner, and HTML -> text uses the per-row
``html_text.html_to_text``, not the stage's column kernel, so a fault in
either pipeline kernel shows as a mismatch. The conformance reference for:
- byte-identical extracted ``text`` per ``url`` (reference contract analog:
  ``extract_and_populate.py:47-67``),
- the golden (subj, pred, obj) triple set for the P/R >= 0.95 check,
- golden nodes (canonical entity -> mention_count) for canonicalization.
"""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq

from .functions.confidence import calculate_base_confidence
from .functions.html_text import html_to_text
from .functions.textnorm import norm_surface
from .functions.triples import extract_mentions_and_triples, mention_relevance
from .state.unionfind import UnionFind


def oracle_text(pages_dir: str) -> dict[str, str]:
    """url -> extracted text, sequentially."""
    out: dict[str, str] = {}
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        t = pq.read_table(f, columns=["url", "html"])
        for url, html in zip(t.column("url").to_pylist(), t.column("html").to_pylist()):
            out[url] = html_to_text(html)
    return out


def oracle_extract(
    pages_dir: str, lang_allow: frozenset[str] | None = None
) -> tuple[dict[tuple[str, str], dict], list[dict]]:
    """Sequential mention aggregation + raw triples.

    Returns (mentions keyed by (url, norm_surface), triple row dicts) — the
    same per-page semantics as stages/triples.py, run in one process.
    """
    mentions: dict[tuple[str, str], dict] = {}
    triples: list[dict] = []
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        t = pq.read_table(f, columns=["url", "warc_ts", "html", "lang"])
        for url, ts, html, lang in zip(
            t.column("url").to_pylist(),
            t.column("warc_ts").to_pylist(),
            t.column("html").to_pylist(),
            t.column("lang").to_pylist(),
        ):
            if lang_allow is not None and lang not in lang_allow:
                continue
            text = html_to_text(html)
            ms, ts_raw = extract_mentions_and_triples(text)
            agg: dict[str, int] = {}
            for m in ms:
                agg[m.norm] = agg.get(m.norm, 0) + 1
            scores = {n: mention_relevance(c) for n, c in agg.items()}
            for norm, c in agg.items():
                key = (url, norm)
                mentions[key] = {"n_in_page": c, "score": scores[norm]}
            for tr in ts_raw:
                sn, on = norm_surface(tr.subj), norm_surface(tr.obj)
                shared = [v for k, v in scores.items() if k not in (sn, on)]
                triples.append(
                    {
                        "url": url,
                        "warc_ts": ts,
                        "subj_norm": sn,
                        "pred": tr.pred,
                        "obj_norm": on,
                        "confidence": calculate_base_confidence(shared),
                    }
                )
    return mentions, triples


def oracle_graph(
    pages_dir: str,
    alias: dict[str, tuple[str, str]],
    lang_allow: frozenset[str] | None = None,
) -> tuple[dict[str, dict], set[tuple[str, str, str]]]:
    """Sequential canonicalization: (canonical nodes, golden triple set).

    nodes: canonical_name -> {mention_count, link_count, ent_type}
    triples: distinct (subj_canonical, pred, obj_canonical).
    """
    mentions, triples = oracle_extract(pages_dir, lang_allow)

    uf = UnionFind()
    seen_norms = {norm for (_, norm) in mentions}
    for norm in seen_norms:
        uf.add(norm)
        hit = alias.get(norm)
        if hit is not None:
            uf.union(norm, norm_surface(hit[0]))

    canon: dict[str, str] = {}
    ent_type_of: dict[str, str] = {}
    for _, members in uf.components().items():
        names = sorted({alias[m][0] for m in members if m in alias})
        rep = names[0] if names else members[0]
        # same rule as build_entity_table: smallest member type, else concept
        member_types = sorted({alias[m][1] for m in members if m in alias})
        ent_type_of[rep] = member_types[0] if member_types else "concept"
        for m in members:
            canon[m] = rep

    nodes: dict[str, dict] = {}
    for (url, norm), m in mentions.items():
        c = canon[norm]
        slot = nodes.setdefault(
            c,
            {
                "mention_count": 0,
                "link_count": 0,
                "ent_type": ent_type_of[c],
            },
        )
        slot["mention_count"] += m["n_in_page"]
        slot["link_count"] += 1

    golden = {
        (canon[t["subj_norm"]], t["pred"], canon[t["obj_norm"]]) for t in triples
    }
    return nodes, golden
