"""Actor-pool NER + triple-extraction stage.

Reference analog: the EntityExtractionAgent + RelationshipDiscoveryAgent pair
(``/root/reference/agents/src/agents/entity-extraction-agent.ts:30-79``,
``relationship-discovery-agent.ts:65-120``), re-expressed as ONE deterministic
actor-pool ``map_batches`` stage (SURVEY.md T1/T2): state (the broadcast alias
dict) is fetched once per actor in ``__init__``; ``__call__`` processes an
Arrow batch of extracted pages.

The per-page kernel is the document-level scanner
``functions/triples.scan_mentions_and_triples`` (one regex pass for sentence
separators and one for candidate entity runs per page). Its mentions carry
their norms and its triples carry ``subj_norm``/``obj_norm``, so this stage
normalizes no surface itself except the alias canonicals, once per actor.
The per-token ``extract_mentions_and_triples`` is the sequential reference
that only the oracles (``oracle.py``, ``goldens.py``) run, so the oracle
checks compare two independent implementations. Both the task path
(``extract_records_batch``) and the actor-pool path run this one stage.

Output is a single kind-tagged record table (``kind`` in {"page", "mention",
"triple", "mcount"}) so ONE extraction pass feeds every downstream table;
the writer splits it with ``partition_cols=["chunk", "kind"]``:
- "page" rows carry the extracted text (the byte-identical artifact),
- "mention"/"triple" rows are the per-page extraction results,
- "mcount" rows are batch-level mention-count partials (see MCOUNT_COLUMNS).

- "mention" rows are PER-(page, entity) aggregates — one row per distinct
  normalized surface per page, with ``n_in_page`` carrying the raw mention
  count. This is the combiner half of the canonicalization shuffle: the
  global ``mention_count`` groupby then runs over page-level partials instead
  of raw spans, which is what keeps Zipf-head entities from creating a
  hot-key shuffle (SURVEY.md §4.2 "skew").
- "triple" rows carry a deterministic confidence computed page-locally with
  the reference's base-confidence formula
  (``relationship-discovery-agent.ts:43-60``): the shared-concept set of a
  triple = the other entities co-mentioned on the page. No join needed.
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.confidence import (
    HIGH_BAND,
    LOW_BAND,
    MED_BAND,
    confidence_from_band_counts,
)
from ..functions.textnorm import norm_surface as _norm
from ..functions.triples import mention_relevance, scan_mentions_and_triples
from ..runtime import worker_cached

RECORD_FIELDS = [
    ("kind", pa.string()),  # "page" (extracted text) | "mention" | "triple"
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("text", pa.string()),  # kind=page only: the byte-identical artifact
    ("lang", pa.string()),  # kind=page only
    ("surface", pa.string()),
    ("norm_surface", pa.string()),
    ("ent_type", pa.string()),
    ("score", pa.float64()),
    ("n_in_page", pa.int32()),
    ("span_start", pa.int32()),
    ("span_end", pa.int32()),
    ("context", pa.string()),
    ("subj", pa.string()),
    ("subj_norm", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("obj_norm", pa.string()),
    ("confidence", pa.float64()),
    ("link_score", pa.float64()),  # mention rows: 1.0 alias hit / 0.0 unknown
    ("chunk", pa.string()),  # lineage partition tag (resume unit)
]
RECORD_SCHEMA = pa.schema(RECORD_FIELDS)

# kind="mcount" rows are BATCH-level mention-count partials (the combiner
# half of the canonicalization shuffle, emitted at extraction time so phase B
# reads vocabulary-sized partials instead of re-scanning every mention row).
# They carry norm_surface and reuse these record columns, each mapped to
# (how the partials of one norm_surface merge, the merged count column):
MCOUNT_COLUMNS = {
    "n_in_page": ("sum", "mention_count"),   # sum of in-page mention counts
    "span_start": ("sum", "link_count"),     # count of (page, entity) link rows
    "span_end": ("sum", "perfect_links"),    # count of links with score == 1.0
    "score": ("max", "max_score"),
    "confidence": ("min", "min_score"),
}


def _kind_table(kind: str, n: int, cols: dict) -> pa.Table:
    """``n`` RECORD_SCHEMA rows of one ``kind``: the given columns (Arrow
    arrays or Python lists), nulls in every other column."""
    arrays = []
    for f in RECORD_SCHEMA:
        col = [kind] * n if f.name == "kind" else cols.get(f.name)
        if col is None:
            col = pa.nulls(n, f.type)
        elif isinstance(col, list):
            col = pa.array(col, f.type)
        arrays.append(col)
    return pa.Table.from_arrays(arrays, schema=RECORD_SCHEMA)


def _mcount_table(mention_tbl: pa.Table) -> pa.Table:
    """kind="mcount" rows of one batch (see MCOUNT_COLUMNS): per (chunk,
    norm_surface) the sum of n_in_page, the number of mention rows, how
    many score 1.0, and the max and min score, sorted by (chunk,
    norm_surface)."""
    perfect = pc.cast(pc.equal(mention_tbl["score"], 1.0), pa.int32())
    g = (
        mention_tbl.select(["chunk", "norm_surface", "n_in_page", "score"])
        .append_column("perfect", perfect)
        .group_by(["chunk", "norm_surface"])
        .aggregate([
            ("n_in_page", "sum"),
            ("n_in_page", "count"),
            ("perfect", "sum"),
            ("score", "max"),
            ("score", "min"),
        ])
        .sort_by([("chunk", "ascending"), ("norm_surface", "ascending")])
    )
    return _kind_table("mcount", g.num_rows, {
        "norm_surface": g["norm_surface"],
        "score": g["score_max"],
        "n_in_page": pc.cast(g["n_in_page_sum"], pa.int32()),
        "span_start": pc.cast(g["n_in_page_count"], pa.int32()),
        "span_end": pc.cast(g["perfect_sum"], pa.int32()),
        "confidence": g["score_min"],
        "chunk": g["chunk"],
    })


class TripleExtractor:
    """Callable class for ``map_batches(TripleExtractor, concurrency=N)``.

    ``lang_allow``: optional language allowlist (e.g. ``{"en"}``) — the lang
    filter from the input schema; None processes every page.

    ``alias_ref`` / ``alias_dict``: when provided, entity linking (the T3
    broadcast pattern — dict fetched from the object store once per actor)
    is FUSED into this stage: mention rows get ``ent_type`` (closed enum,
    'concept' fallback) and ``link_score`` inline, so the full record stream
    (including page text) is not re-serialized through a second pool. The
    standalone ``stages/linking.EntityLinker`` remains for modular use.
    """

    def __init__(
        self,
        lang_allow: frozenset[str] | None = None,
        alias_ref=None,
        alias_dict=None,
    ) -> None:
        # Per-actor setup. The regexes used by the pure kernels are compiled
        # at module import (once per worker process); anything heavier (a
        # model) would be loaded here.
        self.lang_allow = lang_allow
        if alias_dict is None and alias_ref is not None:
            import ray

            alias_dict = ray.get(alias_ref)
        self.alias = alias_dict
        # norm -> the dedup key of an alias hit: its canonical, normalized
        self._canon = (
            {k: _norm(v[0]) for k, v in alias_dict.items()} if alias_dict else {}
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        if "chunk" in batch.schema.names:
            chunks_col = batch.column("chunk").to_pylist()
        else:
            chunks_col = [""] * len(texts)
        alias = self.alias
        canon = self._canon

        # columnar builders: mention and triple rows refer to their page by
        # index (m_page/t_page) and take url/warc_ts/chunk from the page
        # columns; only the fields each kind carries are built in Python
        # (_kind_table fills the rest with nulls)
        m_page, m_norm, m_surface, m_n, m_score = [], [], [], [], []
        m_start, m_end, m_context, m_hit = [], [], [], []
        t_page, t_subj, t_snorm, t_pred, t_obj, t_onorm = [], [], [], [], [], []
        t_conf, t_context = [], []

        for i, (text, lang) in enumerate(zip(texts, langs)):
            # the page row (built vectorized below) carries the extracted
            # text for EVERY url; lang_allow only gates extraction
            if self.lang_allow is not None and lang not in self.lang_allow:
                continue
            mentions, triples = scan_mentions_and_triples(text or "")
            if not mentions:
                continue

            # per-page aggregation: one row per distinct norm surface,
            # carrying its first mention and its count
            norms = [m.norm for m in mentions]
            counts = Counter(norms)
            first = dict(zip(reversed(norms), reversed(mentions)))
            scores = {norm: mention_relevance(n) for norm, n in counts.items()}

            # page-level relevance band counts (for O(1) per-triple
            # confidence — equivalent to the pure list formula)
            n_high = n_med = n_low = 0
            for v in scores.values():
                if v >= HIGH_BAND:
                    n_high += 1
                elif v >= MED_BAND:
                    n_med += 1
                elif v >= LOW_BAND:
                    n_low += 1
            n_total = len(scores)

            ns = sorted(counts)
            firsts = [first[norm] for norm in ns]
            m_page += [i] * len(ns)
            m_norm += ns
            m_surface += [m.surface for m in firsts]
            m_n += [counts[norm] for norm in ns]
            m_score += [scores[norm] for norm in ns]
            m_start += [m.start for m in firsts]
            m_end += [m.end for m in firsts]
            m_context += [m.context for m in firsts]
            if alias is not None:
                m_hit += [alias.get(norm) for norm in ns]

            # Exact edge dedup AT SOURCE (reference D4 semantics:
            # UNIQUE(source, target, type) per source document,
            # db_init.py:128). The canonical entity key is fully determined
            # by the alias dict (a component = one canonical + its aliases;
            # distinct canonicals never merge), so deduplicating per page on
            # (canon(subj), pred, canon(obj)) here removes ALL global
            # duplicates by construction — url is part of the edge key and
            # each url is processed exactly once (assumption documented in
            # pipelines/kg.py; re-crawled duplicate urls need
            # cfg.global_edge_dedup). The dedup key uses the NORMALIZED
            # canonical so a raw mention of the canonical surface and a
            # mention of its alias collapse to the same key; the alias dict
            # must be canonicalized (values are fixed points — an alias's
            # canonical must not itself be an alias of something else),
            # which union-find would merge but this per-page key would not.
            # Keeps the lexicographically smallest
            # (confidence, context, subj, obj) representative.
            best: dict[tuple, tuple] = {}
            for t in triples:
                sn, on = t.subj_norm, t.obj_norm
                conf = self._confidence(scores, sn, on, n_high, n_med, n_low, n_total)
                key = (canon.get(sn, sn), t.pred, canon.get(on, on))
                cand = (conf, t.context, t.subj, sn, t.obj, on)
                if key not in best or cand < best[key]:
                    best[key] = cand
            for key in sorted(best):
                conf, context, subj, sn, obj, on = best[key]
                t_page.append(i)
                t_subj.append(subj)
                t_snorm.append(sn)
                t_pred.append(key[1])
                t_obj.append(obj)
                t_onorm.append(on)
                t_conf.append(conf)
                t_context.append(context)

        cols = {"url": batch.column("url"), "warc_ts": batch.column("warc_ts"),
                "chunk": pa.array(chunks_col, pa.string())}

        def rows_of(idx: list[int]) -> dict:
            """url/warc_ts/chunk of the pages at idx."""
            take = pa.array(idx, pa.int32())
            return {name: col.take(take) for name, col in cols.items()}

        mention_cols = {
            **rows_of(m_page), "surface": m_surface, "norm_surface": m_norm,
            "score": m_score, "n_in_page": m_n, "span_start": m_start,
            "span_end": m_end, "context": m_context,
        }
        if alias is not None:
            mention_cols["ent_type"] = [h[1] if h else "concept" for h in m_hit]
            mention_cols["link_score"] = [1.0 if h else 0.0 for h in m_hit]
        mention_tbl = _kind_table("mention", len(m_page), mention_cols)
        return pa.concat_tables([
            _kind_table("page", len(texts),
                        {**cols, "text": texts, "lang": langs}),
            mention_tbl,
            _kind_table("triple", len(t_page), {
                **rows_of(t_page), "context": t_context, "subj": t_subj,
                "subj_norm": t_snorm, "pred": t_pred, "obj": t_obj,
                "obj_norm": t_onorm, "confidence": t_conf,
            }),
            _mcount_table(mention_tbl),
        ])

    @staticmethod
    def _confidence(
        scores: dict[str, float], sn: str, on: str,
        n_high: int, n_med: int, n_low: int, n_total: int,
    ) -> float:
        """O(1) base confidence from page-level band counts — algebraically
        identical to calculate_base_confidence over the shared-score list
        (the oracle runs the list form; tests assert equality)."""
        h, m, low, total = n_high, n_med, n_low, n_total
        for norm in {sn, on}:
            v = scores.get(norm)
            if v is None:
                continue
            total -= 1
            if v >= HIGH_BAND:
                h -= 1
            elif v >= MED_BAND:
                m -= 1
            elif v >= LOW_BAND:
                low -= 1
        return confidence_from_band_counts(h, m, low, total)


# ---------------------------------------------------------------------------
# Warm-model stub extractors (bench probes, output-identical to
# TripleExtractor).
#
# The reference's extraction stage pays an expensive per-process setup —
# the Anthropic client + prompt assets built once per agent process
# (agents/src/agents/entity-extraction-agent.ts:16-25) — before its cheap
# per-item calls. These stubs reproduce that cost profile deterministically
# so `bench.py --warm-model` can MEASURE (not assert) that the actor-pool
# shape amortizes the load: `WarmModelExtractor` pays load_s once per actor
# in __init__ (the right shape), `PerBatchLoadExtractor` pays it on every
# batch (the shape extraction degrades to when model setup is left inside
# the map function). Both delegate to the pipeline's kernel, so outputs are
# bit-identical to TripleExtractor (tests/test_kg_pipeline.py asserts it).
# ---------------------------------------------------------------------------


class WarmModelExtractor(TripleExtractor):
    """TripleExtractor with a simulated expensive model load in __init__."""

    def __init__(self, load_s: float = 5.0, **kwargs) -> None:
        import time

        time.sleep(load_s)  # stands in for reading weights / building state
        super().__init__(**kwargs)


class PerBatchLoadExtractor(TripleExtractor):
    """The naive contrast: the same load cost re-paid on EVERY batch."""

    def __init__(self, load_s: float = 5.0, **kwargs) -> None:
        self.load_s = load_s
        super().__init__(**kwargs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import time

        time.sleep(self.load_s)
        return super().__call__(batch)


# ---------------------------------------------------------------------------
# Stateless-task variant of the extraction stage.
#
# The actor-pool form above is the right shape when per-worker state is
# EXPENSIVE to build (a warm transformer/spaCy model: minutes of load time
# amortized across batches). Our deterministic extractor's only state is the
# broadcast alias dict, which lives in the object store — so plain tasks,
# which reuse warm worker processes with zero actor-spawn cost and fully
# elastic parallelism, are faster (measured: 30-actor pool spends ~10s
# spawning at 32 CPUs). runtime.worker_cached gives tasks the same
# fetch-once semantics an actor __init__ would.
# ---------------------------------------------------------------------------


def extract_records_batch(
    batch: pa.Table, alias_ref=None, lang_allow: frozenset[str] | None = None
) -> pa.Table:
    """Stateless-task form of TripleExtractor (same output, same kernels).

    ``alias_ref`` is an ObjectRef; each worker process resolves it once from
    the local object store and caches the constructed extractor.
    """
    if alias_ref is not None and not hasattr(alias_ref, "hex"):
        # already a plain dict (runtime dereferenced it): construct fresh —
        # caching by id() could collide across runs after GC reuse
        return TripleExtractor(lang_allow=lang_allow, alias_dict=alias_ref)(batch)

    def build() -> TripleExtractor:
        return TripleExtractor(lang_allow=lang_allow, alias_ref=alias_ref)

    return worker_cached((alias_ref, lang_allow), build)(batch)
