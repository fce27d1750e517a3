"""End-to-end training-data curation — the composition flagship.

Chains the four curation gates every LLM-data pipeline runs, over
``documents``, into ONE per-document disposition:

    exact dedup (q13/D1 semantics: first doc_id per content wins)
    -> Gopher quality gate (q57 rule battery, Rae et al. 2021)
    -> benchmark decontamination (dd_decontaminate 8-gram overlap)
    -> shard assignment for the keepers (q44 md5 arithmetic)

with precedence eval > duplicate > low_quality > contaminated > kept
(an eval doc is excluded from training data whatever else it is; a
duplicate is dropped before paying quality/contamination analysis in a
real run — here both are computed anyway because the one map pass has the
text in hand).

Scale shape: ONE map pass computes content hash + Gopher flags +
contamination verdict (worker-cached broadcast eval-gram set, the
dd_decontaminate pattern) + shard — then the only shuffle is a
content-hash groupby carrying (hash, doc_id, 3 flag ints): the text NEVER
rides the all-to-all (q13's oracle groups by text; the hash key is
equality-equivalent). Inside each hash group the min doc_id wins; output
is one (doc_id, status, shard) row per document.

Reference analog: the acquisition-side dedup + validation gates
(fetch_papers.py:84-96 skip-existing, SURVEY §2.7 D1/D2) composed the way
§7.4's "one pipeline, many gates" sketch describes.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import ray

from ..runtime import worker_cached
from ..sources.tables import read_table
from .assembly import EVAL_MOD, NSHARDS, _doc_grams, eval_gram_set
from .gopher import _gopher_batch

STATUS_EVAL = "eval"
STATUS_DUP = "duplicate"
STATUS_LOWQ = "low_quality"
STATUS_CONTAM = "contaminated"
STATUS_KEPT = "kept"


def _flags_batch(t: pa.Table, gram_ref=None) -> pa.Table:
    """One pass per document: content hash, Gopher keep, contamination,
    eval membership, shard — everything the disposition needs, so the
    downstream shuffle carries no text."""
    grams = worker_cached(gram_ref, lambda: ray.get(gram_ref))

    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    keep = _gopher_batch(t)["keep"].to_pylist()  # same row order as input
    h, cont, shard = [], [], []
    for doc_id, text in zip(ids, texts):
        h.append(hashlib.sha1(text.encode("utf-8")).hexdigest())
        cont.append(int(any(g in grams for g in _doc_grams(text))))
        shard.append(
            ord(hashlib.md5(str(doc_id).encode()).hexdigest()[0]) % NSHARDS
        )
    return pa.table(
        {
            "h": pa.array(h, pa.string()),
            "doc_id": pa.array(ids, pa.int64()),
            "is_eval": pa.array(
                [int(i % EVAL_MOD == 0) for i in ids], pa.int64()
            ),
            "keep_q": pa.array(keep, pa.int64()),
            "contaminated": pa.array(cont, pa.int64()),
            "shard": pa.array(shard, pa.int64()),
        }
    )


def _dispose_group(g):
    """Within one content-hash group: min doc_id is the representative,
    the rest are duplicates; then the per-doc gates apply in precedence
    order. pandas in, pandas out (groupby.map_groups)."""
    first = g["doc_id"].min()
    status, shard = [], []
    for r in g.itertuples(index=False):
        if r.is_eval:
            s = STATUS_EVAL
        elif r.doc_id != first:
            s = STATUS_DUP
        elif not r.keep_q:
            s = STATUS_LOWQ
        elif r.contaminated:
            s = STATUS_CONTAM
        else:
            s = STATUS_KEPT
        status.append(s)
        shard.append(r.shard if s == STATUS_KEPT else -1)
    import pandas as pd

    return pd.DataFrame(
        {"doc_id": g["doc_id"], "status": status, "shard": shard}
    )


def ta_curate(sf_dir: str):
    """Per-document curation disposition (see module docstring)."""
    gram_ref = ray.put(eval_gram_set(sf_dir))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return (
        docs.map_batches(
            _flags_batch,
            fn_kwargs={"gram_ref": gram_ref},
            batch_format="pyarrow",
        )
        .groupby("h")
        .map_groups(_dispose_group, batch_format="pandas")
        .sort("doc_id")
    )


QUERIES = {"ta_curate": ta_curate}


def _oracle() -> str:
    from .assembly import NGRAM_N, _TOKS_SQL
    from .gopher import (
        MAX_MEAN_LEN,
        MAX_WORDS,
        MIN_MEAN_LEN,
        MIN_STOP_HITS,
        MIN_WORDS,
        _STOP_SQL,
        _TOK_LANG_SQL,
    )

    return f"""
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
            SELECT DISTINCT g.doc_id
            FROM grams g JOIN eval_grams e USING (gram)
        ),
        tok AS ({_TOK_LANG_SQL}),
        agg AS (
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_words,
                   CAST(SUM(length(term)) AS BIGINT) AS sum_word_len,
                   CAST(COUNT(DISTINCT CASE WHEN term IN ({_STOP_SQL})
                        THEN term END) AS BIGINT) AS n_stop
            FROM tok GROUP BY doc_id
        ),
        gop AS (
            SELECT d.doc_id,
                   CASE WHEN COALESCE(a.n_words, 0) >= {MIN_WORDS}
                         AND COALESCE(a.n_words, 0) <= {MAX_WORDS}
                         AND COALESCE(a.n_words, 0) > 0
                         AND COALESCE(a.sum_word_len, 0)
                             >= {MIN_MEAN_LEN} * COALESCE(a.n_words, 0)
                         AND COALESCE(a.sum_word_len, 0)
                             <= {MAX_MEAN_LEN} * COALESCE(a.n_words, 0)
                         AND COALESCE(a.n_stop, 0) >= {MIN_STOP_HITS}
                         AND 2 * CAST(length(regexp_replace(d.text,
                               '[a-zA-Z0-9\\s]', '', 'g')) AS BIGINT)
                             <= COALESCE(a.n_words, 0)
                    THEN 1 ELSE 0 END AS keep_q
            FROM documents d LEFT JOIN agg a USING (doc_id)
        ),
        firsts AS (
            SELECT text, MIN(doc_id) AS first_id FROM documents GROUP BY text
        ),
        disp AS (
            SELECT d.doc_id,
                   CASE WHEN d.doc_id % {EVAL_MOD} = 0 THEN '{STATUS_EVAL}'
                        WHEN d.doc_id <> f.first_id THEN '{STATUS_DUP}'
                        WHEN g.keep_q = 0 THEN '{STATUS_LOWQ}'
                        WHEN h.doc_id IS NOT NULL THEN '{STATUS_CONTAM}'
                        ELSE '{STATUS_KEPT}' END AS status
            FROM documents d
            JOIN firsts f ON d.text = f.text
            JOIN gop g ON g.doc_id = d.doc_id
            LEFT JOIN hits h ON h.doc_id = d.doc_id
        )
        SELECT doc_id, status,
               CAST(CASE WHEN status = '{STATUS_KEPT}'
                    THEN ascii(substr(md5(CAST(doc_id AS VARCHAR)), 1, 1))
                         % {NSHARDS}
                    ELSE -1 END AS BIGINT) AS shard
        FROM disp ORDER BY doc_id
    """


ORACLE_SQL = {"ta_curate": _oracle()}
