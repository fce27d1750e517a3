"""Webtext cleaning operators: PII redaction and boilerplate n-gram removal.

The two cleaning passes a Common-Crawl-style corpus needs between raw text
and training-data assembly (reference analog: the entity/CSV cleaning family
`src/kg/utils/validation.py` / SURVEY §2.8, generalized from field-level to
corpus-level cleaning):

- q51 PII redaction     email / URL / long-digit-run detection + masking.
                        Fully vectorized: pyarrow.compute's RE2 kernels
                        (count_substring_regex + replace_substring_regex)
                        over the whole batch — no per-row Python. DuckDB is
                        also RE2, so the SQL oracle runs the IDENTICAL
                        pattern semantics (the same reason the extraction
                        kernel shares one regex grammar, NOTES invariant 1).
                        The synthetic corpus contains no PII, so the query
                        augments each document with deterministically
                        derived addresses/URLs/ids (text || formula(doc_id)
                        — the same trick the media family uses to make real
                        codecs driver-verifiable); the oracle constructs the
                        identical augmented text in SQL.
- q52 boilerplate       corpus-frequent 3-gram removal (RefinedWeb-style
  n-gram removal         line dedup re-expressed for a corpus without line
                        structure): any 3-gram appearing in >= ceil(1% of
                        documents) distinct documents is boilerplate; every
                        token covered by an occurrence of a frequent 3-gram
                        is removed. Shape: distinct (doc, gram) explode ->
                        one groupby count -> the frequent set (bounded by
                        the relative-frequency threshold, NOT vocabulary-
                        sized: at 1% it holds only grams repeated across
                        >= n/100 docs) broadcast once via ray.put -> a
                        second streaming pass marks covered token spans.
                        Overlapping spans are unioned (position-set
                        semantics), which the oracle mirrors with a
                        DISTINCT position join.

Both emit integer-only columns (counts and redacted lengths), keeping
driver value-hashes dtype-stable (NOTES invariant 2).
"""

from __future__ import annotations

import math
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ray.data.aggregate import Count

from ..runtime import cluster_cpus
from ..sources.tables import read_table

# ---------------------------------------------------------------------------
# q51: PII redaction
# ---------------------------------------------------------------------------

# RE2-safe patterns (no backrefs/lookaround): identical semantics in
# pyarrow.compute and DuckDB, both RE2-backed.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
URL_RE = r"https?://[^\s]+"
NUM_RE = r"[0-9]{6,}"


def _augment_sql_expr(col: str = "text") -> str:
    """The SQL expression building the SAME augmented text as _augment()."""
    return (
        f"{col} || ' contact user' || doc_id || '@example.com or admin' || "
        "doc_id || '@test.org see https://example.com/p/' || doc_id || "
        "' ref ' || (1000000 + doc_id)"
    )


def _augment(t: pa.Table) -> pa.Table:
    """Deterministically splice PII-shaped spans into each document (the
    corpus itself has none): two emails, one URL, one >=7-digit id."""
    ids = t["doc_id"]
    ids_str = pc.cast(ids, pa.string())
    aug = pc.binary_join_element_wise(
        t["text"],
        " contact user",
        ids_str,
        "@example.com or admin",
        ids_str,
        "@test.org see https://example.com/p/",
        ids_str,
        " ref ",
        pc.cast(pc.add(ids, 1000000), pa.string()),
        "",
    )
    return pa.table({"doc_id": ids, "text": aug})


def redact_batch(t: pa.Table) -> pa.Table:
    """One vectorized redaction pass: URL -> EMAIL -> NUM, counting matches
    on the text as it stands at each step (so a digit run inside an
    already-masked URL is never double-counted). Pure Arrow kernels."""
    s = t["text"].combine_chunks()
    n_urls = pc.count_substring_regex(s, URL_RE)
    s = pc.replace_substring_regex(s, URL_RE, "<URL>")
    n_emails = pc.count_substring_regex(s, EMAIL_RE)
    s = pc.replace_substring_regex(s, EMAIL_RE, "<EMAIL>")
    n_nums = pc.count_substring_regex(s, NUM_RE)
    s = pc.replace_substring_regex(s, NUM_RE, "<NUM>")
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_urls": pc.cast(n_urls, pa.int64()),
            "n_emails": pc.cast(n_emails, pa.int64()),
            "n_nums": pc.cast(n_nums, pa.int64()),
            "n_chars_clean": pc.cast(pc.utf8_length(s), pa.int64()),
        }
    )


def q51_redact_pii(sf_dir: str):
    """PII redaction over the augmented corpus; see module docstring."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return (
        docs.map_batches(_augment, batch_format="pyarrow")
        .map_batches(redact_batch, batch_format="pyarrow")
        .sort("doc_id")
    )


# ---------------------------------------------------------------------------
# q52: corpus-frequent 3-gram boilerplate removal
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_GRAM_N = 3
_REL_DF = 0.01  # boilerplate = 3-gram present in >= ceil(1% of docs) docs


def _doc_grams(t: pa.Table) -> pa.Table:
    """Distinct (doc_id, gram) rows per document (df semantics)."""
    ids, grams = [], []
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        ts = _TOKEN_RE.findall(text.lower())
        seen = {
            " ".join(ts[i : i + _GRAM_N])
            for i in range(len(ts) - _GRAM_N + 1)
        }
        ids.extend([doc_id] * len(seen))
        grams.extend(seen)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "gram": pa.array(grams, pa.string()),
        }
    )


class _RemoveBoilerplate:
    """Second pass: mark every token covered by a frequent-3-gram occurrence
    (overlaps unioned), emit per-doc counts. The frequent set is fetched
    once per actor from the object store."""

    def __init__(self, freq_ref) -> None:
        self.freq = ray.get(freq_ref)

    def __call__(self, t: pa.Table) -> pa.Table:
        freq = self.freq
        n_tokens, n_removed = [], []
        for text in t["text"].to_pylist():
            ts = _TOKEN_RE.findall(text.lower())
            covered = np.zeros(len(ts), dtype=bool)
            for i in range(len(ts) - _GRAM_N + 1):
                if " ".join(ts[i : i + _GRAM_N]) in freq:
                    covered[i : i + _GRAM_N] = True
            n_tokens.append(len(ts))
            n_removed.append(int(covered.sum()))
        n_tokens_a = pa.array(n_tokens, pa.int64())
        n_removed_a = pa.array(n_removed, pa.int64())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": n_tokens_a,
                "n_removed": n_removed_a,
                "n_kept": pc.subtract(n_tokens_a, n_removed_a),
            }
        )


def q52_boilerplate_ngrams(sf_dir: str):
    """Corpus-frequent 3-gram removal; see module docstring. Two corpus
    passes + one gram-keyed groupby; the only driver-side state is the
    frequent set itself, bounded by the relative-df threshold."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    thresh = max(2, math.ceil(_REL_DF * docs.count()))
    freq_rows = (
        docs.map_batches(_doc_grams, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Count(alias_name="df"))
        .filter(expr=f"df >= {thresh}")
        .take_all()
    )
    freq_ref = ray.put(frozenset(r["gram"] for r in freq_rows))
    return docs.map_batches(
        _RemoveBoilerplate,
        fn_constructor_kwargs={"freq_ref": freq_ref},
        batch_format="pyarrow",
        concurrency=(1, cluster_cpus()),
    ).sort("doc_id")


# ---------------------------------------------------------------------------
# q53: cross-document duplicated-span detection (exact substring dedup)
# ---------------------------------------------------------------------------

_SPAN_W = 8  # Lee et al. 2022 "Deduplicating Training Data ..." uses 50-token
# windows on BPE tokens; 8 words is the same mechanism scaled to this
# corpus's ~25-100-token documents.


def _doc_windows(t: pa.Table) -> pa.Table:
    """All overlapping _SPAN_W-token windows: (doc_id, pos, gram)."""
    ids, poss, grams = [], [], []
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        ts = _TOKEN_RE.findall(text.lower())
        for i in range(len(ts) - _SPAN_W + 1):
            ids.append(doc_id)
            poss.append(i)
            grams.append(" ".join(ts[i : i + _SPAN_W]))
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "pos": pa.array(poss, pa.int64()),
            "gram": pa.array(grams, pa.string()),
        }
    )


def q53_dup_spans(sf_dir: str):
    """Exact cross-document duplicated-span detection — the detection half
    of suffix-array substring dedup (Lee et al. 2022), with NO broadcast
    assumption (unlike q52, whose frequent set must fit in the object
    store): window explode -> ONE shuffle on a coarse content-hash bucket
    of the gram -> vectorized within-bucket groupby-nunique flags every
    occurrence of any gram spanning >= 2 distinct docs -> per-doc
    interval-union coverage.

    Per-doc output: n_tokens, n_dup_windows, n_covered (union of [pos,
    pos+W) spans; overlaps merged: W for the first window plus
    min(gap, W) per successive window). Docs with no duplication emit
    zeros via the tag-union pattern (same trick as q40's anti-join) —
    no driver-side state at any point; shuffle keys are hash buckets and
    doc ids, never corpus-sized sets.
    Degenerate hot grams (site boilerplate) are q52's job — run it first."""

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    wins = docs.map_batches(_doc_windows, batch_format="pyarrow")

    # Coarse-bucket self-"join": shuffle once on hash(gram) % (cpus * 8)
    # instead of on the gram itself, then run a VECTORIZED pandas
    # groupby-nunique inside each bucket. Same result as a per-gram group
    # pass, but groups number in the hundreds (no million-tiny-group
    # map_groups overhead) and no Dataset.join (whose hash aggregators
    # lose the schema on empty partitions as of Ray 2.49). The bucket key
    # is a stable content hash, so placement is deterministic and
    # co-location of equal grams is guaranteed.
    n_buckets = max(4, cluster_cpus() * 8)

    def bucketize(t: pa.Table) -> pa.Table:
        import hashlib

        b = [
            int.from_bytes(
                hashlib.blake2b(g.encode(), digest_size=8).digest(), "big"
            )
            % n_buckets
            for g in t["gram"].to_pylist()
        ]
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def emit_dups(df):
        nun = df.groupby("gram")["doc_id"].transform("nunique")
        return df.loc[nun >= 2, ["doc_id", "pos"]]

    hits = (
        wins.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(emit_dups, batch_format="pandas")
    )

    def coverage(df):
        p = np.sort(df["pos"].to_numpy())
        covered = _SPAN_W + np.minimum(np.diff(p), _SPAN_W).sum() if len(p) else 0
        # emit an Arrow block so the union with `base` is block-type-uniform
        return pa.table(
            {
                "doc_id": pa.array([int(df["doc_id"].iloc[0])], pa.int64()),
                "n_tokens": pa.array([0], pa.int64()),
                "n_dup_windows": pa.array([len(p)], pa.int64()),
                "n_covered": pa.array([int(covered)], pa.int64()),
            }
        )

    cov = hits.groupby("doc_id").map_groups(coverage, batch_format="pandas")

    def base(t: pa.Table) -> pa.Table:
        n_tok = [
            len(_TOKEN_RE.findall(x.lower())) for x in t["text"].to_pylist()
        ]
        z = pa.array(np.zeros(t.num_rows, np.int64))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_dup_windows": z,
                "n_covered": z,
            }
        )

    from ray.data.aggregate import Sum

    return (
        docs.map_batches(base, batch_format="pyarrow")
        .union(cov)
        .groupby("doc_id")
        .aggregate(
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("n_dup_windows", alias_name="n_dup_windows"),
            Sum("n_covered", alias_name="n_covered"),
        )
        .sort("doc_id")
        # the pandas map_groups above can make the aggregate emit pandas
        # blocks (about one run in three at sf0.01); callers read Arrow
        .map_batches(lambda t: t, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# q78: corpus-level span dedup WITH REMOVAL + reassembly (the C4 /
# ExactSubstr recipe: q53 detects duplication, this one rewrites the corpus)
# ---------------------------------------------------------------------------

_DD_W = 8  # tokens per non-overlapping span (tail span keeps the remainder)


def _doc_spans(t: pa.Table) -> pa.Table:
    """Non-overlapping _DD_W-token spans: (doc_id, sidx, gram). The last
    span carries the tail (>= 1 token). Zero-token docs emit no rows."""
    ids, sidx, grams = [], [], []
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        ts = _TOKEN_RE.findall(text.lower())
        for s in range((len(ts) + _DD_W - 1) // _DD_W):
            ids.append(doc_id)
            sidx.append(s)
            grams.append(" ".join(ts[s * _DD_W : (s + 1) * _DD_W]))
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "sidx": pa.array(sidx, pa.int64()),
            "gram": pa.array(grams, pa.string()),
        }
    )


def q78_span_dedup(sf_dir: str):
    """Global first-occurrence span dedup with document REASSEMBLY: every
    _DD_W-token span keeps only its lexicographically-first occurrence by
    (doc_id, sidx) across the whole corpus; each document is rebuilt from
    its surviving spans in order (a fully-duplicated document comes back
    empty). Per-doc output: n_spans, n_kept, text_dedup.

    Shape (nothing driver-sized anywhere):
      span explode -> ONE shuffle on a coarse content-hash bucket of the
      gram (equal grams co-locate; groups number ~cpus*8, same pattern as
      q53) -> vectorized within-bucket first-occurrence -> ONE doc_id
      groupby reassembles (kept spans sorted by sidx) -> tag-union with the
      per-doc span counts so undeduped and fully-deduped docs both emit.
    The shuffles carry each span's text at most twice (bucket pass + the
    kept subset's reassembly pass) — no broadcast set, no all-pairs work;
    skew-safe because bucket keys are content hashes of W-token strings.

    Reference analog: SURVEY §2 D-family corpus dedup, removal variant
    (Lee et al. 2022 ExactSubstr; C4's three-sentence span rule) — exact
    ANSI-SQL oracle (window row_number over span occurrences)."""

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    spans = docs.map_batches(_doc_spans, batch_format="pyarrow")

    n_buckets = max(4, cluster_cpus() * 8)

    def bucketize(t: pa.Table) -> pa.Table:
        import hashlib

        b = [
            int.from_bytes(
                hashlib.blake2b(g.encode(), digest_size=8).digest(), "big"
            )
            % n_buckets
            for g in t["gram"].to_pylist()
        ]
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def first_occurrence(df):
        # within one bucket: per gram keep the (doc_id, sidx)-min row;
        # vectorized sort + drop_duplicates, no per-gram Python
        kept = df.sort_values(["gram", "doc_id", "sidx"], kind="mergesort")
        kept = kept.drop_duplicates("gram")
        return pa.table(
            {
                "doc_id": pa.array(kept["doc_id"].to_numpy(), pa.int64()),
                "sidx": pa.array(kept["sidx"].to_numpy(), pa.int64()),
                "gram": pa.array(kept["gram"].tolist(), pa.string()),
            }
        )

    kept = (
        spans.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(first_occurrence, batch_format="pandas")
    )

    def reassemble(df):
        df = df.sort_values("sidx", kind="mergesort")
        return pa.table(
            {
                "doc_id": pa.array([int(df["doc_id"].iloc[0])], pa.int64()),
                "n_spans": pa.array([0], pa.int64()),
                "n_kept": pa.array([len(df)], pa.int64()),
                "text_dedup": pa.array(
                    [" ".join(df["gram"].tolist())], pa.string()
                ),
            }
        )

    rebuilt = kept.groupby("doc_id").map_groups(
        reassemble, batch_format="pandas"
    )

    def base(t: pa.Table) -> pa.Table:
        n_spans = [
            (len(_TOKEN_RE.findall(x.lower())) + _DD_W - 1) // _DD_W
            for x in t["text"].to_pylist()
        ]
        n = t.num_rows
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_spans": pa.array(n_spans, pa.int64()),
                "n_kept": pa.array(np.zeros(n, np.int64)),
                "text_dedup": pa.array([""] * n, pa.string()),
            }
        )

    def combine(df):
        # tag-union combine: the base row carries n_spans, the rebuilt row
        # (absent for fully-deduped or empty docs) carries n_kept + text
        return pa.table(
            {
                "doc_id": pa.array([int(df["doc_id"].iloc[0])], pa.int64()),
                "n_spans": pa.array([int(df["n_spans"].sum())], pa.int64()),
                "n_kept": pa.array([int(df["n_kept"].sum())], pa.int64()),
                "text_dedup": pa.array(
                    ["".join(df["text_dedup"].tolist())], pa.string()
                ),
            }
        )

    return (
        docs.map_batches(base, batch_format="pyarrow")
        .union(rebuilt)
        .groupby("doc_id")
        .map_groups(combine, batch_format="pandas")
        .sort("doc_id")
    )


# ---------------------------------------------------------------------------
# driver registration
# ---------------------------------------------------------------------------

QUERIES = {
    "q51_redact_pii": q51_redact_pii,
    "q52_boilerplate_ngrams": q52_boilerplate_ngrams,
    "q53_dup_spans": q53_dup_spans,
    "q78_span_dedup": q78_span_dedup,
}

_AUG_SQL = _augment_sql_expr()

ORACLE_SQL: dict[str, str] = {
    "q51_redact_pii": f"""
        WITH aug AS (SELECT doc_id, {_AUG_SQL} AS text FROM documents),
        s1 AS (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '{URL_RE}')) AS BIGINT)
                       AS n_urls,
                   regexp_replace(text, '{URL_RE}', '<URL>', 'g') AS text
            FROM aug
        ),
        s2 AS (
            SELECT doc_id, n_urls,
                   CAST(len(regexp_extract_all(text, '{EMAIL_RE}')) AS BIGINT)
                       AS n_emails,
                   regexp_replace(text, '{EMAIL_RE}', '<EMAIL>', 'g') AS text
            FROM s1
        ),
        s3 AS (
            SELECT doc_id, n_urls, n_emails,
                   CAST(len(regexp_extract_all(text, '{NUM_RE}')) AS BIGINT)
                       AS n_nums,
                   regexp_replace(text, '{NUM_RE}', '<NUM>', 'g') AS text
            FROM s2
        )
        SELECT doc_id, n_urls, n_emails, n_nums,
               CAST(length(text) AS BIGINT) AS n_chars_clean
        FROM s3 ORDER BY doc_id
    """,
    "q53_dup_spans": f"""
        WITH tok AS (
            SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
                '[^a-z0-9]+'), x -> x <> '') AS ts
            FROM documents
        ),
        win AS (
            SELECT doc_id, i,
                   array_to_string(list_slice(ts, i, i + {_SPAN_W} - 1), ' ')
                       AS g
            FROM (
                SELECT doc_id, ts,
                       unnest(range(1, len(ts) - {_SPAN_W} + 2)) AS i
                FROM tok WHERE len(ts) >= {_SPAN_W}
            )
        ),
        dup AS (
            SELECT g FROM win GROUP BY g
            HAVING COUNT(DISTINCT doc_id) >= 2
        ),
        hit AS (SELECT w.doc_id, w.i FROM win w JOIN dup USING (g)),
        marks AS (
            SELECT doc_id, i,
                   lag(i) OVER (PARTITION BY doc_id ORDER BY i) AS prev
            FROM hit
        ),
        cov AS (
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_dup_windows,
                   CAST(SUM(CASE WHEN prev IS NULL THEN {_SPAN_W}
                                 ELSE LEAST(i - prev, {_SPAN_W}) END)
                        AS BIGINT) AS n_covered
            FROM marks GROUP BY doc_id
        )
        SELECT t.doc_id, CAST(len(t.ts) AS BIGINT) AS n_tokens,
               CAST(COALESCE(c.n_dup_windows, 0) AS BIGINT) AS n_dup_windows,
               CAST(COALESCE(c.n_covered, 0) AS BIGINT) AS n_covered
        FROM tok t LEFT JOIN cov c USING (doc_id)
        ORDER BY t.doc_id
    """,
    "q52_boilerplate_ngrams": f"""
        WITH tok AS (
            SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
                '[^a-z0-9]+'), x -> x <> '') AS ts
            FROM documents
        ),
        th AS (
            SELECT GREATEST(CAST(ceil({_REL_DF} * COUNT(*)) AS BIGINT), 2)
                AS thresh
            FROM documents
        ),
        grams AS (
            SELECT doc_id, i,
                   array_to_string(list_slice(ts, i, i + {_GRAM_N} - 1), ' ')
                       AS g
            FROM (
                SELECT doc_id, ts,
                       unnest(range(1, len(ts) - {_GRAM_N} + 2)) AS i
                FROM tok WHERE len(ts) >= {_GRAM_N}
            )
        ),
        freq AS (
            SELECT g FROM grams CROSS JOIN th
            GROUP BY g, th.thresh
            HAVING COUNT(DISTINCT doc_id) >= th.thresh
        ),
        hitpos AS (
            SELECT DISTINCT gr.doc_id, gr.i + d.d AS pos
            FROM grams gr
            JOIN freq USING (g)
            CROSS JOIN (VALUES (0), (1), (2)) AS d(d)
        ),
        cov AS (
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_removed
            FROM hitpos GROUP BY doc_id
        )
        SELECT t.doc_id, CAST(len(t.ts) AS BIGINT) AS n_tokens,
               CAST(COALESCE(c.n_removed, 0) AS BIGINT) AS n_removed,
               CAST(len(t.ts) - COALESCE(c.n_removed, 0) AS BIGINT) AS n_kept
        FROM tok t LEFT JOIN cov c USING (doc_id)
        ORDER BY t.doc_id
    """,
    "q78_span_dedup": f"""
        WITH tok AS (
            SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
                '[^a-z0-9]+'), x -> x <> '') AS ts
            FROM documents
        ),
        spans AS (
            SELECT doc_id, s AS sidx,
                   array_to_string(
                       list_slice(ts, s * {_DD_W} + 1,
                                  LEAST((s + 1) * {_DD_W}, len(ts))),
                       ' ') AS g
            FROM (
                SELECT doc_id, ts,
                       unnest(range(0, (len(ts) + {_DD_W} - 1) // {_DD_W}))
                           AS s
                FROM tok
            )
        ),
        kept AS (
            SELECT doc_id, sidx, g,
                   row_number() OVER (
                       PARTITION BY g ORDER BY doc_id, sidx
                   ) AS rk
            FROM spans
        ),
        rebuilt AS (
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_kept,
                   string_agg(g, ' ' ORDER BY sidx) AS text_dedup
            FROM kept WHERE rk = 1 GROUP BY doc_id
        ),
        counts AS (
            SELECT doc_id,
                   CAST((len(ts) + {_DD_W} - 1) // {_DD_W} AS BIGINT)
                       AS n_spans
            FROM tok
        )
        SELECT c.doc_id, c.n_spans,
               CAST(COALESCE(r.n_kept, 0) AS BIGINT) AS n_kept,
               COALESCE(r.text_dedup, '') AS text_dedup
        FROM counts c LEFT JOIN rebuilt r USING (doc_id)
        ORDER BY c.doc_id
    """,
}
