"""Corpus-level text scoring / indexing operators over the documents table.

The training-data operators a web-scale corpus pipeline needs beyond
near-dup and per-doc stats (SURVEY §2.8 text family; reference analog: the
tsvector search path it declares out of scope, `db_init.py:214-229`,
re-expressed as distributed batch operators):

- q41 TF-IDF top terms   per-document top-k terms by df-normalized term
                         relevance — the relevance kernel behind the
                         reference's concept search, without the Postgres
                         tsvector dependency.
- q42 inverted index     term -> (df, bounded posting list). The combiner
                         caps per-(block, term) postings at k smallest
                         doc_ids, so the shuffle carries O(k) per term per
                         block, never a hot term's full posting list.
- q43 grouped centering  per-doc deviation from the per-language mean,
                         integer-scaled (dev = n_chars*n_lang - sum_lang)
                         so the output is bit-exact across engines — the
                         two-pass normalize pattern (tiny grouped aggregate
                         broadcast back over the corpus).
- sk_heavy_hitters       Misra-Gries sketch + exact recount of the
                         candidate set, with a soundness certificate. The
                         scale path for global top-k terms when the
                         vocabulary is open (per-block state capped at C
                         regardless of vocabulary size, unlike q14's
                         per-block partial-count dict which is
                         vocab-in-block-sized).

Determinism contract: every emitted column is integer or string; float
ranking scores (tf/df) are a SINGLE IEEE-754 division of two small exact
integers, identical bit-for-bit in numpy and DuckDB, with total ordering
enforced by a string tiebreak (NOTES.md invariants 2-3).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ray.data.aggregate import Count, Sum

from ..sources.tables import read_table
from ..runtime import cluster_cpus
from ..stages.topk import grouped_topk

_TOKEN_RE = re.compile(r"[a-z0-9]+")


# ---------------------------------------------------------------------------
# shared tokenization stage
# ---------------------------------------------------------------------------

def _tf_pairs(sf_dir: str):
    """(doc_id, term, tf) rows — one per distinct (document, term).

    Per-block Python loop over document strings is the tokenizer itself
    (regex over text); the emitted table is columnar from there on.
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def tok(t: pa.Table) -> pa.Table:
        doc_ids, terms, tfs = [], [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            counts: dict[str, int] = {}
            for w in _TOKEN_RE.findall(text.lower()):
                counts[w] = counts.get(w, 0) + 1
            doc_ids.extend([doc_id] * len(counts))
            terms.extend(counts.keys())
            tfs.extend(counts.values())
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    return ds.map_batches(tok, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# q41: per-document top-3 terms by tf/df relevance
# ---------------------------------------------------------------------------

def q41_tfidf_top_terms(sf_dir: str):
    """Top-3 terms per document ranked by tf/df (term frequency divided by
    document frequency — idf-monotone relevance), ties broken by term.

    Shape: tokenize -> shuffle 1 on ``term`` (df computed INSIDE each group:
    the group's row count IS the term's document frequency, no join needed)
    -> shuffle 2 on ``doc_id`` via the grouped top-k combiner (at most 3
    rows per (block, doc) survive to the shuffle). Hot-term groups are
    O(group-size) appends, not pairwise."""

    def add_df(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["df"] = np.int64(len(df))
        return out

    pairs = _tf_pairs(sf_dir).groupby("term").map_groups(
        add_df, batch_format="pandas"
    )

    def score(t: pa.Table) -> pa.Table:
        tf = t["tf"].combine_chunks().to_numpy(zero_copy_only=False)
        dfv = t["df"].combine_chunks().to_numpy(zero_copy_only=False)
        # one IEEE division of exact small ints: bit-identical in DuckDB
        return t.append_column(
            "score", pa.array(tf.astype(np.float64) / dfv, pa.float64())
        )

    top = grouped_topk(
        pairs.map_batches(score, batch_format="pyarrow"),
        group_key="doc_id",
        by=["score", "term"],
        descending=[True, False],
        k=3,
    )
    return top.select_columns(["doc_id", "term", "tf", "df"]).sort(
        ["doc_id", "term"]
    )


# ---------------------------------------------------------------------------
# q42: inverted index with bounded posting lists
# ---------------------------------------------------------------------------

_POSTINGS_K = 20


def q42_inverted_index(sf_dir: str):
    """term -> document frequency + comma-joined posting list of the
    ``_POSTINGS_K`` smallest doc_ids.

    Combiner: per (block, term) emit (partial df, min-k doc_ids). Each
    block's min-k suffices for the global min-k (min-k is a semilattice), so
    the ``term`` shuffle moves at most k ids + one count per term per block
    — a hot stopword's postings never travel in full."""

    def partial(t: pa.Table) -> pa.Table:
        terms: dict[str, list] = {}
        for doc_id, term in zip(
            t["doc_id"].to_pylist(), t["term"].to_pylist()
        ):
            terms.setdefault(term, []).append(doc_id)
        names, n_p, posts = [], [], []
        for term, ids in terms.items():
            names.append(term)
            n_p.append(len(ids))
            posts.append(sorted(ids)[:_POSTINGS_K])
        return pa.table(
            {
                "term": pa.array(names, pa.string()),
                "n_p": pa.array(n_p, pa.int64()),
                "post_p": pa.array(posts, pa.list_(pa.int64())),
            }
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []
        for part in df["post_p"]:
            ids.extend(part)
        ids = sorted(set(ids))[:_POSTINGS_K]
        return pd.DataFrame(
            {
                "term": [df["term"].iloc[0]],
                "df": np.array([df["n_p"].sum()], np.int64),
                "postings": [",".join(str(i) for i in ids)],
            }
        )

    return (
        _tf_pairs(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .map_groups(merge, batch_format="pandas")
        .sort("term")
    )


# ---------------------------------------------------------------------------
# q43: per-document deviation from the per-language mean (integer-scaled)
# ---------------------------------------------------------------------------

def q43_doc_dev(sf_dir: str):
    """dev = n_chars * n_docs(lang) - sum_chars(lang): the mean-centered
    deviation scaled by the group size so it stays in exact int64 — the
    broadcast two-pass normalization pattern (tiny per-group aggregate
    shipped once via ray.put, applied vectorized per batch). dev/n_docs
    would be the float deviation; consumers divide if they want floats."""
    import ray

    stats = (
        read_table(sf_dir, "documents", columns=["lang", "n_chars"])
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars"))
    ).take_all()  # one row per language: genuinely tiny
    by_lang = {r["lang"]: (r["n_docs"], r["sum_chars"]) for r in stats}
    ref = ray.put(by_lang)

    def apply(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        langs = t["lang"].to_pylist()
        n = np.array([m[x][0] for x in langs], np.int64)
        s = np.array([m[x][1] for x in langs], np.int64)
        chars = t["n_chars"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "n_docs": pa.array(n, pa.int64()),
                "dev": pa.array(chars.astype(np.int64) * n - s, pa.int64()),
            }
        )

    return (
        read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
        .map_batches(apply, batch_format="pyarrow")
        .sort("doc_id")
    )


# ---------------------------------------------------------------------------
# sk_heavy_hitters: Misra-Gries sketch + exact candidate recount
# ---------------------------------------------------------------------------

MG_CAPACITY = 4096
_HH_K = 20
_HH_CANDIDATES = 256


def _mg_add(counters: dict[str, int], term: str) -> None:
    """Misra-Gries update (unit weight): admit, or decrement-all at
    capacity. Every counter stays >= 1, so the decrement is always 1."""
    if term in counters:
        counters[term] += 1
        return
    if len(counters) < MG_CAPACITY:
        counters[term] = 1
        return
    dead = []
    for k in counters:
        counters[k] -= 1
        if counters[k] == 0:
            dead.append(k)
    for k in dead:
        del counters[k]


def sk_heavy_hitters(sf_dir: str):
    """Global top-20 terms with exact counts, found via a two-pass
    sketch-then-recount (the open-vocabulary scale path for q14-style
    global term ranking):

    pass 1: per-block Misra-Gries partials (state capped at ``MG_CAPACITY``
            per block, independent of vocabulary size) -> one shuffle of
            <= capacity rows per block -> approximate global counts with
            undercount <= n_tokens/capacity -> top ``_HH_CANDIDATES``
            candidate terms to the driver (bounded).
    pass 2: exact recount of candidates only (broadcast candidate set,
            per-block filtered counts, tiny shuffle) -> exact top-20.

    Soundness certificate (checked at runtime): any non-candidate term's
    true count is < approx(candidate cutoff) + n/capacity; if the exact
    20th count clears that bound, the top-20 is provably complete. If the
    certificate ever fails (adversarial flat distributions), fall back to
    the exact full groupby.
    """
    import ray

    ds = read_table(sf_dir, "documents", columns=["text"])

    def mg_partial(t: pa.Table) -> pa.Table:
        counters: dict[str, int] = {}
        n_tok = 0
        for text in t["text"].to_pylist():
            for w in _TOKEN_RE.findall(text.lower()):
                n_tok += 1
                _mg_add(counters, w)
        out = pa.table(
            {
                "term": pa.array(list(counters.keys()), pa.string()),
                "n_a": pa.array(list(counters.values()), pa.int64()),
                "n_tok": pa.array([0] * len(counters), pa.int64()),
            }
        )
        # carry the block's token count on one row (for the n/C error bound)
        if len(counters) == 0:
            return pa.table(
                {
                    "term": pa.array([""], pa.string()),
                    "n_a": pa.array([0], pa.int64()),
                    "n_tok": pa.array([n_tok], pa.int64()),
                }
            )
        col = pa.array([n_tok] + [0] * (len(counters) - 1), pa.int64())
        return out.set_column(2, "n_tok", col)

    approx = (
        ds.map_batches(mg_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n_a", alias_name="approx"), Sum("n_tok", alias_name="n_tok"))
    ).materialize()  # <= MG_CAPACITY rows per input block: the small side
    # candidate cutoff: top _HH_CANDIDATES by (approx desc, term) — small
    head = approx.sort(["approx", "term"], descending=[True, False]).limit(
        _HH_CANDIDATES + 1
    ).take_all()
    n_total = int(approx.aggregate(Sum("n_tok", alias_name="t"))["t"])
    cand = [r["term"] for r in head[:_HH_CANDIDATES] if r["term"]]
    cutoff_approx = int(head[_HH_CANDIDATES]["approx"]) if len(head) > _HH_CANDIDATES else 0
    cand_ref = ray.put(frozenset(cand))

    def recount(t: pa.Table) -> pa.Table:
        want = ray.get(cand_ref)
        counts: dict[str, int] = {}
        for text in t["text"].to_pylist():
            for w in _TOKEN_RE.findall(text.lower()):
                if w in want:
                    counts[w] = counts.get(w, 0) + 1
        return pa.table(
            {
                "term": pa.array(list(counts.keys()), pa.string()),
                "n_p": pa.array(list(counts.values()), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(recount, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n_p", alias_name="n"))
        .sort(["n", "term"], descending=[True, False])
        .limit(_HH_K)
    ).take_all()  # k rows — the result itself
    kth = rows[-1]["n"] if len(rows) >= _HH_K else 0
    err = n_total // MG_CAPACITY
    if kth <= cutoff_approx + err:
        # certificate failed: a non-candidate could outrank the 20th.
        # Exact fallback (full partial-count groupby, q14 shape).
        def full_partial(t: pa.Table) -> pa.Table:
            counts: dict[str, int] = {}
            for text in t["text"].to_pylist():
                for w in _TOKEN_RE.findall(text.lower()):
                    counts[w] = counts.get(w, 0) + 1
            return pa.table(
                {
                    "term": pa.array(list(counts.keys()), pa.string()),
                    "n_p": pa.array(list(counts.values()), pa.int64()),
                }
            )

        return (
            ds.map_batches(full_partial, batch_format="pyarrow")
            .groupby("term")
            .aggregate(Sum("n_p", alias_name="n"))
            .sort(["n", "term"], descending=[True, False])
            .limit(_HH_K)
        )
    return pa.table(
        {
            "term": pa.array([r["term"] for r in rows], pa.string()),
            "n": pa.array([r["n"] for r in rows], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# driver registration
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# q49: unigram-LM surprisal scoring (the perplexity-filter shape)
# ---------------------------------------------------------------------------

_LM_VOCAB = 2000  # broadcast top-V vocabulary; everything else scores as OOV


def q49_lm_surprisal(sf_dir: str):
    """Per-document unigram language-model surprisal — the integer-exact
    shape of CCNet-style perplexity filtering (train a cheap LM on the
    corpus, score every document, filter/bucket on the score).

    Pass 1 (train): per-block partial term counts (combiner) -> one
    vocab-keyed groupby sum -> exact top-``_LM_VOCAB`` vocabulary. The
    top-V merge is scale-safe AND exact: after the groupby each term lives
    in exactly one block, so block-local top-V (vectorized lexsort) -> a
    driver merge of at most blocks x V rows, never vocabulary-sized. The
    total token count is a Sum aggregate over the same counts dataset.

    Pass 2 (score): the (term -> surprisal) table is broadcast ONCE via
    ray.put (bounded by V, not the vocabulary) and fetched per actor; each
    batch is one dict-lookup pass. Surprisal is integer-exact so driver
    hashes are stable across engines: surprisal(t) = digits10(total //
    count(t)), OOV = digits10(total) + 1 — a log10-quantized -log p(t),
    monotone in rarity, reproducible bit-for-bit in SQL via
    length(CAST(total // cnt AS VARCHAR)).
    """
    counts = (
        _tf_pairs(sf_dir)
        .map_batches(
            lambda t: pa.table(
                {"term": t["term"], "n_p": t["tf"]}
            ),
            batch_format="pyarrow",
        )
        .groupby("term")
        .aggregate(Sum("n_p", alias_name="n"))
        .materialize()  # vocab-sized, consumed twice (total + top-V)
    )
    total = int(counts.sum("n"))

    def block_topv(t: pa.Table) -> pa.Table:
        n = t["n"].combine_chunks().to_numpy(zero_copy_only=False)
        terms = np.asarray(t["term"].to_pylist(), dtype=object)
        keep = np.lexsort((terms, -n))[:_LM_VOCAB]
        return pa.table(
            {
                "term": pa.array(terms[keep].tolist(), pa.string()),
                "n": pa.array(n[keep], pa.int64()),
            }
        )

    cand = counts.map_batches(block_topv, batch_format="pyarrow").take_all()
    cand.sort(key=lambda r: (-r["n"], r["term"]))
    vocab = {
        r["term"]: len(str(total // r["n"])) for r in cand[:_LM_VOCAB]
    }
    ref = ray.put((vocab, len(str(total)) + 1))

    class ScoreLM:
        def __init__(self, ref) -> None:
            self.w, self.oov = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            w, oov = self.w, self.oov
            n_tokens, scores = [], []
            for text in t["text"].to_pylist():
                toks = _TOKEN_RE.findall(text.lower())
                n_tokens.append(len(toks))
                scores.append(sum(w.get(tok, oov) for tok in toks))
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "n_tokens": pa.array(n_tokens, pa.int64()),
                    "lm_score": pa.array(scores, pa.int64()),
                }
            )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(
        ScoreLM,
        fn_constructor_kwargs={"ref": ref},
        batch_format="pyarrow",
        concurrency=(1, cluster_cpus()),
    ).sort("doc_id")


# ---------------------------------------------------------------------------
# q50: per-source document cap (domain cap)
# ---------------------------------------------------------------------------

_SOURCE_CAP = 10


def q50_source_cap(sf_dir: str):
    """Per-domain document cap — keep only the ``_SOURCE_CAP`` longest
    documents per source (ties by doc_id), the standard web-pipeline guard
    against a single domain dominating the training mix. Routed through the
    grouped top-k combiner so at most CAP rows per (block, source) reach the
    shuffle — hot domains cost O(CAP) per block, not their full row count."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    top = grouped_topk(
        docs,
        group_key="source",
        by=["n_chars", "doc_id"],
        descending=[True, False],
        k=_SOURCE_CAP,
    )
    return top.select_columns(["source", "doc_id", "n_chars"]).sort(
        ["source", "doc_id"]
    )


_TOK_SQL = (
    "SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text), "
    "'[^a-z0-9]+'), x -> x <> '')) AS term FROM documents"
)


# ---------------------------------------------------------------------------
# q64: keyword-in-context hit list
# ---------------------------------------------------------------------------

KWIC_TERMS = 8
KWIC_PER_TERM = 20


def q64_kwic(sf_dir: str):
    """First-occurrence positions of the top-KWIC_TERMS corpus terms (by
    total count, ties by term) — the concordance/audit view an annotation
    pipeline builds. Per term, the KWIC_PER_TERM smallest doc_ids survive.
    Position is 1-based SUBSTRING position over lower(text) (strpos
    semantics — "key" also hits "keys"; documented, mirrored exactly).
    Output: (term, doc_id, pos) sorted by (term, doc_id).

    Shape: the q14 count shuffle picks the vocabulary (tiny, broadcast in
    the task closure); the hit scan is ONE map_batches (str.find per
    (term, doc) — CHARACTER positions, matching strpos; Arrow's
    find_substring reports byte offsets and diverges on non-ASCII text);
    the per-term head uses the grouped top-k combiner (k rows per
    (block, term) through the shuffle)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from ..stages.textstats import _TOKEN_RE
    from ..stages.topk import grouped_topk

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    from ..stages.textstats import term_count_partial as count_partial

    top = (
        docs.map_batches(count_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n_p", alias_name="n"))
        .sort(["n", "term"], descending=[True, False])
        .limit(KWIC_TERMS)
        .to_pandas()
    )
    terms = list(top["term"])

    def hits(t: pa.Table) -> pa.Table:
        # str.find, not pc.find_substring: Arrow reports BYTE offsets while
        # the contract (and DuckDB strpos) is CHARACTER positions — they
        # diverge on any non-ASCII prefix, and this engine models
        # zh/fr/de/es corpora
        texts = [x.lower() for x in t["text"].to_pylist()]
        ids = t["doc_id"].to_pylist()
        out_t, out_d, out_p = [], [], []
        for term in terms:
            for did, tx in zip(ids, texts):
                p = tx.find(term)
                if p >= 0:
                    out_t.append(term)
                    out_d.append(did)
                    out_p.append(p + 1)
        return pa.table(
            {
                "term": pa.array(out_t, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
                "pos": pa.array(out_p, pa.int64()),
            }
        )

    hit_ds = docs.map_batches(hits, batch_format="pyarrow")
    return grouped_topk(
        hit_ds, "term", ["doc_id"], [False], KWIC_PER_TERM
    ).sort(["term", "doc_id"])


# ---------------------------------------------------------------------------
# q65: sparse doc-term matrix (bag-of-words training input)
# ---------------------------------------------------------------------------

DTM_V = 32


def q65_doc_term_matrix(sf_dir: str):
    """Sparse COO bag-of-words over the top-DTM_V count vocabulary:
    (doc_id, term_id, n) with term_id = rank in (count desc, term) order —
    the feature-extraction output an LDA/linear-model trainer consumes.
    Vocabulary via the q14 shuffle; the matrix pass is map-only (vocab in
    the task closure). Output sorted by (doc_id, term_id)."""
    from ray.data.aggregate import Sum

    from ..stages.textstats import _TOKEN_RE

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    from ..stages.textstats import term_count_partial as count_partial

    top = (
        docs.map_batches(count_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n_p", alias_name="n"))
        .sort(["n", "term"], descending=[True, False])
        .limit(DTM_V)
        .to_pandas()
    )
    tid = {t: i for i, t in enumerate(top["term"])}

    def rows(t: pa.Table) -> pa.Table:
        out_d, out_i, out_n = [], [], []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            counts: dict[int, int] = {}
            for tok in _TOKEN_RE.findall(text.lower()):
                j = tid.get(tok)
                if j is not None:
                    counts[j] = counts.get(j, 0) + 1
            for j in sorted(counts):
                out_d.append(did)
                out_i.append(j)
                out_n.append(counts[j])
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "term_id": pa.array(out_i, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    return docs.map_batches(rows, batch_format="pyarrow").sort(
        ["doc_id", "term_id"]
    )


# ---------------------------------------------------------------------------
# q70: BPE merge learning (tokenizer training, stage 1)
# ---------------------------------------------------------------------------


def _capped_word_counts(sf_dir: str) -> list[tuple[str, int]]:
    """Distributed trainer-state builder shared by q70 and tx_bpe_encode:
    ONE word-count shuffle, then the top-``WORD_CAP`` selection runs
    DISTRIBUTED — a per-block top-k combiner (each term lives in exactly
    one post-groupby block, so block winners are a superset of global
    winners) followed by sort+limit over the combiner survivors. The
    driver receives exactly WORD_CAP rows, never the open-web vocabulary.
    Ordering (n desc, term asc) matches bpe.cap_words bit-for-bit."""
    from ray.data.aggregate import Sum

    from ..functions.bpe import WORD_CAP
    from ..stages.textstats import term_count_partial as count_partial

    docs = read_table(sf_dir, "documents", columns=["text"])

    def block_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= WORD_CAP:
            return t
        idx = pc.sort_indices(
            t, sort_keys=[("n", "descending"), ("term", "ascending")]
        )
        return t.take(idx[:WORD_CAP])

    wc = (
        docs.map_batches(count_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n_p", alias_name="n"))
        .map_batches(block_topk, batch_format="pyarrow")
        .sort(["n", "term"], descending=[True, False])
        .limit(WORD_CAP)
        .to_pandas()  # exactly WORD_CAP rows, already in cap_words order
    )
    return list(zip(wc["term"], wc["n"].astype(int)))


def bpe_root(sf_dir: str) -> str:
    """Cache root of the persisted BPE tokenizer artifact for a corpus."""
    import os

    from ..state.artifacts import cache_root

    return cache_root("bpe", os.path.basename(os.path.normpath(sf_dir)))


def _ensure_bpe_merges(sf_dir: str) -> list[tuple[str, str, int]]:
    """Build (or reuse) the corpus-learned merge table — the tokenizer
    artifact every production pipeline persists (HF tokenizer.json's
    merges), cached through state.artifacts.ensure_artifact:
    q70_bpe_merges, tx_bpe_encode and tx_fertility all consume this ONE
    artifact instead of re-running the word-count shuffle + merge loop per
    call; a changed corpus invalidates via the source fingerprint."""
    import os

    import pyarrow.parquet as _pq

    from ..functions import bpe
    from ..functions.bpe import WORD_CAP
    from ..sources.tables import table_path
    from ..state.artifacts import ensure_artifact, source_fingerprint

    def build(tmp: str) -> None:
        merges = bpe.learn_merges(_capped_word_counts(sf_dir))
        _pq.write_table(
            pa.table(
                {
                    "rank": pa.array(range(len(merges)), pa.int64()),
                    "sym_a": pa.array([m[0] for m in merges], pa.string()),
                    "sym_b": pa.array([m[1] for m in merges], pa.string()),
                    "n": pa.array([m[2] for m in merges], pa.int64()),
                }
            ),
            os.path.join(tmp, "merges.parquet"),
        )

    root = ensure_artifact(
        bpe_root(sf_dir),
        {"v": 1, "word_cap": WORD_CAP,
         "src": source_fingerprint(table_path(sf_dir, "documents"))},
        build,
    )
    try:
        t = _pq.read_table(os.path.join(root, "merges.parquet"))
    except OSError as e:
        # layout vanished between the marker check and the read
        # (concurrent mismatched-fingerprint rebuild) — same
        # retryable-error contract as training._read_bucket
        raise FileNotFoundError(
            f"BPE artifact {root} was removed or rebuilt "
            "mid-read — re-run the query"
        ) from e
    return list(
        zip(t["sym_a"].to_pylist(), t["sym_b"].to_pylist(),
            t["n"].to_pylist())
    )


def q70_bpe_merges(sf_dir: str):
    """Learned byte-pair merges over the corpus (functions/bpe.py kernel):
    ONE distributed word-count shuffle reduces the corpus to the
    (word, count) table — the trainer's actual state, like every
    production BPE trainer — capped to WORD_CAP distributed
    (_capped_word_counts), then the deterministic merge loop runs over
    the capped table. Output: (rank, sym_a, sym_b, n) in learned order.
    Golden-file oracle: sequential word count + the SAME kernel
    (goldens._seq_bpe). Served from the persisted tokenizer artifact
    (_ensure_bpe_merges) — trained once per corpus, shared with
    tx_bpe_encode / tx_fertility."""
    merges = _ensure_bpe_merges(sf_dir)
    return pa.table(
        {
            "rank": pa.array(range(len(merges)), pa.int64()),
            "sym_a": pa.array([m[0] for m in merges], pa.string()),
            "sym_b": pa.array([m[1] for m in merges], pa.string()),
            "n": pa.array([m[2] for m in merges], pa.int64()),
        }
    )

# ---------------------------------------------------------------------------
# tx_bpe_encode: tokenizer APPLICATION (stage 2 of q70's trainer)
# ---------------------------------------------------------------------------


def _learn_corpus_merges(sf_dir: str) -> list[tuple[str, str]]:
    """q70's trainer output as just the (left, right) merge sequence,
    served from the persisted per-corpus artifact (_ensure_bpe_merges) —
    the word-count shuffle + merge loop run once per corpus, not once per
    consuming query."""
    return [(a, b) for a, b, _ in _ensure_bpe_merges(sf_dir)]


class _BpeScorer:
    """Actor-pool stage: encode every token of every document with the
    broadcast merge list. The merge table is fetched ONCE per actor; the
    word -> token-count cache is actor-lifetime (vocabulary-bounded), so a
    repeated word is encoded once per actor, not once per occurrence."""

    def __init__(self, ref) -> None:
        import ray

        from ..functions.bpe import encode_word

        self.merges = ray.get(ref)
        self._encode = encode_word
        self._cache: dict[str, int] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..stages.textstats import _TOKEN_RE

        n_words, n_bpe = [], []
        for text in t["text"].to_pylist():
            ts = _TOKEN_RE.findall(text.lower())
            total = 0
            for w in ts:
                n = self._cache.get(w)
                if n is None:
                    n = len(self._encode(w, self.merges))
                    self._cache[w] = n
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


def tx_bpe_encode(sf_dir: str):
    """Per-document token counts under the CORPUS-LEARNED BPE vocabulary —
    the tokenizer-application operator every training-data pipeline runs
    after q70's merge learning (token budgets, sequence-length planning).
    Output: (doc_id, n_words, n_bpe_tokens) sorted by doc_id.

    Shape: the trainer's one word-count shuffle, then a broadcast of the
    tiny merge list and ONE map pass over the corpus (actor pool with a
    vocabulary-bounded per-actor encode cache). Golden-file oracle
    (goldens._seq_bpe_encode — sequential word count + the same shared
    encode kernel)."""
    import ray

    merges = _learn_corpus_merges(sf_dir)
    ref = ray.put(merges)
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(
        _BpeScorer,
        fn_constructor_kwargs={"ref": ref},
        batch_format="pyarrow",
        concurrency=(1, cluster_cpus()),
    ).sort("doc_id")


class _FertilityPartials(_BpeScorer):
    """Per-block (lang, n_docs, sum_tokens, sum_chars) partials over the
    BPE-encoded corpus — the lang-grouped combiner form of _BpeScorer, so
    the shuffle carries |langs| rows per block instead of per-doc rows."""

    def __call__(self, t: pa.Table) -> pa.Table:
        enc = super().__call__(t)
        acc: dict[str, list[int]] = {}
        for lang, nc, nb in zip(
            t["lang"].to_pylist(),
            t["n_chars"].to_pylist(),
            enc["n_bpe_tokens"].to_pylist(),
        ):
            a = acc.setdefault(lang, [0, 0, 0])
            a[0] += 1
            a[1] += nb
            a[2] += nc
        ks = sorted(acc)
        return pa.table(
            {
                "lang": pa.array(ks, pa.string()),
                "nd_p": pa.array([acc[k][0] for k in ks], pa.int64()),
                "st_p": pa.array([acc[k][1] for k in ks], pa.int64()),
                "sc_p": pa.array([acc[k][2] for k in ks], pa.int64()),
            }
        )


def tx_fertility(sf_dir: str):
    """Tokenizer fertility per language: BPE tokens per character
    (ppm) under the corpus-learned vocabulary — the tokenizer-efficiency
    audit a multilingual training pipeline runs before fixing token
    budgets. ONE corpus map pass (actor-pool encode with the broadcast
    merge list) emitting lang-grouped partials, then a |langs|-row
    groupby. Oracle: golden bpe_encode table joined with documents."""
    import ray

    from ray.data.aggregate import Sum as _Sum

    merges = _learn_corpus_merges(sf_dir)
    ref = ray.put(merges)
    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text", "lang", "n_chars"]
    )

    def finish(t: pa.Table) -> pa.Table:
        st = t["sum_tokens"].to_pylist()
        sc = t["sum_chars"].to_pylist()
        return t.append_column(
            "fertility_ppm",
            pa.array(
                [1_000_000 * a // b if b else 0 for a, b in zip(st, sc)],
                pa.int64(),
            ),
        )

    return (
        docs.map_batches(
            _FertilityPartials,
            fn_constructor_kwargs={"ref": ref},
            batch_format="pyarrow",
            concurrency=(1, cluster_cpus()),
        )
        .groupby("lang")
        .aggregate(
            _Sum("nd_p", alias_name="n_docs"),
            _Sum("st_p", alias_name="sum_tokens"),
            _Sum("sc_p", alias_name="sum_chars"),
        )
        .map_batches(finish, batch_format="pyarrow")
        .sort("lang")
    )


# ---------------------------------------------------------------------------
# tx_phrase_match: positional-index phrase search — the tsquery '<->'
# followed-by retrieval shape (the one text-retrieval primitive q42's
# document-level postings cannot answer: "t1 immediately before t2").
# Shape: ONE tokenize pass emits the PROBED positional-index rows
# (term, doc_id, capped 1-based positions) for the phrase's terms only —
# exactly what a persisted positional index would hand back per query
# term — then one doc_id groupby intersects t1's positions with t2's
# shifted by one. Positions per (term, doc) are capped at PH_POS_CAP in
# BOTH the pipeline and the SQL oracle (window rank), so the comparison
# stays exact while a hot term's in-doc positions never exceed the cap.
# ---------------------------------------------------------------------------

PHRASE_TERMS = ("table", "hash")
PH_POS_CAP = 64


def tx_phrase_match(sf_dir: str):
    """Docs containing the exact phrase '{PHRASE_TERMS[0]} {PHRASE_TERMS[1]}'
    (adjacent tokens): (doc_id, n_phrase, first_pos) sorted by doc_id."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    t1, t2 = PHRASE_TERMS

    def index_rows(t: pa.Table) -> pa.Table:
        out_term, out_doc, out_pos = [], [], []
        for doc_id, text in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist()
        ):
            toks = _TOKEN_RE.findall(text.lower())
            for term in (t1, t2):
                pos = [i + 1 for i, w in enumerate(toks) if w == term]
                if pos:
                    out_term.append(term)
                    out_doc.append(doc_id)
                    out_pos.append(pos[:PH_POS_CAP])
        return pa.table(
            {
                "term": pa.array(out_term, pa.string()),
                "doc_id": pa.array(out_doc, pa.int64()),
                "positions": pa.array(out_pos, pa.list_(pa.int64())),
            }
        )

    idx = ds.map_batches(index_rows, batch_format="pyarrow")

    def intersect(df: pd.DataFrame) -> pd.DataFrame:
        by = dict(zip(df["term"], df["positions"]))
        b = set(by.get(t2, ()))
        hits = sorted(p for p in by.get(t1, ()) if p + 1 in b)
        if not hits:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_phrase": pd.Series([], dtype="int64"),
                    "first_pos": pd.Series([], dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "doc_id": np.array([df["doc_id"].iloc[0]], np.int64),
                "n_phrase": np.array([len(hits)], np.int64),
                "first_pos": np.array([hits[0]], np.int64),
            }
        )

    return (
        idx.groupby("doc_id")
        .map_groups(intersect, batch_format="pandas")
        .sort("doc_id")
    )


QUERIES = {
    "q41_tfidf_top_terms": q41_tfidf_top_terms,
    "tx_phrase_match": tx_phrase_match,
    "q42_inverted_index": q42_inverted_index,
    "q43_doc_dev": q43_doc_dev,
    "q49_lm_surprisal": q49_lm_surprisal,
    "q50_source_cap": q50_source_cap,
    "sk_heavy_hitters": sk_heavy_hitters,
    "q64_kwic": q64_kwic,
    "q65_doc_term_matrix": q65_doc_term_matrix,
    "q70_bpe_merges": q70_bpe_merges,
    "tx_bpe_encode": tx_bpe_encode,
    "tx_fertility": tx_fertility,
}

ORACLE_SQL: dict[str, str] = {
    "tx_phrase_match": f"""
        WITH lst AS (
            SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
                   '[^a-z0-9]+'), x -> x <> '') AS toks
            FROM documents
        ),
        tok AS (
            SELECT doc_id, CAST(i AS BIGINT) AS pos, toks[i] AS term
            FROM lst, LATERAL (
                SELECT unnest(generate_series(1, len(toks))) AS i
            )
        ),
        a AS (
            SELECT doc_id, pos FROM (
                SELECT doc_id, pos, row_number() OVER (
                    PARTITION BY doc_id ORDER BY pos
                ) AS rk
                FROM tok WHERE term = '{PHRASE_TERMS[0]}'
            ) WHERE rk <= {PH_POS_CAP}
        ),
        b AS (
            SELECT doc_id, pos FROM (
                SELECT doc_id, pos, row_number() OVER (
                    PARTITION BY doc_id ORDER BY pos
                ) AS rk
                FROM tok WHERE term = '{PHRASE_TERMS[1]}'
            ) WHERE rk <= {PH_POS_CAP}
        ),
        m AS (
            SELECT a.doc_id, a.pos
            FROM a JOIN b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
        )
        SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_phrase,
               CAST(MIN(pos) AS BIGINT) AS first_pos
        FROM m GROUP BY doc_id ORDER BY doc_id
    """,
    "q41_tfidf_top_terms": f"""
        WITH tok AS ({_TOK_SQL}),
        tf AS (
            SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
            FROM tok GROUP BY doc_id, term
        ),
        df AS (
            SELECT term, CAST(COUNT(*) AS BIGINT) AS df
            FROM tf GROUP BY term
        ),
        ranked AS (
            SELECT tf.doc_id, tf.term, tf.tf, df.df,
                   row_number() OVER (
                       PARTITION BY tf.doc_id
                       ORDER BY CAST(tf.tf AS DOUBLE) / df.df DESC, tf.term
                   ) AS rk
            FROM tf JOIN df USING (term)
        )
        SELECT doc_id, term, tf, df FROM ranked WHERE rk <= 3
        ORDER BY doc_id, term
    """,
    "q42_inverted_index": f"""
        WITH tok AS ({_TOK_SQL}),
        pairs AS (SELECT DISTINCT doc_id, term FROM tok),
        df AS (
            SELECT term, CAST(COUNT(*) AS BIGINT) AS df
            FROM pairs GROUP BY term
        ),
        top AS (
            SELECT term, doc_id,
                   row_number() OVER (PARTITION BY term ORDER BY doc_id) AS rk
            FROM pairs
        )
        SELECT t.term, df.df,
               string_agg(CAST(t.doc_id AS VARCHAR), ',' ORDER BY t.doc_id)
                   AS postings
        FROM top t JOIN df USING (term)
        WHERE t.rk <= {_POSTINGS_K}
        GROUP BY t.term, df.df
        ORDER BY t.term
    """,
    "q43_doc_dev": """
        SELECT doc_id, lang,
               CAST(COUNT(*) OVER (PARTITION BY lang) AS BIGINT) AS n_docs,
               CAST(n_chars * COUNT(*) OVER (PARTITION BY lang)
                    - SUM(n_chars) OVER (PARTITION BY lang) AS BIGINT) AS dev
        FROM documents
        ORDER BY doc_id
    """,
    "q49_lm_surprisal": f"""
        WITH tok AS ({_TOK_SQL}),
        cnt AS (
            SELECT term, CAST(COUNT(*) AS BIGINT) AS cnt FROM tok GROUP BY term
        ),
        tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS total FROM tok),
        vocab AS (
            SELECT term, cnt FROM (
                SELECT term, cnt,
                       row_number() OVER (ORDER BY cnt DESC, term) AS rk
                FROM cnt
            ) WHERE rk <= {_LM_VOCAB}
        ),
        per_tok AS (
            SELECT t.doc_id,
                   CASE WHEN v.term IS NULL
                        THEN length(CAST(tot.total AS VARCHAR)) + 1
                        ELSE length(CAST((tot.total // v.cnt) AS VARCHAR))
                   END AS s
            FROM tok t CROSS JOIN tot LEFT JOIN vocab v USING (term)
        ),
        agg AS (
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(s) AS BIGINT) AS lm_score
            FROM per_tok GROUP BY doc_id
        )
        SELECT d.doc_id, CAST(COALESCE(a.n_tokens, 0) AS BIGINT) AS n_tokens,
               CAST(COALESCE(a.lm_score, 0) AS BIGINT) AS lm_score
        FROM documents d LEFT JOIN agg a USING (doc_id)
        ORDER BY d.doc_id
    """,
    "q50_source_cap": f"""
        SELECT source, doc_id, n_chars FROM (
            SELECT source, doc_id, n_chars,
                   row_number() OVER (
                       PARTITION BY source ORDER BY n_chars DESC, doc_id
                   ) AS rk
            FROM documents
        ) WHERE rk <= {_SOURCE_CAP}
        ORDER BY source, doc_id
    """,
    "sk_heavy_hitters": f"""
        SELECT term, CAST(COUNT(*) AS BIGINT) AS n FROM (
            SELECT unnest(list_filter(
                regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '')) AS term
            FROM documents)
        GROUP BY term ORDER BY n DESC, term LIMIT {_HH_K}
    """,
    "q64_kwic": f"""
        WITH counts AS (
            SELECT term, CAST(COUNT(*) AS BIGINT) AS n FROM ({_TOK_SQL})
            GROUP BY term
        ),
        top AS (
            SELECT term FROM counts ORDER BY n DESC, term LIMIT {KWIC_TERMS}
        ),
        hits AS (
            SELECT t.term, d.doc_id,
                   CAST(strpos(lower(d.text), t.term) AS BIGINT) AS pos
            FROM documents d CROSS JOIN top t
            WHERE strpos(lower(d.text), t.term) > 0
        )
        SELECT term, doc_id, pos FROM hits
        QUALIFY row_number() OVER (PARTITION BY term ORDER BY doc_id)
                <= {KWIC_PER_TERM}
        ORDER BY term, doc_id
    """,
    "q65_doc_term_matrix": f"""
        WITH counts AS (
            SELECT term, CAST(COUNT(*) AS BIGINT) AS n FROM ({_TOK_SQL})
            GROUP BY term
        ),
        vocab AS (
            SELECT term,
                   CAST(row_number() OVER (ORDER BY n DESC, term) - 1
                        AS BIGINT) AS term_id
            FROM counts ORDER BY n DESC, term LIMIT {DTM_V}
        )
        SELECT e.doc_id, v.term_id, CAST(COUNT(*) AS BIGINT) AS n
        FROM ({_TOK_SQL}) e
        JOIN vocab v ON v.term = e.term
        GROUP BY e.doc_id, v.term_id
        ORDER BY e.doc_id, v.term_id
    """,
}


# ---------------------------------------------------------------------------
# q87: bigram LM surprisal — q49's integer-exact perplexity-filter shape
# lifted to adjacent-token bigrams (order-sensitive context, one notch of
# real LM-ness up from the unigram model; same broadcast-top-V scale story)
# ---------------------------------------------------------------------------

def q87_bigram_surprisal(sf_dir: str):
    """Per-document bigram surprisal: train corpus-wide adjacent-pair
    counts (per-block partials -> one groupby), broadcast the exact top-V
    bigram table once, score each document in one map pass.
    surprisal(b) = digits10(total_bigrams // count(b)), OOV =
    digits10(total_bigrams) + 1 — identical quantization to q49 so both
    scores are driver-hash-stable."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def pair_partials(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for text in t["text"].to_pylist():
            toks = _TOKEN_RE.findall(text.lower())
            for i in range(len(toks) - 1):
                b = toks[i] + " " + toks[i + 1]
                counts[b] = counts.get(b, 0) + 1
        return pa.table(
            {
                "term": pa.array(list(counts.keys()), pa.string()),
                "n_p": pa.array(list(counts.values()), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(pair_partials, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n_p", alias_name="n"))
        .materialize()  # bigram-vocab-sized, consumed twice (total + top-V)
    )
    total = int(counts.sum("n"))

    def block_topv(t: pa.Table) -> pa.Table:
        n = t["n"].combine_chunks().to_numpy(zero_copy_only=False)
        terms = np.asarray(t["term"].to_pylist(), dtype=object)
        keep = np.lexsort((terms, -n))[:_LM_VOCAB]
        return pa.table(
            {
                "term": pa.array(terms[keep].tolist(), pa.string()),
                "n": pa.array(n[keep], pa.int64()),
            }
        )

    cand = counts.map_batches(block_topv, batch_format="pyarrow").take_all()
    cand.sort(key=lambda r: (-r["n"], r["term"]))
    vocab = {r["term"]: len(str(total // r["n"])) for r in cand[:_LM_VOCAB]}
    ref = ray.put((vocab, len(str(total)) + 1))

    class ScoreBigram:
        def __init__(self, ref) -> None:
            self.w, self.oov = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            w, oov = self.w, self.oov
            n_bi, scores = [], []
            for text in t["text"].to_pylist():
                toks = _TOKEN_RE.findall(text.lower())
                s = 0
                for i in range(len(toks) - 1):
                    s += w.get(toks[i] + " " + toks[i + 1], oov)
                n_bi.append(max(0, len(toks) - 1))
                scores.append(s)
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "n_bigrams": pa.array(n_bi, pa.int64()),
                    "lm2_score": pa.array(scores, pa.int64()),
                }
            )

    return ds.map_batches(
        ScoreBigram,
        fn_constructor_kwargs={"ref": ref},
        batch_format="pyarrow",
        concurrency=(2, 8),
    ).sort("doc_id")


QUERIES["q87_bigram_surprisal"] = q87_bigram_surprisal

ORACLE_SQL["q87_bigram_surprisal"] = f"""
    WITH words AS (
        SELECT doc_id,
               list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                           x -> x <> '') AS w
        FROM documents
    ),
    bi AS (
        SELECT doc_id, w[g] || ' ' || w[g+1] AS term
        FROM words, UNNEST(generate_series(1, greatest(0, len(w) - 1))) AS t(g)
    ),
    cnt AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS cnt FROM bi GROUP BY term),
    tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS total FROM bi),
    vocab AS (
        SELECT term, cnt FROM (
            SELECT term, cnt,
                   row_number() OVER (ORDER BY cnt DESC, term) AS rk
            FROM cnt
        ) WHERE rk <= {_LM_VOCAB}
    ),
    per_bi AS (
        SELECT b.doc_id,
               CASE WHEN v.term IS NULL
                    THEN length(CAST(tot.total AS VARCHAR)) + 1
                    ELSE length(CAST((tot.total // v.cnt) AS VARCHAR))
               END AS s
        FROM bi b CROSS JOIN tot LEFT JOIN vocab v USING (term)
    ),
    agg AS (
        SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
               CAST(SUM(s) AS BIGINT) AS lm2_score
        FROM per_bi GROUP BY doc_id
    )
    SELECT d.doc_id, CAST(COALESCE(a.n_bigrams, 0) AS BIGINT) AS n_bigrams,
           CAST(COALESCE(a.lm2_score, 0) AS BIGINT) AS lm2_score
    FROM documents d LEFT JOIN agg a USING (doc_id)
    ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# q89: BM25 top-k retrieval, integer-exact (Robertson/Sparck-Jones BM25 with
# k1 = 6/5, b = 3/4 — the standard constants as exact rationals, and the
# digits10-quantized idf from q49, so every score is a BIGINT both here and
# in the SQL oracle).
#
# With N docs, T total tokens, df(t) docs containing t, tf term frequency
# and dl document length:
#     tf-part  = tf*(k1+1) / (tf + k1*(1-b) + k1*b*dl*N/T)
#              = 22*T*tf   / (10*T*tf + 3*T + 9*dl*N)          (exact ints)
#     idf_q(t) = digits10((2N + 1) // (2*df + 1))              (monotone)
#     score    = sum over query terms of idf_q * tf_part_ppm
#
# Shape: corpus stats (N, T, df of the 3 query terms) from two tiny
# aggregates, broadcast as plain ints; ONE scoring map pass; per-block
# top-k combiner rows -> driver merge of blocks*k rows (the ann_brute
# pattern). Nothing vocabulary- or corpus-sized moves.
# ---------------------------------------------------------------------------

BM25_QUERY = ("data", "model", "training")
BM25_K = 20


def q89_bm25_topk(sf_dir: str):
    """Top-{BM25_K} documents for the fixed query {BM25_QUERY} by
    integer-exact BM25, ties broken by doc_id asc."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    qterms = list(BM25_QUERY)

    def stats_partial(t: pa.Table) -> pa.Table:
        n, tok = 0, 0
        dfp = {q: 0 for q in qterms}
        for text in t["text"].to_pylist():
            toks = _TOKEN_RE.findall(text.lower())
            n += 1
            tok += len(toks)
            s = set(toks)
            for q in qterms:
                if q in s:
                    dfp[q] += 1
        return pa.table(
            {
                "n_p": pa.array([n], pa.int64()),
                "tok_p": pa.array([tok], pa.int64()),
                **{
                    f"df_{i}_p": pa.array([dfp[q]], pa.int64())
                    for i, q in enumerate(qterms)
                },
            }
        )

    stats = docs.map_batches(stats_partial, batch_format="pyarrow").sum(
        ["n_p", "tok_p"] + [f"df_{i}_p" for i in range(len(qterms))]
    )
    N = int(stats["sum(n_p)"])
    T = int(stats["sum(tok_p)"])
    idf = {
        q: len(str((2 * N + 1) // (2 * int(stats[f"sum(df_{i}_p)"]) + 1)))
        for i, q in enumerate(qterms)
    }
    ref = ray.put((idf, T, N))

    def score_topk(t: pa.Table, _ref=ref) -> pa.Table:
        idf_, T_, N_ = ray.get(_ref) if hasattr(_ref, "hex") else _ref
        ids, scores = [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = _TOKEN_RE.findall(text.lower())
            dl = len(toks)
            s = 0
            for q, w in idf_.items():
                tf = toks.count(q)
                if tf:
                    part = (1_000_000 * 22 * T_ * tf) // (
                        10 * T_ * tf + 3 * T_ + 9 * dl * N_
                    )
                    s += w * part
            if s > 0:
                ids.append(doc_id)
                scores.append(s)
        # per-block top-k combiner: only k rows per block survive
        order = np.lexsort((np.array(ids), -np.array(scores)))[:BM25_K] if ids else []
        return pa.table(
            {
                "doc_id": pa.array([ids[i] for i in order], pa.int64()),
                "bm25_ppm": pa.array([scores[i] for i in order], pa.int64()),
            }
        )

    cand = docs.map_batches(score_topk, batch_format="pyarrow").take_all()
    cand.sort(key=lambda r: (-r["bm25_ppm"], r["doc_id"]))
    top = cand[:BM25_K]
    return pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in top], pa.int64()),
            "bm25_ppm": pa.array([r["bm25_ppm"] for r in top], pa.int64()),
        }
    )


QUERIES["q89_bm25_topk"] = q89_bm25_topk

_BM25_TERMS_SQL = ", ".join(f"'{q}'" for q in BM25_QUERY)

ORACLE_SQL["q89_bm25_topk"] = f"""
    WITH tok AS ({_TOK_SQL}),
    n AS (SELECT CAST(COUNT(*) AS BIGINT) AS nd FROM documents),
    t AS (SELECT CAST(COUNT(*) AS BIGINT) AS tt FROM tok),
    dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dlen
           FROM tok GROUP BY doc_id),
    tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
           FROM tok WHERE term IN ({_BM25_TERMS_SQL})
           GROUP BY doc_id, term),
    df AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY term),
    scored AS (
        SELECT tf.doc_id,
               CAST(SUM(
                   length(CAST((2 * n.nd + 1) // (2 * df.df + 1) AS VARCHAR))
                   * ((1000000 * 22 * t.tt * tf.tf)
                      // (10 * t.tt * tf.tf + 3 * t.tt + 9 * dl.dlen * n.nd))
               ) AS BIGINT) AS bm25_ppm
        FROM tf
        JOIN df USING (term) JOIN dl USING (doc_id)
        CROSS JOIN n CROSS JOIN t
        GROUP BY tf.doc_id
    )
    SELECT doc_id, bm25_ppm FROM scored
    WHERE bm25_ppm > 0
    ORDER BY bm25_ppm DESC, doc_id LIMIT {BM25_K}
"""


# ---------------------------------------------------------------------------
# tx_freq_spectrum: frequency-of-frequencies (the Good-Turing N_f table,
# Good 1953) — for every corpus frequency f, how many distinct terms occur
# exactly f times. The table smoothing estimators and vocabulary-size
# decisions read; also the quickest corpus-health fingerprint (a healthy
# Zipfian corpus has monotonically falling N_f at small f).
# ---------------------------------------------------------------------------


def tx_freq_spectrum(sf_dir: str):
    """Shape: per-block partial term counts (the q14 combiner) -> ONE
    term-keyed groupby (the only vocabulary-sized shuffle, terms + one int)
    -> per-block bincount partials over f -> a tiny f-keyed groupby
    (distinct-frequency-sized, O(sqrt(total tokens)) rows by Zipf).
    Output: (f, n_terms) ascending; integer-only."""
    from .analytics import _TOKEN_RE

    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for text in t["text"].to_pylist():
            for tok in _TOKEN_RE.findall(text.lower()):
                counts[tok] = counts.get(tok, 0) + 1
        return pa.table(
            {
                "term": pa.array(list(counts.keys()), pa.string()),
                "n_p": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def spectrum_partial(t: pa.Table) -> pa.Table:
        f: dict[int, int] = {}
        for n in t["n"].to_pylist():
            f[n] = f.get(n, 0) + 1
        return pa.table(
            {
                "f": pa.array(list(f.keys()), pa.int64()),
                "nt": pa.array(list(f.values()), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n_p", alias_name="n"))
        .map_batches(spectrum_partial, batch_format="pyarrow")
        .groupby("f")
        .aggregate(Sum("nt", alias_name="n_terms"))
        .sort("f")
    )


QUERIES["tx_freq_spectrum"] = tx_freq_spectrum

ORACLE_SQL["tx_freq_spectrum"] = f"""
    WITH tc AS (
        SELECT term, CAST(COUNT(*) AS BIGINT) AS f FROM ({_TOK_SQL})
        GROUP BY term
    )
    SELECT f, CAST(COUNT(*) AS BIGINT) AS n_terms
    FROM tc GROUP BY f ORDER BY f
"""
