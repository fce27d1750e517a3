"""The knowledge-graph construction pipeline (SURVEY.md §7.2 stage graph).

Two phases:

**Phase A — resumable extraction** (the expensive per-document work;
reference analog: ingestion + entity extraction, SURVEY.md §3.1-3.2):
input Parquet files are grouped into lineage chunks; pending chunks (resume
anti-join against manifests, ``state/manifest.py``) run as ONE fused
streaming execution per commit group:

    read_parquet(pending files, include_paths=True)
      -> map_batches(extract_text_batch)      [drops html; path -> chunk tag]
      -> map_batches(extract_records_batch)   [NER+SVO+linking+confidence;
                                               broadcast alias dict cached
                                               per worker; per-page edge
                                               dedup + mcount partials]
      -> write_parquet(partition_cols=["chunk", "kind"])
           kind in {page(text artifact) | mention | triple | mcount}

Everything between read and write is ONE fused task operator (per-chunk
dataset unions or actor-pool stages fragment fusion and halve throughput —
measured); per-chunk lineage comes from the file-path column. Chunk dirs are
promoted atomically BEFORE their manifest commits, so a manifest implies
complete output and re-runs are idempotent (reference: skip-if-done +
extraction_logs anti-join, ``extract_and_populate.py:171-175``,
``database.ts:66-81``). ``cfg.use_actor_pool`` switches the extraction stage
to a ``TripleExtractor`` actor pool — the right shape when per-worker state
is an expensive model load rather than a broadcast dict.

**Phase B — global canonicalization + materialization, idempotent
overwrite** (reference analog: concept upserts + validation, §3.2-3.4):

    mcount partials -> merge (driver pandas when small; Ray groupby when
      the chunks x vocabulary partial volume is large — auto-selected)
      -> union-find over alias edges -> nodes + id map (broadcast)
    triples -> map_batches(apply_ids_batch)   [broadcast id map, cached]
            -> map_batches(validate_edges_batch)  [vectorized rules]
            -> sort(packed single key)        [the ONE corpus-sized shuffle]
            -> write_datasink(_IssueSink)     [per write task: the sorted
                                               block -> edges/<task>.parquet,
                                               edge_issues_batch on the same
                                               block -> validation/issues/,
                                               (severity, rule) counts back]
    entity issues (driver, or the open-vocab nodes write tasks) + the
    summed counts -> validation-results.json. edges/ is never read back.

Scale notes: edge dedup happens at source (per page, canonical key known
from the alias dict), mention counting is pre-aggregated at extraction time,
so the only corpus-sized all-to-all is the final materialization sort. The
html column never leaves phase A's first stage. The alias dictionary and the
id map are broadcast via ``ray.put`` once and fetched once per worker.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
from collections import Counter
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..stages.canonicalize import (
    apply_ids_batch,
    build_entity_table,
    dedup_edges_batch,
    partial_mention_counts,
)
from ..stages.extract import extract_text_batch
from ..stages.triples import TripleExtractor, extract_records_batch
from ..stages.validate import (
    edge_issues_batch,
    issue_count_batch,
    summarize_issues,
    validate_edges_batch,
    validate_nodes_table,
)
from ..state import manifest as mf
from .. import synth


@dataclass
class KGConfig:
    pages_dir: str
    out_dir: str
    chunk_files: int = 8          # input files per resumable chunk
    batch_size: int = 256         # pages per extraction batch
    extract_concurrency: int | None = None  # actor pool size (None -> auto tasks)
    lang_allow: frozenset[str] | None = None
    alias: dict[str, tuple[str, str]] | None = None  # norm alias -> (canonical, type)
    resume: bool = True
    max_chunks: int | None = None  # process at most this many pending chunks
                                   # (used by the kill/resume test)
    commit_group: int | None = None  # chunks per streaming execution; None =
                                     # all pending in one execution (lowest
                                     # overhead; per-chunk manifests still
                                     # written). Small values = finer crash
                                     # recovery at more per-execution cost.
    global_edge_dedup: bool = False  # add an exact global dedup shuffle for
                                     # corpora where the same url can recur
                                     # (re-crawls); per-page dedup at source
                                     # already covers unique-url corpora
    use_actor_pool: bool = False     # True = TripleExtractor actor pool (the
                                     # right shape for expensive per-worker
                                     # model state); False = stateless tasks
                                     # with the broadcast dict cached per
                                     # worker process (faster when state is
                                     # just the object-store alias dict)
    distributed_counts: bool | None = None  # phase-B mention-count merge:
                                     # None = auto (Ray groupby when the
                                     # mcount partial rows exceed
                                     # PANDAS_MCOUNT_MAX_ROWS — the
                                     # open-vocabulary web-text case — else
                                     # driver pandas merge); True/False
                                     # force a path
    open_vocab: bool = False         # True = fully open-vocabulary phase B
                                     # (pipelines/openvocab.py): only
                                     # alias-relevant surfaces reach the
                                     # driver; singleton nodes, id
                                     # assignment and edge id application
                                     # all run distributed (join, not
                                     # broadcast map). Same outputs as the
                                     # default path (tests assert parity);
                                     # use for corpora whose surface
                                     # vocabulary does not fit one heap
    hot_map_cap: int = 100_000       # open-vocab only: broadcast the top-K
                                     # nodes by mention_count as a FIXED-size
                                     # hot map; triple rows whose norms all
                                     # hit it resolve without a shuffle (the
                                     # Zipf head = the bulk of occurrences),
                                     # only tail rows pay the lookup join.
                                     # 0 disables (pure join path)
    record_dirs: tuple[str, ...] | None = None  # phase-B record sources:
                                     # None = this run's own extracted dir;
                                     # a tuple = the UNION of several runs'
                                     # phase-A artifacts (merge_runs - the
                                     # incremental-crawl upsert analog).
                                     # Assumes disjoint url sets across the
                                     # merged runs (same D4 invariant as
                                     # within one corpus; re-crawled urls
                                     # need global_edge_dedup=True)
    skip_bad_files: bool = False     # True = QUARANTINE unreadable input
                                     # files (truncated / corrupt parquet
                                     # footers — the crash-mid-upload case
                                     # a 10^12-doc crawl WILL contain)
                                     # instead of failing the run: bad
                                     # files are excluded from the read and
                                     # recorded per chunk in the manifest
                                     # ("quarantined"). Footer/metadata
                                     # probe only — mid-file data-page
                                     # corruption still fails the task (and
                                     # retries). Default False: fail loud.

    def alias_dict(self) -> dict[str, tuple[str, str]]:
        return self.alias if self.alias is not None else synth.alias_dict()

    @functools.cached_property
    def _semantic_fp(self) -> str:
        # computed once per config: a KGConfig describes one run, and its
        # fields do not change once it is used
        return _semantic_fingerprint(self)


@ray.remote(num_cpus=0.25)
def _probe_parquet(path: str) -> bool:
    """True iff the file's parquet footer/metadata parses — the quarantine
    probe for cfg.skip_bad_files (cheap: footer only, no data pages)."""
    try:
        pq.read_metadata(path)
        return True
    except Exception:
        return False


def plan_chunks(pages_dir: str, chunk_files: int) -> list[list[str]]:
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet files under {pages_dir}")
    return [files[i : i + chunk_files] for i in range(0, len(files), chunk_files)]


def _records_dir(out: str, cid: int) -> str:
    return os.path.join(out, "extracted", f"chunk={cid:05d}")


def _add_sort_key(t: pa.Table) -> pa.Table:
    """Packed single-column sort key equivalent to the
    (subj_id, pred, obj_id, url) tuple order (see run_phase_b). Ids are
    0-padded to 19 digits — the full int64 width — so the bytewise order
    matches numeric order at ANY id cardinality (8-digit padding silently
    broke past 100M entities). The only negative id is the -1 unknown
    sentinel, which pads to a '-'-prefixed key sorting before every
    0-padded nonnegative id, preserving tuple order.

    The key MUST stay a STRING column: a compact fixed-width binary
    encoding (8-byte big-endian ids) measured ~10% faster but Ray 2.49's
    range-partitioned sort silently MIS-SORTS binary keys — the output
    came back grouped, not globally ordered (caught by
    test_graph_invariants and the openvocab byte-parity tests; verified
    with a standalone repro). Do not retry without a sortedness assert."""
    import pyarrow.compute as pc

    s = pa.string()
    k = pc.binary_join_element_wise(
        pc.utf8_lpad(pc.cast(t["subj_id"], s), 19, padding="0"),
        pc.cast(t["pred"], s),
        pc.utf8_lpad(pc.cast(t["obj_id"], s), 19, padding="0"),
        pc.cast(t["url"], s),
        pa.scalar("\x00", s),
    )
    return t.append_column("skey", k)


def _cluster_cpus() -> int:
    from ..runtime import cluster_cpus

    return cluster_cpus()


LAYOUT_VERSION = "7"  # v7: synth v4 corpus (lowercase anchor text)


def _config_fingerprint(cfg: "KGConfig") -> str:
    """Fingerprint of everything that determines phase-A output semantics
    AND the chunk plan: layout version, lang filter, alias dict, chunk_files
    and the exact input file list WITH sizes/mtimes. Changing ANY of these
    invalidates cached artifacts — resume matches chunks by id, so a
    reshaped plan (different chunk_files, added/removed input files) must
    never be anti-joined against manifests from the old plan, and a
    regenerated corpus at the same path (same basenames, new content) must
    rebuild rather than reuse a completed run of the old content."""
    import hashlib

    files = sorted(glob.glob(os.path.join(cfg.pages_dir, "*.parquet")))
    ident = []
    for f in files:
        st = os.stat(f)
        ident.append((os.path.basename(f), st.st_size, st.st_mtime_ns))
    return hashlib.sha1(
        repr((cfg._semantic_fp, tuple(ident))).encode()
    ).hexdigest()


def _semantic_fingerprint(cfg: "KGConfig") -> str:
    """Fingerprint of extraction SEMANTICS alone (no input file list):
    when this part matches, per-chunk artifacts from a previous run remain
    valid for every chunk whose file list is unchanged — the append-only
    crawl increment keeps its finished chunks. Callers read it through
    ``cfg._semantic_fp``, which computes it once per config."""
    import hashlib

    alias = cfg.alias_dict()
    return hashlib.sha1(
        repr(
            (
                LAYOUT_VERSION,
                sorted(cfg.lang_allow) if cfg.lang_allow else None,
                len(alias),
                hashlib.sha1(
                    "\x00".join(
                        f"{k}\x01{v[0]}\x01{v[1]}" for k, v in sorted(alias.items())
                    ).encode()
                ).hexdigest(),
                cfg.chunk_files,
            )
        ).encode()
    ).hexdigest()


# Everything the pipeline itself writes under out_dir — the ONLY names
# _check_layout is allowed to delete on a layout/config change.
_PIPELINE_ARTIFACTS = frozenset(
    {"extracted", "nodes", "edges", "validation", "_manifests",
     "nodes_summary.csv", "validation-results.json", "_LAYOUT", "_COMPLETE"}
)


def _is_pipeline_artifact(name: str) -> bool:
    return (
        name in _PIPELINE_ARTIFACTS
        or name.endswith(".tmp")
        or name.startswith(".group-")
    )


def _check_layout(out_dir: str, cfg: "KGConfig") -> None:
    """Wipe output written under an older layout, a different extraction
    config, or a different chunk plan, so resume never silently reuses or
    misaligns artifacts produced under other semantics.

    Deletes ONLY known pipeline artifacts. A non-empty directory that holds
    anything else and carries no _LAYOUT marker is refused outright —
    pointing --out at a pre-existing data/home directory must never destroy
    its contents."""
    import shutil

    import json

    fp = _config_fingerprint(cfg)
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "_LAYOUT")
    current = open(marker).read() if os.path.exists(marker) else None
    # per-file identity is (basename, size, mtime_ns), NOT basename alone:
    # a regenerated corpus reusing the same shard names must invalidate
    # the chunks it feeds, or resume would keep stale extracted text and
    # rebuild phase B from it
    files = []
    for f in sorted(glob.glob(os.path.join(cfg.pages_dir, "*.parquet"))):
        st = os.stat(f)
        files.append([os.path.basename(f), st.st_size, st.st_mtime_ns])
    payload = json.dumps(
        {"fp": fp, "sem": cfg._semantic_fp, "files": files},
        sort_keys=True,
    )
    try:
        cur = json.loads(current) if current else None
    except ValueError:
        cur = None  # pre-JSON marker: treat as a layout change
    if cur is not None and cur.get("fp") == fp:
        return

    if (
        cur is not None
        and cur.get("sem") == cfg._semantic_fp
        and isinstance(cur.get("files"), list)
    ):
        # same semantics, different input file list: invalidate ONLY the
        # chunks whose file lists changed — an append-only crawl increment
        # (new files sorting after the old, old count a multiple of
        # chunk_files) keeps every finished chunk and processes just the
        # new ones. Phase B always rebuilds from the per-chunk records.
        old_chunks = [
            cur["files"][i : i + cfg.chunk_files]
            for i in range(0, len(cur["files"]), cfg.chunk_files)
        ]
        new_chunks = [
            files[i : i + cfg.chunk_files]
            for i in range(0, len(files), cfg.chunk_files)
        ]
        for cid in range(max(len(old_chunks), len(new_chunks))):
            same = (
                cid < len(old_chunks)
                and cid < len(new_chunks)
                and old_chunks[cid] == new_chunks[cid]
            )
            if not same:
                mp = mf.manifest_path(out_dir, cid)
                if os.path.exists(mp):
                    os.remove(mp)
                shutil.rmtree(_records_dir(out_dir, cid), ignore_errors=True)
        # phase-B outputs derive from the full chunk set: force a rebuild
        for name in ("_COMPLETE",):
            p = os.path.join(out_dir, name)
            if os.path.exists(p):
                os.remove(p)
        with open(marker, "w") as f:
            f.write(payload)
        return

    entries = os.listdir(out_dir)
    foreign = [n for n in entries if not _is_pipeline_artifact(n)]
    if current is None and foreign:
        raise ValueError(
            f"refusing to use {out_dir!r} as the pipeline output directory: "
            f"it is non-empty, has no _LAYOUT marker, and contains "
            f"non-pipeline entries {sorted(foreign)[:5]!r}; choose an empty "
            f"or pipeline-owned directory"
        )
    for name in entries:
        if not _is_pipeline_artifact(name):
            continue  # never touch foreign files even on layout change
        p = os.path.join(out_dir, name)
        if os.path.isdir(p):
            shutil.rmtree(p, ignore_errors=True)
        else:
            os.remove(p)
    with open(marker, "w") as f:
        f.write(payload)


def run_phase_a(cfg: KGConfig) -> dict:
    """Per-chunk extract + link; returns metrics."""
    _check_layout(cfg.out_dir, cfg)
    chunks = plan_chunks(cfg.pages_dir, cfg.chunk_files)
    planned = list(range(len(chunks)))
    pending = mf.pending_chunks(cfg.out_dir, planned) if cfg.resume else planned
    if cfg.max_chunks is not None:
        pending = pending[: cfg.max_chunks]

    alias_ref = ray.put(cfg.alias_dict())
    cpus = _cluster_cpus()
    # Only used when cfg.use_actor_pool: a fixed-size pool (autoscaling from
    # a small min never ramps up within short runs) that leaves CPUs for the
    # read/write stages — a pool reserving every CPU starves the rest of the
    # pipeline and it serializes.
    pool_max = max(1, cpus - 2)
    extract_pool = cfg.extract_concurrency or pool_max
    t0 = time.perf_counter()
    n_pages = 0

    # Pending chunks are processed in commit groups. Each group is ONE
    # streaming Dataset execution (one actor-pool spin-up, one write) whose
    # output is hive-partitioned by chunk id, then promoted chunk-by-chunk
    # with a manifest each — so resume granularity stays per-chunk across
    # runs while execution overhead is per-group. cfg.commit_group trades
    # crash-recovery granularity against per-execution fixed cost.
    group_size = cfg.commit_group or len(pending) or 1
    for g in range(0, len(pending), group_size):
        group = pending[g : g + group_size]
        tstart = time.perf_counter()
        group_tmp = os.path.join(cfg.out_dir, f".group-{group[0]:05d}.tmp")
        mf.clear_stale_tmp(group_tmp)
        os.makedirs(group_tmp, exist_ok=True)

        # one read over every file in the group; per-row lineage comes from
        # the file path (tiny path->chunk dict shipped by value), so the
        # whole chain stays ONE fused task operator (per-chunk dataset
        # unions fragment fusion and halve throughput — measured).
        path_to_chunk = {
            os.path.abspath(f): f"{cid:05d}" for cid in group for f in chunks[cid]
        }
        group_files = [f for cid in group for f in chunks[cid]]
        quarantined: dict[int, list[str]] = {cid: [] for cid in group}
        if cfg.skip_bad_files:
            probes = ray.get(
                [_probe_parquet.remote(f) for f in group_files]
            )
            bad = {f for f, ok in zip(group_files, probes) if not ok}
            if bad:
                for cid in group:
                    quarantined[cid] = sorted(
                        os.path.basename(f) for f in chunks[cid] if f in bad
                    )
                group_files = [f for f in group_files if f not in bad]
                path_to_chunk = {
                    p: c
                    for p, c in path_to_chunk.items()
                    if p not in {os.path.abspath(f) for f in bad}
                }
        if not group_files:
            # every file in the group quarantined (crash-mid-upload of a
            # whole shard batch): nothing to read — still commit empty
            # chunk outputs + manifests so the run records the quarantine
            # and resume does not retry forever
            group_wall = round(time.perf_counter() - tstart, 3)
            for cid in group:
                src = os.path.join(group_tmp, f"chunk={cid:05d}")
                os.makedirs(src, exist_ok=True)
                mf.atomic_replace_dir(src, _records_dir(cfg.out_dir, cid))
                mf.write_manifest(
                    cfg.out_dir,
                    cid,
                    {
                        "status": "success",
                        "chunk_id": cid,
                        "input_files": chunks[cid],
                        "row_count": 0,
                        "group_id": group[0],
                        "group_wall_s": group_wall,
                        "output_rows": _output_rows(cfg.out_dir, cid),
                        "quarantined": quarantined.get(cid, []),
                    },
                )
            mf.clear_stale_tmp(group_tmp)
            continue
        # Prune at the read: phase A re-extracts text from html, so the
        # input's `text` column (populated on a real crawl per input_hint,
        # ~3 KB/page) must never leave storage — only the four columns the
        # extractor consumes (+ the lineage path column).
        pages = rd.read_parquet(
            group_files,
            columns=["url", "warc_ts", "html", "lang"],
            include_paths=True,
        )
        text_ds = pages.map_batches(
            extract_text_batch,
            fn_kwargs={"path_to_chunk": path_to_chunk},
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
        )
        if cfg.use_actor_pool:
            records = text_ds.map_batches(
                TripleExtractor,
                fn_constructor_kwargs={
                    "lang_allow": cfg.lang_allow,
                    "alias_ref": alias_ref,
                },
                batch_format="pyarrow",
                batch_size=cfg.batch_size,
                concurrency=extract_pool,
            )
        else:
            records = text_ds.map_batches(
                extract_records_batch,
                fn_kwargs={
                    "alias_ref": alias_ref,
                    "lang_allow": cfg.lang_allow,
                },
                batch_format="pyarrow",
                batch_size=cfg.batch_size,
            )
        records.write_parquet(group_tmp, partition_cols=["chunk", "kind"], compression="zstd")

        group_wall = round(time.perf_counter() - tstart, 3)
        for cid in group:
            src = os.path.join(group_tmp, f"chunk={cid:05d}")
            if not os.path.isdir(src):
                os.makedirs(src, exist_ok=True)  # chunk produced no rows
            mf.atomic_replace_dir(src, _records_dir(cfg.out_dir, cid))
            bad_names = set(quarantined.get(cid, ()))
            rows = sum(
                pq.read_metadata(f).num_rows
                for f in chunks[cid]
                if os.path.basename(f) not in bad_names
            )
            n_pages += rows
            # one execution serves the whole commit group, so its wall time
            # is recorded as the GROUP's (shared by its chunks, keyed by
            # group_id = the group's first chunk); what is per chunk is
            # read from the promoted files' parquet footers
            payload = {
                "status": "success",
                "chunk_id": cid,
                "input_files": chunks[cid],
                "row_count": rows,
                "group_id": group[0],
                "group_wall_s": group_wall,
                "output_rows": _output_rows(cfg.out_dir, cid),
            }
            if bad_names:
                payload["quarantined"] = sorted(bad_names)
            mf.write_manifest(cfg.out_dir, cid, payload)
        mf.clear_stale_tmp(group_tmp)
    return {
        "chunks_total": len(chunks),
        "chunks_processed": len(pending),
        "pages_processed": n_pages,
        "phase_a_wall_s": round(time.perf_counter() - t0, 3),
    }


def _output_rows(out_dir: str, cid: int) -> dict[str, int]:
    """Rows per record kind of a promoted chunk, from parquet footers."""
    rows: dict[str, int] = {}
    for f in glob.glob(os.path.join(_records_dir(out_dir, cid), "kind=*",
                                    "*.parquet")):
        kind = os.path.basename(os.path.dirname(f))[len("kind="):]
        rows[kind] = rows.get(kind, 0) + pq.read_metadata(f).num_rows
    return dict(sorted(rows.items()))


def _kind_files(out_dir, kind: str) -> list[str]:
    """Record files of one kind, from one run dir or (for merge_runs) a
    sequence of run dirs — the union of every run's phase-A artifacts."""
    dirs = [out_dir] if isinstance(out_dir, str) else list(out_dir)
    return sorted(
        f
        for d in dirs
        for f in glob.glob(
            os.path.join(d, "extracted", "chunk=*", f"kind={kind}", "*.parquet")
        )
    )


def text_dataset(out_dir: str, columns: list[str] | None = None):
    """The byte-identical extracted-text artifact (kind=page records)."""
    files = _kind_files(out_dir, "page")
    if not files:
        return None
    return rd.read_parquet(
        files, columns=columns or ["url", "warc_ts", "text", "lang"]
    )


def mentions_dataset(out_dir: str, columns: list[str] | None = None):
    files = _kind_files(out_dir, "mention")
    if not files:
        return None
    return rd.read_parquet(files, columns=columns)


def triples_dataset(out_dir: str, columns: list[str] | None = None):
    files = _kind_files(out_dir, "triple")
    if not files:
        return None
    return rd.read_parquet(files, columns=columns)


# Above this many mcount partial rows the driver pandas merge is replaced by
# a distributed Ray groupby (auto mode). The pandas path is bounded by
# chunks x vocabulary; on open-vocabulary web text that product is the
# phase-B scale killer, while the groupby's OUTPUT stays vocabulary-sized.
PANDAS_MCOUNT_MAX_ROWS = 2_000_000


def _merge_partials_ds(partials_ds: rd.Dataset) -> rd.Dataset:
    """Distributed merge of (norm_surface, mentions_p, links_p, perfect_p,
    max_score_p, min_score_p) partial rows -> one row per surface."""
    from ray.data.aggregate import Max as RMax
    from ray.data.aggregate import Min as RMin
    from ray.data.aggregate import Sum as RSum

    return partials_ds.groupby("norm_surface").aggregate(
        RSum("mentions_p", alias_name="mention_count"),
        RSum("links_p", alias_name="link_count"),
        RSum("perfect_p", alias_name="perfect_links"),
        RMax("max_score_p", alias_name="max_score"),
        RMin("min_score_p", alias_name="min_score"),
    )


def _distributed_counts_ds(mcount_files: list[str]) -> rd.Dataset:
    """Ray-groupby merge of mention-count partials as a DATASET: reads the
    (chunks x vocabulary)-sized partial rows distributed and reduces them to
    one row per norm_surface."""
    import pyarrow.compute as pc

    ds = rd.read_parquet(
        mcount_files,
        columns=["norm_surface", "n_in_page", "span_start", "span_end",
                 "score", "confidence"],
    )

    def rename(t: pa.Table) -> pa.Table:
        # MCOUNT_COLUMNS mapping (stages/triples.py): the partials reuse
        # record columns
        return pa.table(
            {
                "norm_surface": t["norm_surface"],
                "mentions_p": pc.cast(t["n_in_page"], pa.int64()),
                "links_p": pc.cast(t["span_start"], pa.int64()),
                "perfect_p": pc.cast(t["span_end"], pa.int64()),
                "max_score_p": t["score"],
                "min_score_p": t["confidence"],
            }
        )

    return _merge_partials_ds(ds.map_batches(rename, batch_format="pyarrow"))


def _distributed_counts(mcount_files: list[str]):
    """As above but reduced to a driver DataFrame (the closed-vocabulary
    case, where the merged output is dimension-bounded)."""
    df = _distributed_counts_ds(mcount_files).to_pandas()
    if df.empty or "norm_surface" not in df.columns:
        return None  # empty partials (e.g. all pages lang-filtered)
    return df.sort_values("norm_surface", kind="mergesort").reset_index(drop=True)


SAMPLE_ISSUES = 100  # issue rows kept for validation-results.json


class _IssueSink(rd.Datasink):
    """Write tasks that validate the blocks they persist. Each task writes
    its block as ``data_dir/<task_idx:06d>.parquet`` (task order is block
    order, so a sorted dataset's files stay in sort order), runs
    ``issues_fn`` on the same in-memory block, writes the issue rows as
    ``issues_dir/<prefix>-<task_idx:06d>.parquet`` (no file when there are
    none) and returns its row count, its (severity, rule) counts and its
    first ``sample_rows`` issue rows.

    ``issues_fn`` is passed in rather than looked up inside the task, so a
    caller that swaps the kernel (a tracer, a test) is the one that runs."""

    def __init__(self, data_dir: str, issues_fn, issues_dir: str,
                 prefix: str, sample_rows: int = 0) -> None:
        self.data_dir, self.issues_fn = data_dir, issues_fn
        self.issues_dir, self.prefix = issues_dir, prefix
        self.sample_rows = sample_rows
        self.rows = 0
        self.counts: Counter = Counter()  # (severity, rule) -> n
        self.sample: list[dict] = []

    def write(self, blocks, ctx) -> dict:
        from ray.data.block import BlockAccessor

        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return {"task": ctx.task_idx, "rows": 0, "counts": [],
                    "sample": []}
        t = pa.concat_tables(tables, promote_options="default")
        pq.write_table(
            t, os.path.join(self.data_dir, f"{ctx.task_idx:06d}.parquet"),
            compression="zstd")
        issues = self.issues_fn(t)
        if issues.num_rows:
            pq.write_table(
                issues,
                os.path.join(self.issues_dir,
                             f"{self.prefix}-{ctx.task_idx:06d}.parquet"),
                compression="zstd")
        return {
            "task": ctx.task_idx,
            "rows": t.num_rows,
            "counts": issue_count_batch(issues).to_pylist(),
            "sample": issues.slice(0, self.sample_rows).to_pylist(),
        }

    def on_write_complete(self, write_result) -> None:
        for r in sorted(write_result.write_returns, key=lambda r: r["task"]):
            self.rows += r["rows"]
            _tally(self.counts, r["counts"])
            self.sample.extend(
                r["sample"][: self.sample_rows - len(self.sample)])


def _tally(counts: Counter, rows: list[dict]) -> None:
    """Add issue_count_batch rows into a (severity, rule) Counter."""
    for r in rows:
        counts[(r["severity"], r["rule"])] += r["n"]


def _finalize_edges(edges: "rd.Dataset", edges_dir: str, issues_tmp: str,
                    cfg: KGConfig) -> tuple[int, Counter]:
    """Shared edge materialization: optional global dedup -> vectorized
    validation -> ONE corpus-sized packed-key sort -> one write operator
    (an _IssueSink). Each write task writes its sorted block as
    ``<task_idx:06d>.parquet`` (zstd; file order = sort order), runs
    edge_issues_batch on the same in-memory block, writes those rows into
    ``issues_tmp`` and returns its row count and (severity, rule) counts.
    Returns the edge count and the summed counts. Edges and their issues
    come from ONE execution: edges/ is never read back, and the issues are
    neither materialized nor written or counted in a second pass.

    Edge dedup already happened AT SOURCE (the extractor dedups per page on
    the canonical key, which the alias dict fully determines; url is in the
    key and each url is extracted exactly once), so no global dedup shuffle
    is needed by default. For corpora where the same url can recur
    (re-crawls), cfg.global_edge_dedup adds an exact groupby dedup pass (D4,
    db_init.py:128) with the same tuple-min representative rule as the
    per-page and block-level dedups.

    Sort: ONE packed string key instead of a 4-column key — multi-column Ray
    sort was ~3x slower (measured). See _add_sort_key for the key layout;
    the invariant test asserts tuple-sortedness of the final parquet.
    """
    if cfg.global_edge_dedup:
        from ..stages.canonicalize import dedup_edges_group

        from ..stages.canonicalize import DEDUP_KEYS

        edges = edges.map_batches(dedup_edges_batch, batch_format="pyarrow")
        edges = edges.groupby(DEDUP_KEYS).map_groups(
            dedup_edges_group, batch_format="pandas"
        )
    edges = edges.map_batches(validate_edges_batch, batch_format="pyarrow")
    edges = edges.map_batches(_add_sort_key, batch_format="pyarrow")
    edges = edges.sort("skey").drop_columns(["skey"])
    tmp = edges_dir + ".tmp"
    mf.clear_stale_tmp(tmp)
    os.makedirs(tmp)
    # the kernel is read from this module's attribute when the sink is
    # built, so a wrapper installed there (the benchmark's span) runs
    sink = _IssueSink(tmp, edge_issues_batch, issues_tmp, "edge")
    edges.write_datasink(sink)
    mf.atomic_replace_dir(tmp, edges_dir)
    return sink.rows, sink.counts


def run_phase_b(cfg: KGConfig) -> dict:
    """Global canonicalization + dedup + validate + materialize."""
    if cfg.open_vocab:
        return run_phase_b_openvocab(cfg)
    t0 = time.perf_counter()
    timings: dict[str, float] = {}

    def _mark(name: str, since: list[float]) -> None:
        now = time.perf_counter()
        timings[name] = round(now - since[0], 3)
        since[0] = now

    _since = [t0]
    out = cfg.out_dir
    src_dirs = cfg.record_dirs or (out,)
    alias = cfg.alias_dict()

    # ---- mention counts: batch-level partials were already emitted by the
    # extractor (kind=mcount rows — the combiner half of the canonicalization
    # shuffle), so the merge input here is bounded by batches x vocabulary,
    # NOT by corpus size — the same driver-side bound the union-find step
    # assumes. The pandas merge replaces a full Ray shuffle whose output
    # would be vocabulary-sized anyway. Fallback: recompute partials from
    # the mention rows when mcount files are absent.
    mcount_files = _kind_files(src_dirs, "mcount")
    if mcount_files:
        total_partial_rows = sum(
            pq.read_metadata(f).num_rows for f in mcount_files
        )
        use_distributed = (
            cfg.distributed_counts
            if cfg.distributed_counts is not None
            else total_partial_rows > PANDAS_MCOUNT_MAX_ROWS
        )
    else:
        use_distributed = False
    counts_df = None
    if mcount_files and use_distributed:
        partials = None  # already merged distributed
        counts_df = _distributed_counts(mcount_files)
    elif mcount_files:
        # zero-copy load: read all partial files as one Arrow table, rename
        # per MCOUNT_COLUMNS and convert columnar (to_pylist loops here cost
        # seconds of serial driver time at bench scale)
        t = pa.concat_tables(
            pq.read_table(
                f,
                columns=["norm_surface", "n_in_page", "span_start",
                         "span_end", "score", "confidence"],
            )
            for f in mcount_files
        ).rename_columns(
            ["norm_surface", "mentions_p", "links_p", "perfect_p",
             "max_score_p", "min_score_p"]
        )
        partials = t.to_pandas() if t.num_rows else None
    else:
        mentions = mentions_dataset(
            src_dirs, columns=["norm_surface", "n_in_page", "score"]
        )
        partials = (
            mentions.map_batches(
                partial_mention_counts, batch_format="pyarrow"
            ).to_pandas()
            if mentions is not None
            else None
        )

    if partials is not None and not partials.empty:
        counts_df = (
            partials.groupby("norm_surface", sort=True)
            .agg(
                mention_count=("mentions_p", "sum"),
                link_count=("links_p", "sum"),
                perfect_links=("perfect_p", "sum"),
                max_score=("max_score_p", "max"),
                min_score=("min_score_p", "min"),
            )
            .reset_index()
        )

    if counts_df is None or counts_df.empty:
        nodes = pa.table(
            {
                "entity_id": pa.array([], pa.int64()),
                "canonical_name": pa.array([], pa.string()),
                "ent_type": pa.array([], pa.string()),
                "mention_count": pa.array([], pa.int64()),
                "link_count": pa.array([], pa.int64()),
                "perfect_links": pa.array([], pa.int64()),
                "max_score": pa.array([], pa.float64()),
                "min_score": pa.array([], pa.float64()),
                "aliases": pa.array([], pa.list_(pa.string())),
            }
        )
        id_map: dict[str, tuple[int, str]] = {}
    else:
        nodes, id_map = build_entity_table(counts_df, alias)
    _mark("counts_unionfind_s", _since)

    nodes_dir = os.path.join(out, "nodes")
    _write_atomic_table(nodes, nodes_dir)
    _write_nodes_summary_csv(nodes, os.path.join(out, "nodes_summary.csv"))

    # ---- validation report (S8 analog) ----
    # Entity issues are vocabulary-sized (driver); relationship issues are
    # corpus-sized -> written by the edge sort's own write tasks (see
    # _finalize_edges), with only (severity, rule) counts reduced to the
    # driver for the JSON summary.
    issues_dir = os.path.join(out, "validation", "issues")
    tmpi = issues_dir + ".tmp"
    mf.clear_stale_tmp(tmpi)
    os.makedirs(tmpi, exist_ok=True)
    by_rule_sev: Counter = Counter()

    # ---- SHUFFLE 2: edges dedup + validation + sort ----
    triples = triples_dataset(
        src_dirs,
        columns=[
            "url", "warc_ts", "subj", "subj_norm", "pred",
            "obj", "obj_norm", "confidence", "context",
        ],
    )
    edges_dir = os.path.join(out, "edges")
    n_edges = 0
    if triples is not None:
        id_ref = ray.put(id_map)
        edges = triples.map_batches(
            apply_ids_batch,
            fn_kwargs={"id_map_ref": id_ref},
            batch_format="pyarrow",
        )
        # Edge dedup already happened AT SOURCE (TripleExtractor dedups per
        # page on the canonical key, which the alias dict fully determines;
        # url is in the key and each url is extracted exactly once), so no
        # global dedup shuffle is needed. For corpora where the same url can
        # recur (re-crawls), cfg.global_edge_dedup adds an exact groupby
        # dedup pass (D4, db_init.py:128).
        n_edges, edge_counts = _finalize_edges(edges, edges_dir, tmpi, cfg)
        by_rule_sev.update(edge_counts)
        _mark("edges_s", _since)
    else:
        os.makedirs(edges_dir, exist_ok=True)

    entity_issues = validate_nodes_table(nodes)
    pq.write_table(entity_issues, os.path.join(tmpi, "entity-issues.parquet"))
    _tally(by_rule_sev, issue_count_batch(entity_issues).to_pylist())
    sample = entity_issues.slice(0, SAMPLE_ISSUES).to_pylist()
    mf.atomic_replace_dir(tmpi, issues_dir)
    _mark("issues_s", _since)

    summary = summarize_issues(by_rule_sev, nodes.num_rows, n_edges)
    report = {"summary": summary, "issues_sample": sample}
    report_path = os.path.join(out, "validation-results.json")
    with open(report_path + ".tmp", "w") as f:
        json.dump(report, f, sort_keys=True, default=str)
    os.replace(report_path + ".tmp", report_path)

    return {
        "n_nodes": nodes.num_rows,
        "n_edges": n_edges,
        "n_issues": summary["total_issues"],
        "phase_b_wall_s": round(time.perf_counter() - t0, 3),
        "phase_b_timings": timings,
    }


def run_phase_b_openvocab(cfg: KGConfig) -> dict:
    """Open-vocabulary phase B (see pipelines/openvocab.py): counts, node
    building, id assignment, edge id application and entity validation all
    run distributed; only alias-relevant surfaces (bounded by the alias
    dictionary) and per-block row counts reach the driver. Produces the same
    on-disk outputs as run_phase_b (nodes may span multiple parquet files)."""
    from .openvocab import apply_ids_hybrid, build_nodes_openvocab

    t0 = time.perf_counter()
    timings: dict[str, float] = {}

    def _mark(name: str, since: list[float]) -> None:
        now = time.perf_counter()
        timings[name] = round(now - since[0], 3)
        since[0] = now

    _since = [t0]
    out = cfg.out_dir
    src_dirs = cfg.record_dirs or (out,)
    alias = cfg.alias_dict()

    mcount_files = _kind_files(src_dirs, "mcount")
    if mcount_files:
        counts_ds = _distributed_counts_ds(mcount_files)
    else:
        mentions = mentions_dataset(
            src_dirs, columns=["norm_surface", "n_in_page", "score"]
        )
        counts_ds = (
            _merge_partials_ds(
                mentions.map_batches(
                    partial_mention_counts, batch_format="pyarrow"
                )
            )
            if mentions is not None
            else None
        )

    from ..stages.canonicalize import NODES_SCHEMA

    # ---- validation report: entity issues distributed too, each written
    # by the write task that persists its nodes block (same _IssueSink as
    # the edges)
    issues_dir = os.path.join(out, "validation", "issues")
    tmpi = issues_dir + ".tmp"
    mf.clear_stale_tmp(tmpi)
    os.makedirs(tmpi, exist_ok=True)
    by_rule_sev: Counter = Counter()
    sample: list[dict] = []

    nodes_dir = os.path.join(out, "nodes")
    n_nodes = 0
    nodes_ds = mapping_ds = None
    ov = None
    if counts_ds is not None:
        ov = build_nodes_openvocab(counts_ds, alias, hot_cap=cfg.hot_map_cap)
        nodes_ds, mapping_ds = ov.nodes_ds, ov.mapping_ds
        n_nodes = ov.n_nodes
    if nodes_ds is None or n_nodes == 0:
        # empty corpus: same on-disk shape as the default path (an empty
        # single-file nodes table readers can open)
        _write_atomic_table(NODES_SCHEMA.empty_table(), nodes_dir)
        nodes_ds = mapping_ds = None
        n_nodes = 0
    else:
        tmpn = nodes_dir + ".tmp"
        mf.clear_stale_tmp(tmpn)
        os.makedirs(tmpn)
        sink = _IssueSink(tmpn, validate_nodes_table, tmpi, "entity",
                          sample_rows=SAMPLE_ISSUES)
        nodes_ds.write_datasink(sink)
        mf.atomic_replace_dir(tmpn, nodes_dir)
        by_rule_sev.update(sink.counts)
        sample = sink.sample
        # top-1000 summary reuses the per-block top-k combiner result that
        # also feeds the hot map — no second vocabulary-wide sort
        _write_nodes_summary_csv(
            ov.top_tbl.slice(0, 1000).drop_columns(["aliases"]),
            os.path.join(out, "nodes_summary.csv"),
        )
    _mark("counts_unionfind_s", _since)

    triples = triples_dataset(
        src_dirs,
        columns=[
            "url", "warc_ts", "subj", "subj_norm", "pred",
            "obj", "obj_norm", "confidence", "context",
        ],
    )
    edges_dir = os.path.join(out, "edges")
    n_edges = 0
    if triples is not None and mapping_ds is not None:
        edges = apply_ids_hybrid(
            triples, mapping_ds, ov.hot_map, ov.hot_total
        )
        n_edges, edge_counts = _finalize_edges(edges, edges_dir, tmpi, cfg)
        by_rule_sev.update(edge_counts)
        _mark("edges_s", _since)
    else:
        os.makedirs(edges_dir, exist_ok=True)
    mf.atomic_replace_dir(tmpi, issues_dir)
    _mark("issues_s", _since)

    summary = summarize_issues(by_rule_sev, n_nodes, n_edges)
    report = {"summary": summary, "issues_sample": sample}
    report_path = os.path.join(out, "validation-results.json")
    with open(report_path + ".tmp", "w") as f:
        json.dump(report, f, sort_keys=True, default=str)
    os.replace(report_path + ".tmp", report_path)

    return {
        "n_nodes": n_nodes,
        "n_edges": n_edges,
        "n_issues": summary["total_issues"],
        "phase_b_wall_s": round(time.perf_counter() - t0, 3),
        "phase_b_timings": timings,
    }


def _write_nodes_summary_csv(nodes: pa.Table, path: str) -> None:
    """Diagnostic CSV summary of the top entities (reference S6: the
    papers_summary.csv writer, ``fetch_citing_papers.py:65-82``, with the
    M11 field cleaning ``title.replace(',',';').replace('\\n',' ')``)."""
    from ..functions.cleaning import csv_clean

    top = (
        nodes.select(["entity_id", "canonical_name", "ent_type", "mention_count"])
        .to_pandas()
        .sort_values(["mention_count", "entity_id"], ascending=[False, True])
        .head(1000)
    )
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write("entity_id,canonical_name,ent_type,mention_count\n")
        for r in top.itertuples(index=False):
            f.write(
                f"{r.entity_id},{csv_clean(r.canonical_name)},"
                f"{r.ent_type},{r.mention_count}\n"
            )
    os.replace(tmp, path)


def _write_atomic_table(table: pa.Table, out_dir: str) -> None:
    tmp = out_dir + ".tmp"
    mf.clear_stale_tmp(tmp)
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(table, os.path.join(tmp, "part-00000.parquet"))
    mf.atomic_replace_dir(tmp, out_dir)


def run_pipeline(cfg: KGConfig) -> dict:
    """End-to-end: phase A (resumable) + phase B (idempotent overwrite).

    A ``_COMPLETE`` marker records a finished run; callers that only need
    the outputs (e.g. repeated driver queries over the same corpus) can use
    :func:`ensure_complete` to skip re-execution entirely.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    marker = os.path.join(cfg.out_dir, "_COMPLETE")
    if os.path.exists(marker):
        os.remove(marker)
    a = run_phase_a(cfg)
    b = run_phase_b(cfg)
    # a truncated run (max_chunks) is NOT a completed graph — never mark it
    if cfg.max_chunks is None:
        with open(marker + ".tmp", "w") as f:
            f.write(_config_fingerprint(cfg))
        os.replace(marker + ".tmp", marker)
    return {**a, **b, "out_dir": cfg.out_dir}


def ensure_complete(cfg: KGConfig) -> dict:
    """Run the pipeline unless a completed run with the SAME config
    fingerprint (layout + lang filter + alias dict + chunk plan) already
    exists at cfg.out_dir."""
    marker = os.path.join(cfg.out_dir, "_COMPLETE")
    if os.path.exists(marker) and open(marker).read() == _config_fingerprint(cfg):
        return {"out_dir": cfg.out_dir, "cached": True}
    return run_pipeline(cfg)


def merge_runs(
    record_dirs: list[str],
    out_dir: str,
    *,
    alias: dict[str, tuple[str, str]] | None = None,
    open_vocab: bool = False,
    global_edge_dedup: bool = False,
) -> dict:
    """Incremental-crawl merge — the reference's upsert story
    (``database.ts:102-116`` ``ON CONFLICT (name) DO UPDATE SET
    mention_count = mention_count + 1``; ``database_utils.py:145-153``)
    re-expressed for an immutable-artifact engine: phase B re-reduced over
    the UNION of several completed runs' phase-A record artifacts.

    What this buys at scale: phase A never re-runs for the base corpus and
    the raw pages are never re-read — the reduce input is mcount partials
    (bounded by chunks x vocabulary) plus the triple records (~2 orders of
    magnitude smaller than the pages). The reduce itself costs the same as
    any phase B (measured equal in isolation: edges sort 10.4s vs 10.1s at
    sf0.1/32cpu — see bench.py --increment), so the increment's payoff is
    the avoided base-extraction: with the cheap deterministic kernel phase
    A is only ~40% of a rebuild and the increment roughly breaks even; with
    model-backed extraction (the reference's regime, ~8.45 s/page) phase A
    is >99% and the increment approaches corpus/delta x. A weekly crawl
    increment is: run_pipeline on the new pages alone, then merge_runs over
    [base_out, delta_out].

    Semantics: deterministic dense-rank entity ids are REASSIGNED over the
    merged vocabulary (the engine's O3 determinism invariant — ids are a
    pure function of the corpus, unlike the reference's insertion-order
    SERIAL ids), mention/link counts accumulate per canonical entity
    exactly as the reference's ON CONFLICT UPDATE does, and the output is
    BIT-IDENTICAL to running the full pipeline over the union corpus
    (tests/test_kg_pipeline.py asserts nodes+edges+issues equality).

    Assumes the merged runs cover DISJOINT url sets (the same D4 invariant
    one corpus relies on); pass ``global_edge_dedup=True`` for re-crawled
    urls, same as within a single run.
    """
    sems = set()
    for d in record_dirs:
        if not _kind_files(d, "mcount") and not _kind_files(d, "mention"):
            raise ValueError(f"no phase-A record artifacts under {d!r}")
        marker = os.path.join(d, "_LAYOUT")
        if os.path.exists(marker):
            sems.add(json.loads(open(marker).read()).get("sem"))
    if len(sems) > 1:
        # runs extracted under different semantics (layout version, lang
        # filter, alias dict, or chunk plan) must not be silently merged -
        # their records mean different things
        raise ValueError(
            "merge_runs: runs have differing extraction-semantics "
            f"fingerprints ({len(sems)} distinct); re-extract with one "
            "config before merging"
        )
    os.makedirs(out_dir, exist_ok=True)
    cfg = KGConfig(
        pages_dir="",  # phase A never runs for a merge
        out_dir=out_dir,
        alias=alias,
        open_vocab=open_vocab,
        global_edge_dedup=global_edge_dedup,
        record_dirs=tuple(record_dirs),
    )
    res = run_phase_b(cfg)
    manifest = {
        "merged_from": [os.path.abspath(d) for d in record_dirs],
        "n_nodes": res["n_nodes"],
        "n_edges": res["n_edges"],
    }
    mpath = os.path.join(out_dir, "merge-manifest.json")
    with open(mpath + ".tmp", "w") as f:
        json.dump(manifest, f, sort_keys=True)
    os.replace(mpath + ".tmp", mpath)
    return {**res, "out_dir": out_dir}
