"""The knowledge-graph construction pipeline (SURVEY.md §7.2 stage graph).

Two phases:

**Phase A — resumable extraction** (the expensive per-document work;
reference analog: ingestion + entity extraction, SURVEY.md §3.1-3.2):
input Parquet files are grouped into lineage chunks; each pending chunk
(resume anti-join against manifests, ``state/manifest.py``) is split into
contiguous file groups (``runtime.file_groups``, one per cluster CPU), and
each group is ONE plain Ray task, at most 2 x CPUs in flight:

    ParquetFile.iter_batches(url, warc_ts, html, lang), re-sliced into
    BATCH_ROWS-page batches across file boundaries
      -> extract_text_batch      [html -> text: one columnar RE2 kernel
                                  per batch; drops html]
      -> extract_records_batch   [NER+SVO+linking+confidence; broadcast
                                  alias dict cached per worker; per-page
                                  edge dedup + mcount partials]
      -> one zstd ParquetWriter per kind:
           .chunk-<cid>.tmp/kind=<k>/part-<group>.parquet
           kind in {page(text artifact) | mention | triple | mcount}

No Ray Data: the task reads, extracts and writes its group, and returns
its page count and rows per kind. A chunk's dir is promoted atomically as
soon as its last task returns, BEFORE its manifest commits, so a manifest
implies complete output, re-runs are idempotent and a crash loses only the
chunks in flight (reference: skip-if-done + extraction_logs anti-join,
``extract_and_populate.py:171-175``, ``database.ts:66-81``).

**Phase B — global canonicalization + materialization, idempotent
overwrite** (reference analog: concept upserts + validation, §3.2-3.4):

    mcount partial rows -> ONE Arrow group_by on the driver
      -> is_in(alias-relevant surfaces): union-find over those rows only,
         every other surface a singleton node built in Arrow
      -> nodes + Arrow id map (member_norm, entity_id, canonical_name),
         broadcast once; entity issues on the driver (columnar rules)
    triple files -> P contiguous groups (runtime.file_groups, one per CPU);
    the driver cuts [0, n_nodes) into P equal-width subject-id ranges;
    ONE runtime.range_exchange keyed on subj_id (plain Ray tasks):
      -> P map tasks: read a group and apply_ids_batch [broadcast id map,
         ONE index_in over the batch's subj+obj uniques], validate_edges_batch,
         ONE Arrow sort_by, slice at the cuts
      -> P reduce tasks: range p concatenates its own slices [+ global
         dedup], sort_by, writes edges/part-<p>.parquet and runs
         edge_issues_batch on the same table -> validation/issues/,
         (severity, rule) counts back
    the summed counts + an entity-issue sample -> validation-results.json.
    edges/ is never read back. The link table and the FTS segments
    (weblinks, kgqueries) are built by plain tasks too: no KG build step,
    cold or incremental, runs Ray Data.

Scale notes: edge dedup happens at source (per page, canonical key known
from the alias dict) and mention counting is pre-aggregated at extraction
time, so the edges need no Ray shuffle: each reduce task receives only the
slices of its own subject range, never a block that goes to every
partition. One subject's edges are never split across ranges, so a hot
subject makes its range large (SCALE.md). The html column never leaves
phase A's text kernel. The alias dictionary and the id map are broadcast
via ``ray.put`` once and fetched once per worker.
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
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..runtime import (
    cluster_cpus,
    equal_cuts,
    file_groups,
    range_exchange,
    write_part,
)
from ..stages.canonicalize import (
    apply_ids_batch,
    build_entity_table,
    dedup_edges_batch,
)
from ..stages.extract import extract_text_batch
from ..stages.triples import (
    MCOUNT_COLUMNS,
    RECORD_SCHEMA,
    extract_records_batch,
)
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
    lang_allow: frozenset[str] | None = None
    alias: dict[str, tuple[str, str]] | None = None  # norm alias -> (canonical, type)
    resume: bool = True
    max_chunks: int | None = None  # process at most this many pending chunks
                                   # (used by the kill/resume test)
    global_edge_dedup: bool = False  # add an exact global dedup shuffle for
                                     # corpora where the same url can recur
                                     # (re-crawls); per-page dedup at source
                                     # already covers unique-url corpora
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
                                     # instead of failing the run: the
                                     # phase-A task skips a file whose
                                     # footer does not parse and records it
                                     # in the chunk manifest
                                     # ("quarantined"). Footer check only —
                                     # mid-file data-page corruption still
                                     # fails the task. Default False: fail
                                     # loud.

    def alias_dict(self) -> dict[str, tuple[str, str]]:
        return self.alias if self.alias is not None else synth.alias_dict()

    @functools.cached_property
    def _semantic_fp(self) -> str:
        # computed once per config: a KGConfig describes one run, and its
        # fields do not change once it is used
        return _semantic_fingerprint(self)


def input_files(pages_dir: str) -> list[tuple[str, int, int]]:
    """(path, size, mtime_ns) of every input file, sorted by path: the one
    listing behind the chunk plan and the input identity. Identity is
    (basename, size, mtime_ns), NOT basename alone: a regenerated corpus
    reusing the same shard names must invalidate the chunks it feeds."""
    out = []
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        st = os.stat(f)
        out.append((f, st.st_size, st.st_mtime_ns))
    return out


def plan_chunks(pages_dir: str, chunk_files: int) -> list[list[str]]:
    files = [f for f, _, _ in input_files(pages_dir)]
    if not files:
        raise FileNotFoundError(f"no parquet files under {pages_dir}")
    return [files[i : i + chunk_files] for i in range(0, len(files), chunk_files)]


def _records_dir(out: str, cid: int) -> str:
    return os.path.join(out, "extracted", f"chunk={cid:05d}")


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

    ident = [(os.path.basename(f), size, mtime)
             for f, size, mtime in input_files(cfg.pages_dir)]
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
    return name in _PIPELINE_ARTIFACTS or name.endswith(".tmp")


def _check_layout(out_dir: str, cfg: "KGConfig") -> None:
    """Wipe output written under an older layout, a different extraction
    config, or a different chunk plan, so resume never silently reuses or
    misaligns artifacts produced under other semantics.

    Deletes ONLY known pipeline artifacts. A non-empty directory that holds
    anything else and carries no _LAYOUT marker is refused outright —
    pointing --out at a pre-existing data/home directory must never destroy
    its contents."""
    import shutil

    fp = _config_fingerprint(cfg)
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "_LAYOUT")
    current = open(marker).read() if os.path.exists(marker) else None
    files = [[os.path.basename(f), size, mtime]
             for f, size, mtime in input_files(cfg.pages_dir)]
    payload = {"fp": fp, "sem": cfg._semantic_fp, "files": files}
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
        k, old = cfg.chunk_files, cur["files"]
        for cid in range(-(-max(len(old), len(files)) // k)):
            if old[cid * k:(cid + 1) * k] != files[cid * k:(cid + 1) * k]:
                mp = mf.manifest_path(out_dir, cid)
                if os.path.exists(mp):
                    os.remove(mp)
                shutil.rmtree(_records_dir(out_dir, cid), ignore_errors=True)
        # phase-B outputs derive from the full chunk set: force a rebuild
        if os.path.exists(os.path.join(out_dir, "_COMPLETE")):
            os.remove(os.path.join(out_dir, "_COMPLETE"))
        mf.write_json_atomic(marker, payload)
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
    mf.write_json_atomic(marker, payload)


BATCH_ROWS = 256  # pages per extraction batch


def _page_batches(files: list[str]):
    """The pages of ``files`` (the four columns the extractor reads) in
    BATCH_ROWS-row tables, re-sliced across file boundaries; the last
    table holds the remainder. Files are read with ``ParquetFile``, the
    edge map tasks' reader. The input's ``text`` column (~3 KB/page on a
    real crawl) never leaves storage: phase A re-extracts it from html."""
    buf = None
    for f in files:
        for b in pq.ParquetFile(f).iter_batches(
                batch_size=BATCH_ROWS, columns=["url", "warc_ts", "html", "lang"]):
            t = pa.Table.from_batches([b])
            buf = t if buf is None else pa.concat_tables([buf, t])
            while buf.num_rows >= BATCH_ROWS:
                yield buf.slice(0, BATCH_ROWS)
                buf = buf.slice(BATCH_ROWS)
    if buf is not None and buf.num_rows:
        yield buf


@ray.remote
def _extract_group(files, tmp, g, skip_bad_files, text_fn, records_fn,
                   alias, lang_allow) -> dict:
    """Phase-A task: one file group of one chunk. Each BATCH_ROWS-page
    batch runs both kernels, and each record kind streams through one zstd
    writer into ``tmp/kind=<k>/part-<g:05d>.parquet`` (the 19 record
    columns; kind and chunk are the path). ``alias`` is ``[ref]``: nested,
    so the kernel gets the ref itself, which its worker cache keys by.
    With ``skip_bad_files`` a file whose footer does not parse is
    quarantined; any later read error fails the task. Returns the pages
    read, the rows written per kind and the quarantined file names."""
    bad = []
    if skip_bad_files:
        for f in files:
            try:
                pq.ParquetFile(f)
            except pa.ArrowInvalid:
                bad.append(f)
    pages, rows, writers = 0, Counter(), {}
    try:
        for batch in _page_batches([f for f in files if f not in bad]):
            pages += batch.num_rows
            recs = records_fn(text_fn(batch), alias_ref=alias[0],
                              lang_allow=lang_allow)
            for kind in recs["kind"].unique().to_pylist():
                t = recs.filter(pc.equal(recs["kind"], kind)).drop_columns(
                    ["kind", "chunk"])
                if kind not in writers:
                    d = os.path.join(tmp, f"kind={kind}")
                    os.makedirs(d, exist_ok=True)
                    writers[kind] = pq.ParquetWriter(
                        os.path.join(d, f"part-{g:05d}.parquet"), t.schema,
                        compression="zstd")
                writers[kind].write_table(t)
                rows[kind] += t.num_rows
    finally:
        for w in writers.values():
            w.close()
    return {"pages": pages, "rows": rows,
            "quarantined": [os.path.basename(f) for f in bad]}


def _commit_chunk(out: str, cid: int, files: list[str], parts: list[dict],
                  started: float) -> int:
    """Promote chunk ``cid``'s tmp dir, then write its manifest (so a
    manifest implies complete output); returns its page count."""
    mf.atomic_replace_dir(_chunk_tmp(out, cid), _records_dir(out, cid))
    rows = sum((p["rows"] for p in parts), Counter())
    payload = {
        "status": "success",
        "chunk_id": cid,
        "input_files": files,
        "row_count": sum(p["pages"] for p in parts),
        "wall_s": round(time.perf_counter() - started, 3),
        "output_rows": dict(sorted(rows.items())),
    }
    bad = sorted(b for p in parts for b in p["quarantined"])
    if bad:
        payload["quarantined"] = bad
    mf.write_manifest(out, cid, payload)
    return payload["row_count"]


def _chunk_tmp(out: str, cid: int) -> str:
    # beside extracted/, never in it: _kind_files globs extracted/chunk=*
    return os.path.join(out, f".chunk-{cid:05d}.tmp")


def run_phase_a(cfg: KGConfig) -> dict:
    """Per-chunk extract + link; returns metrics. Each pending chunk is
    split into file groups (runtime.file_groups), one _extract_group task
    each, at most 2 x cluster CPUs in flight. A chunk is promoted and its
    manifest written as soon as its last task returns. On a task error no
    more tasks are submitted; the chunks that finish are committed, then
    the first error is raised."""
    _check_layout(cfg.out_dir, cfg)
    chunks = plan_chunks(cfg.pages_dir, cfg.chunk_files)
    planned = list(range(len(chunks)))
    pending = mf.pending_chunks(cfg.out_dir, planned) if cfg.resume else planned
    if cfg.max_chunks is not None:
        pending = pending[: cfg.max_chunks]

    t0 = time.perf_counter()
    alias = [ray.put(cfg.alias_dict())]
    groups = {cid: file_groups(chunks[cid]) for cid in pending}
    todo = iter([(cid, g, files) for cid in pending
                 for g, files in enumerate(groups[cid])])
    limit = 2 * cluster_cpus()
    started: dict[int, float] = {}
    parts: dict[int, list[dict]] = {cid: [] for cid in pending}
    running: dict = {}  # task ref -> chunk id
    error = None
    n_pages = 0
    while True:
        while error is None and len(running) < limit:
            nxt = next(todo, None)
            if nxt is None:
                break
            cid, g, files = nxt
            tmp = _chunk_tmp(cfg.out_dir, cid)
            if cid not in started:
                started[cid] = time.perf_counter()
                mf.clear_stale_tmp(tmp)
                os.makedirs(tmp)
            # the kernels are read from this module's attributes here, on
            # the driver, so a wrapper installed there (the benchmark's
            # span) is the one the tasks run
            running[_extract_group.remote(
                files, tmp, g, cfg.skip_bad_files, extract_text_batch,
                extract_records_batch, alias, cfg.lang_allow)] = cid
        if not running:
            break
        [ref], _ = ray.wait(list(running), num_returns=1)
        cid = running.pop(ref)
        try:
            parts[cid].append(ray.get(ref))
        except ray.exceptions.RayError as e:  # raised once the rest drain
            error = error or e
            continue
        if len(parts[cid]) == len(groups[cid]):
            n_pages += _commit_chunk(cfg.out_dir, cid, chunks[cid],
                                     parts[cid], started[cid])
    if error is not None:
        for cid in started:
            mf.clear_stale_tmp(_chunk_tmp(cfg.out_dir, cid))
        raise error
    return {
        "chunks_total": len(chunks),
        "chunks_processed": len(pending),
        "pages_processed": n_pages,
        "phase_a_wall_s": round(time.perf_counter() - t0, 3),
    }


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


_MCOUNT_READ = ["norm_surface", *MCOUNT_COLUMNS]


def merge_mcounts(partials: pa.Table) -> pa.Table:
    """mcount partial rows -> the merged counts, one row per norm_surface
    (ONE Arrow group_by), sorted by norm_surface: union-find roots depend
    on row order."""
    g = partials.group_by("norm_surface").aggregate(
        [(col, op) for col, (op, _) in MCOUNT_COLUMNS.items()])
    return pa.Table.from_arrays(
        [g["norm_surface"],
         *(g[f"{col}_{op}"] for col, (op, _) in MCOUNT_COLUMNS.items())],
        names=["norm_surface", *(name for _, name in MCOUNT_COLUMNS.values())],
    ).sort_by("norm_surface")


def _driver_counts(mcount_files: list[str]) -> pa.Table:
    """The merged counts of every partial, on the driver."""
    return merge_mcounts(pa.concat_tables(
        [pq.read_table(f, columns=_MCOUNT_READ) for f in mcount_files]
        or [RECORD_SCHEMA.empty_table().select(_MCOUNT_READ)]))


SAMPLE_ISSUES = 100  # issue rows kept for validation-results.json


def _tally(counts: Counter, rows: list[dict]) -> None:
    """Add issue_count_batch rows into a (severity, rule) Counter."""
    for r in rows:
        counts[(r["severity"], r["rule"])] += r["n"]


# The edges' file order: every edge file is sorted by this key and holds
# one subject-id range, the files in range order.
EDGE_ORDER = [("subj_id", "ascending"), ("pred", "ascending"),
              ("obj_id", "ascending"), ("url", "ascending")]
TRIPLE_COLUMNS = ["url", "warc_ts", "subj", "subj_norm", "pred", "obj",
                  "obj_norm", "confidence", "context"]


def merge_edge_slices(slices: list[pa.Table], dedup: bool) -> pa.Table:
    """One partition from its sorted slices (one per map task, in task
    order): concatenated, exactly deduplicated when ``dedup`` (every row
    of a dedup key shares its subj_id, so one partition holds them all)
    and sorted by EDGE_ORDER. Arrow's sort is stable, so rows equal on
    the key keep their input order."""
    t = pa.concat_tables(slices, promote_options="default")
    if dedup:
        t = dedup_edges_batch(t)
    return t.sort_by(EDGE_ORDER) if dedup or len(slices) > 1 else t


def _edge_map(files, validate_fn, apply_fn, id_map) -> pa.Table:
    """Map of the edge exchange: one file group of triple records, ids
    applied from ``id_map`` (resolved by Ray from the driver's broadcast
    ref) and validated. Files are read with ``ParquetFile``:
    ``pq.read_table`` would load pyarrow's dataset and Acero modules
    (~40 MB RSS) into the worker."""
    return validate_fn(apply_fn(pa.concat_tables(
        [pq.ParquetFile(f).read(columns=TRIPLE_COLUMNS) for f in files],
        promote_options="default"), id_map=id_map))


def _edge_reduce(slices, path, dedup, issues_fn, issues_path) -> dict:
    """Reduce of the edge exchange: one range from its slices, written to
    ``path`` and its ``issues_fn`` rows to ``issues_path`` (no file for
    no rows); returns the row count and the (severity, rule) counts."""
    t = merge_edge_slices(slices, dedup)
    if not write_part(t, path):
        return {"rows": 0, "counts": []}
    issues = issues_fn(t)
    write_part(issues, issues_path)
    return {"rows": t.num_rows,
            "counts": issue_count_batch(issues).to_pylist()}


def _finalize_edges(groups: list, n_nodes: int, edges_dir: str,
                    issues_tmp: str, cfg: KGConfig,
                    id_ref) -> tuple[int, Counter]:
    """Edge materialization: one ``runtime.range_exchange`` keyed on
    ``subj_id``, cut into len(groups) equal-width ranges of the dense ids
    (the ``-1`` unknown id falls in range 0). Map tasks apply the ids from
    the broadcast ``id_ref`` and validate; reduce task p merges its own
    slices (with the exact dedup, D4 db_init.py:128, when
    cfg.global_edge_dedup: re-crawled urls) into ``part-<p>.parquet``
    (file order = edge order) and its issue rows into ``issues_tmp``.
    Returns the edge count and the summed (severity, rule) counts. A hot
    subject's edges all land in one range (SCALE.md)."""
    n_parts = len(groups)
    tmp = edges_dir + ".tmp"
    mf.clear_stale_tmp(tmp)
    os.makedirs(tmp)
    # the kernels are read from this module's attributes here, on the
    # driver, so a wrapper installed there (the benchmark's span) is the
    # one the tasks run
    written = range_exchange(
        groups, _edge_map, (validate_edges_batch, apply_ids_batch, id_ref),
        EDGE_ORDER, equal_cuts(n_nodes, n_parts), _edge_reduce,
        [(cfg.global_edge_dedup, edge_issues_batch,
          os.path.join(issues_tmp, f"edge-{p:06d}.parquet"))
         for p in range(n_parts)], tmp)
    counts: Counter = Counter()
    for w in written:
        _tally(counts, w["counts"])
    mf.atomic_replace_dir(tmp, edges_dir)
    return sum(w["rows"] for w in written), counts


def run_phase_b(cfg: KGConfig) -> dict:
    """Global canonicalization + dedup + validate + materialize. The mcount
    partial rows are merged on the driver, which builds every node
    (union-find over the alias-relevant surfaces only) and broadcasts the
    Arrow id map once to the edge map tasks."""
    t0 = since = time.perf_counter()
    timings: dict[str, float] = {}

    def _mark(name: str) -> None:
        nonlocal since
        now = time.perf_counter()
        timings[name] = round(now - since, 3)
        since = now

    out = cfg.out_dir
    src_dirs = cfg.record_dirs or (out,)
    alias = cfg.alias_dict()
    # batch-level mention-count partials were already emitted by the
    # extractor (kind=mcount rows — the combiner half of the
    # canonicalization shuffle), so the merge input is bounded by
    # batches x vocabulary, NOT by corpus size
    mcount_files = _kind_files(src_dirs, "mcount")
    triple_files = _kind_files(src_dirs, "triple")
    groups = file_groups(triple_files) if triple_files else []
    nodes_dir = os.path.join(out, "nodes")

    # ---- validation report (S8 analog): entity issues are written by the
    # driver, relationship issues by the edge write tasks
    # (_finalize_edges), which send only (severity, rule) counts back for
    # the JSON summary
    issues_dir = os.path.join(out, "validation", "issues")
    tmpi = issues_dir + ".tmp"
    mf.clear_stale_tmp(tmpi)
    os.makedirs(tmpi, exist_ok=True)
    by_rule_sev: Counter = Counter()

    nodes, id_map = build_entity_table(_driver_counts(mcount_files), alias)
    n_nodes = nodes.num_rows
    _mark("counts_unionfind_s")
    _write_atomic_table(nodes, nodes_dir)
    _write_nodes_summary_csv(nodes, os.path.join(out, "nodes_summary.csv"))

    # ---- edges: id-apply + validation + range-partitioned sort ----
    edges_dir = os.path.join(out, "edges")
    n_edges = 0
    if groups:
        n_edges, edge_counts = _finalize_edges(
            groups, n_nodes, edges_dir, tmpi, cfg, ray.put(id_map))
        by_rule_sev.update(edge_counts)
        _mark("edges_s")
    else:
        os.makedirs(edges_dir, exist_ok=True)

    entity_issues = validate_nodes_table(nodes)
    pq.write_table(entity_issues, os.path.join(tmpi, "entity-issues.parquet"))
    _tally(by_rule_sev, issue_count_batch(entity_issues).to_pylist())
    sample = entity_issues.slice(0, SAMPLE_ISSUES).to_pylist()
    mf.atomic_replace_dir(tmpi, issues_dir)
    _mark("issues_s")
    return _report(out, by_rule_sev, sample, n_nodes, n_edges, t0, timings)


def _report(out: str, by_rule_sev: Counter, sample: list, n_nodes: int,
            n_edges: int, t0: float, timings: dict) -> dict:
    """Write validation-results.json (summary + issue sample) and return
    phase B's metrics."""
    summary = summarize_issues(by_rule_sev, n_nodes, n_edges)
    mf.write_json_atomic(os.path.join(out, "validation-results.json"),
                         {"summary": summary, "issues_sample": sample})
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

    keys = [("mention_count", "descending"), ("entity_id", "ascending")]
    top = nodes.select(["entity_id", "canonical_name", "ent_type",
                        "mention_count"])
    if top.num_rows:
        top = top.take(pc.select_k_unstable(
            top, k=min(1000, top.num_rows), sort_keys=keys)).sort_by(keys)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write("entity_id,canonical_name,ent_type,mention_count\n")
        for r in top.to_pylist():
            f.write(
                f"{r['entity_id']},{csv_clean(r['canonical_name'])},"
                f"{r['ent_type']},{r['mention_count']}\n"
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
        if not _kind_files(d, "mcount"):
            raise ValueError(f"no phase-A mcount records under {d!r}")
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
        global_edge_dedup=global_edge_dedup,
        record_dirs=tuple(record_dirs),
    )
    res = run_phase_b(cfg)
    manifest = {
        "merged_from": [os.path.abspath(d) for d in record_dirs],
        "n_nodes": res["n_nodes"],
        "n_edges": res["n_edges"],
    }
    mf.write_json_atomic(os.path.join(out_dir, "merge-manifest.json"),
                         manifest)
    return {**res, "out_dir": out_dir}
