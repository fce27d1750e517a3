"""Resume semantics (FIXTURES.md §7): kill after K chunks, re-run, final
tables byte-identical to an uninterrupted run (reference pattern:
skip-if-done + extraction_logs anti-join, extract_and_populate.py:171-175,
database.ts:66-81)."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from agenticknowledgegraphconstructionsystem_ray.pipelines import kg
from agenticknowledgegraphconstructionsystem_ray.state import manifest as mf


def _edges(out):
    return pq.read_table(
        sorted(glob.glob(os.path.join(out, "edges/**/*.parquet"), recursive=True))
    )


def test_interrupt_then_resume_identical(pages_dir, kg_out, tmp_path):
    baseline_out, _ = kg_out
    out = str(tmp_path / "resumed")

    # simulate a kill after 1 chunk
    cfg = kg.KGConfig(pages_dir=pages_dir, out_dir=out, chunk_files=2, max_chunks=1)
    m1 = kg.run_phase_a(cfg)
    assert m1["chunks_processed"] == 1
    assert mf.completed_chunks(out) == {0}

    # resume: only remaining chunks run
    cfg.max_chunks = None
    m2 = kg.run_phase_a(cfg)
    assert m2["chunks_processed"] == m1["chunks_total"] - 1
    kg.run_phase_b(cfg)

    assert _edges(out).equals(_edges(baseline_out))


def test_rerun_is_noop(pages_dir, kg_out):
    out, _ = kg_out
    cfg = kg.KGConfig(pages_dir=pages_dir, out_dir=out, chunk_files=2)
    m = kg.run_phase_a(cfg)
    assert m["chunks_processed"] == 0


def test_manifest_commit_is_atomic(tmp_path):
    out = str(tmp_path)
    mf.write_manifest(out, 3, {"status": "success"})
    assert mf.completed_chunks(out) == {3}
    # failed / malformed manifests don't count as done
    mf.write_manifest(out, 4, {"status": "failed"})
    with open(mf.manifest_path(out, 5), "w") as f:
        f.write("{not json")
    assert mf.completed_chunks(out) == {3}
    assert mf.pending_chunks(out, [2, 3, 4, 5]) == [2, 4, 5]


def test_manifest_per_chunk_wall_and_output_rows(kg_out):
    """Each chunk is committed on its own, so each manifest records its own
    wall time and no commit-group fields; its per-kind output rows equal
    the footers of the chunk's promoted parquet files."""
    out, _ = kg_out
    ms = [mf.read_manifest(out, c) for c in sorted(mf.completed_chunks(out))]
    assert len(ms) >= 2
    for m in ms:
        assert m["wall_s"] > 0
        assert not [k for k in m if k.startswith("group")]
        chunk_dir = os.path.join(out, "extracted", f"chunk={m['chunk_id']:05d}")
        want = {}
        for d in sorted(glob.glob(os.path.join(chunk_dir, "kind=*"))):
            files = sorted(glob.glob(os.path.join(d, "*.parquet")))
            want[os.path.basename(d)[len("kind="):]] = sum(
                pq.read_metadata(f).num_rows for f in files)
        assert m["output_rows"] == want
        # every input page leaves one page record
        assert m["output_rows"]["page"] == m["row_count"] > 0


def _records(out, kind):
    """One chunk-tagged table of a run's records of ``kind``, sorted."""
    tables = []
    for d in sorted(glob.glob(os.path.join(out, "extracted", "chunk=*"))):
        files = sorted(glob.glob(os.path.join(d, f"kind={kind}", "*.parquet")))
        if files:
            t = pa.concat_tables([pq.ParquetFile(f).read() for f in files])
            tables.append(t.append_column(
                "chunk", pa.array([os.path.basename(d)] * t.num_rows)))
    t = pa.concat_tables(tables)
    return t.sort_by([(c, "ascending") for c in t.column_names
                      if not pa.types.is_floating(t.schema.field(c).type)])


def test_failure_mid_run_keeps_finished_chunks(pages_dir, kg_out, tmp_path,
                                               monkeypatch):
    """A kernel that raises on the last chunk's pages makes run_phase_a
    raise; every earlier chunk is still committed (manifest + promoted
    dir, records equal to a clean run's) and no tmp dir is left. A rerun
    without the fault extracts only that chunk, and its edges equal a
    clean run's."""
    baseline_out, _ = kg_out
    out = str(tmp_path / "out_fail")
    chunks = kg.plan_chunks(pages_dir, 2)
    last = len(chunks) - 1
    poisoned = set(pq.read_table(chunks[last], columns=["url"])["url"]
                   .to_pylist())
    orig = kg.extract_text_batch

    def failing(batch, **kw):
        if poisoned & set(batch["url"].to_pylist()):
            raise RuntimeError("poisoned page")
        return orig(batch, **kw)

    with monkeypatch.context() as m:
        m.setattr(kg, "extract_text_batch", failing)
        with pytest.raises(Exception, match="poisoned page"):
            kg.run_phase_a(kg.KGConfig(pages_dir=pages_dir, out_dir=out,
                                       chunk_files=2))

    assert mf.completed_chunks(out) == set(range(last))
    assert not os.path.exists(
        os.path.join(out, "extracted", f"chunk={last:05d}"))
    assert not glob.glob(os.path.join(out, ".chunk-*.tmp"))
    assert not glob.glob(os.path.join(out, "extracted", "*.tmp"))
    for kind in ("page", "mention", "triple"):
        clean = _records(baseline_out, kind)
        done = _records(out, kind)
        assert done.equals(clean.filter(
            pc.not_equal(clean["chunk"], f"chunk={last:05d}"))), kind

    cfg = kg.KGConfig(pages_dir=pages_dir, out_dir=out, chunk_files=2)
    m = kg.run_pipeline(cfg)
    assert m["chunks_processed"] == 1
    assert _edges(out).equals(_edges(baseline_out))


def test_lineage_query_matches_chunk_plan(ray_session):
    """kg_lineage rows = the deterministic chunk plan with per-chunk page
    counts summing to the corpus size."""
    from agenticknowledgegraphconstructionsystem_ray import synth
    from agenticknowledgegraphconstructionsystem_ray.goldens import _seq_lineage
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kgqueries

    got = kgqueries.kg_lineage("/root/testdata/sf0.001").to_pandas()
    want = _seq_lineage(synth.ensure_pages(0.001)).to_pandas()
    assert got.equals(want)
    assert (got["status"] == "success").all()


def test_incremental_append_only_processes_new_chunks(
    pages_dir, kg_out, tmp_path
):
    """Crawl-append increment: copy the corpus, run to completion, append
    new page files, re-run — phase A must process ONLY the new chunks, and
    the final tables must be byte-identical to a from-scratch run over the
    full corpus."""
    import shutil

    # corpus v1 = the first 4 of the shared corpus's 6 files (2 chunks at
    # chunk_files=2); v2 appends the remaining 2 files, which sort after
    # the originals, so existing chunk boundaries are unchanged — the
    # append-only crawl contract
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    assert len(files) == 6
    inc_pages = str(tmp_path / "pages_inc")
    os.makedirs(inc_pages)
    for f in files[:4]:
        shutil.copy(f, inc_pages)
    out = str(tmp_path / "out_inc")
    m1 = kg.run_pipeline(kg.KGConfig(pages_dir=inc_pages, out_dir=out, chunk_files=2))
    assert m1["chunks_total"] == 2

    for f in files[4:]:
        shutil.copy(f, inc_pages)
    m2 = kg.run_pipeline(kg.KGConfig(pages_dir=inc_pages, out_dir=out, chunk_files=2))
    assert m2["chunks_total"] == 3
    assert m2["chunks_processed"] == 1  # only the appended chunk

    fresh = str(tmp_path / "out_fresh")
    kg.run_pipeline(kg.KGConfig(pages_dir=inc_pages, out_dir=fresh, chunk_files=2))
    assert _edges(out).equals(_edges(fresh))


def test_worker_crash_retry_produces_identical_output(
    pages_dir, kg_out, tmp_path
):
    """A worker process that DIES mid-task (os._exit, the real failure
    mode Ray task retries cover) must not change the output: the task is
    retried on a fresh worker and the run stays byte-identical."""
    from agenticknowledgegraphconstructionsystem_ray.stages.extract import (
        extract_text_batch,
    )

    baseline_out, _ = kg_out
    out = str(tmp_path / "out_flaky")
    marker = str(tmp_path / "crashed_once")

    def crashing(batch, **kw):
        import os as _os

        if not _os.path.exists(marker):
            open(marker, "w").close()
            _os._exit(1)  # hard worker death, not a Python exception
        return extract_text_batch(batch, **kw)

    import agenticknowledgegraphconstructionsystem_ray.pipelines.kg as kgmod

    orig = kgmod.extract_text_batch
    kgmod.extract_text_batch = crashing
    try:
        kgmod.run_pipeline(
            kg.KGConfig(pages_dir=pages_dir, out_dir=out, chunk_files=2)
        )
    finally:
        kgmod.extract_text_batch = orig
    assert os.path.exists(marker)  # the crash really happened
    assert _edges(out).equals(_edges(baseline_out))


def test_corrupt_input_file_quarantined(pages_dir, tmp_path):
    """With skip_bad_files=True a truncated/garbage parquet file is
    quarantined (recorded in the chunk manifest) and the run completes
    over the healthy files, byte-identical to a run without the bad file;
    without the flag the run fails loudly."""
    import shutil

    import pytest as _pytest

    src_files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    healthy = str(tmp_path / "pages_healthy")
    poisoned = str(tmp_path / "pages_poisoned")
    os.makedirs(healthy)
    os.makedirs(poisoned)
    for f in src_files:
        shutil.copy(f, healthy)
        shutil.copy(f, poisoned)
    # the poisoned corpus gains a garbage file that sorts last
    bad = os.path.join(poisoned, "zz-corrupt.parquet")
    with open(bad, "wb") as f:
        f.write(b"PAR1 this is not a parquet file")

    out_h = str(tmp_path / "out_h")
    kg.run_pipeline(kg.KGConfig(pages_dir=healthy, out_dir=out_h, chunk_files=2))

    out_p = str(tmp_path / "out_p")
    with _pytest.raises(Exception):
        kg.run_pipeline(
            kg.KGConfig(pages_dir=poisoned, out_dir=out_p, chunk_files=2)
        )

    out_q = str(tmp_path / "out_q")
    m = kg.run_pipeline(
        kg.KGConfig(
            pages_dir=poisoned, out_dir=out_q, chunk_files=2,
            skip_bad_files=True,
        )
    )
    assert _edges(out_q).equals(_edges(out_h))
    last_chunk = max(mf.completed_chunks(out_q))
    assert mf.read_manifest(out_q, last_chunk)["quarantined"] == [
        "zz-corrupt.parquet"
    ]
    assert m["pages_processed"] == 300  # healthy rows only
