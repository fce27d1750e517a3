"""Regression tests for review findings: non-self-mapping alias dicts,
chunk-plan changes vs resume, and truncated-run completion markers."""

import glob
import os

import pyarrow.parquet as pq

from agenticknowledgegraphconstructionsystem_ray import synth
from agenticknowledgegraphconstructionsystem_ray.pipelines import kg
from agenticknowledgegraphconstructionsystem_ray.stages.canonicalize import (
    build_entity_table,
)
from test_canonicalize import id_map_dict


def test_alias_dict_without_canonical_self_map(ray_session, tmp_path):
    """A user-supplied alias dict maps aliases only — the canonical's own
    normalized surface need not be a key. Previously raised KeyError."""
    import pandas as pd
    import pyarrow as pa

    alias = {"ml": ("Machine Learning", "field")}  # no 'machine learning' key
    counts = pd.DataFrame(
        [("ml", 3, 2, 0, 0.6, 0.4), ("other", 1, 1, 0, 0.4, 0.4)],
        columns=["norm_surface", "mention_count", "link_count",
                 "perfect_links", "max_score", "min_score"],
    )
    nodes, id_map = build_entity_table(
        pa.Table.from_pandas(counts, preserve_index=False), alias)
    d = nodes.to_pydict()
    assert d["canonical_name"] == ["Machine Learning", "other"]
    assert d["ent_type"] == ["field", "concept"]
    assert id_map_dict(id_map)["ml"][1] == "Machine Learning"


def test_chunk_plan_change_invalidates_resume(ray_session, tmp_path):
    """Resume matches chunks by id; a different chunk_files (or input file
    set) must trigger a full re-run, never an id-misaligned anti-join."""
    pages = str(tmp_path / "pages")
    synth.write_pages(pages, 120, n_files=4)
    out = str(tmp_path / "out")

    kg.run_pipeline(kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=2))
    baseline = pq.read_table(
        sorted(glob.glob(os.path.join(out, "edges/**/*.parquet"), recursive=True))
    )

    # same corpus, reshaped chunk plan -> everything reprocessed, same graph
    m = kg.run_phase_a(kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=1))
    assert m["chunks_processed"] == m["chunks_total"] == 4
    kg.run_phase_b(kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=1))
    again = pq.read_table(
        sorted(glob.glob(os.path.join(out, "edges/**/*.parquet"), recursive=True))
    )
    assert again.equals(baseline)

    # APPENDING a file (sorts after all existing ones) keeps the finished
    # chunks — per-chunk file lists are compared by id, so this is the safe
    # append-only crawl increment, not stale-id reuse
    extra = synth.generate_shard(99, 10_000, 10_030)
    pq.write_table(extra, os.path.join(pages, "pages-00099.parquet"))
    os.remove(os.path.join(pages, "_SYNTH_OK"))
    m2 = kg.run_phase_a(kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=1))
    assert m2["chunks_total"] == 5
    assert m2["chunks_processed"] == 1  # only the appended chunk

    # PREPENDING a file shifts every chunk id -> every shifted chunk must
    # reprocess (the id-misalignment case the fingerprint exists to stop)
    extra2 = synth.generate_shard(98, 20_000, 20_030)
    pq.write_table(extra2, os.path.join(pages, "aaa-prepend.parquet"))
    m3 = kg.run_phase_a(kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=1))
    assert m3["chunks_total"] == 6
    assert m3["chunks_processed"] == 6  # every chunk id shifted


def test_truncated_run_not_marked_complete(ray_session, tmp_path):
    pages = str(tmp_path / "pages")
    synth.write_pages(pages, 80, n_files=4)
    out = str(tmp_path / "out")
    cfg = kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=1, max_chunks=1)
    kg.run_pipeline(cfg)
    assert not os.path.exists(os.path.join(out, "_COMPLETE"))
    # ensure_complete therefore finishes the job (and then marks it)
    full = kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=1)
    res = kg.ensure_complete(full)
    assert res.get("cached") is not True
    assert os.path.exists(os.path.join(out, "_COMPLETE"))
    # and a config change busts the cache
    res2 = kg.ensure_complete(
        kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=1,
                    lang_allow=frozenset({"en"}))
    )
    assert res2.get("cached") is not True


def test_q94_sliding_distinct_tied_timestamps(ray_session, tmp_path):
    """Events sharing an exact timestamp must all count each other: the
    oracle's window predicate is `e2.ts <= e1.ts`, which includes same-ts
    rows that sort AFTER e1 on the (ts, event_id) tiebreak. The sweep now
    processes equal-ts runs as one block. Pinned testdata has no ties, so
    this synthetic corpus is the only coverage of the tie path."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    from agenticknowledgegraphconstructionsystem_ray.pipelines import temporal

    base = np.int64(1_700_000_000_000_000)  # us
    h = np.int64(3_600_000_000)
    # type A: two rows at the SAME ts from different users (the tie case),
    # one row 30 min later, one row >1h later (eviction of the tied pair).
    # type B: three-way tie with a duplicate user.
    ts = np.array(
        [base, base, base + h // 2, base + h + 1,
         base, base, base, base + h // 4],
        dtype=np.int64,
    )
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(1, 9, dtype=np.int64)),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "user_id": pa.array([1, 2, 3, 4, 10, 11, 10, 12], pa.int64()),
            "event_type": pa.array(["A"] * 4 + ["B"] * 4),
            "value": pa.array([0.0] * 8, pa.float64()),
            "props": pa.array(["{}"] * 8, pa.string()),
        }
    )
    sf = str(tmp_path)
    pq.write_table(tbl, os.path.join(sf, "events.parquet"))

    mine = (
        temporal.q94_sliding_distinct(sf)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    ref = con.execute(temporal.ORACLE_SQL["q94_sliding_distinct"]).df()
    assert mine["nd"].tolist() == ref["nd"].tolist()
    # the tied pair at base must BOTH see 2 distinct users
    assert mine.set_index("event_id")["nd"].loc[[1, 2]].tolist() == [2, 2]
    # the 3-way tie carries users [10, 11, 10] -> 2 distinct each; the
    # later row then sees all three of {10, 11, 12}
    assert mine.set_index("event_id")["nd"].loc[[5, 6, 7, 8]].tolist() == [2, 2, 2, 3]
