"""The documented KGConfig branches must produce the same graph as the
default path: the global edge dedup (incl. the duplicate-url corpus it
exists for) and the refusal of a foreign output directory."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from agenticknowledgegraphconstructionsystem_ray import synth
from agenticknowledgegraphconstructionsystem_ray.pipelines import kg


def _edges(out):
    return pq.read_table(
        sorted(glob.glob(os.path.join(out, "edges/**/*.parquet"), recursive=True))
    )


@pytest.fixture(scope="module")
def small_pages(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("cfg_pages")
    synth.write_pages(str(d), 120, n_files=4)
    return str(d)


@pytest.fixture(scope="module")
def default_edges(small_pages, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cfg_default"))
    kg.run_pipeline(kg.KGConfig(pages_dir=small_pages, out_dir=out, chunk_files=2))
    return _edges(out)


def test_global_dedup_noop_on_unique_urls(small_pages, tmp_path, default_edges):
    out = str(tmp_path / "gdedup")
    kg.run_pipeline(
        kg.KGConfig(
            pages_dir=small_pages, out_dir=out, chunk_files=2,
            global_edge_dedup=True,
        )
    )
    e = _edges(out)
    # same edge set (column order/values identical after the extra shuffle)
    assert e.num_rows == default_edges.num_rows
    key_cols = ["subj_id", "pred", "obj_id", "url"]
    assert e.select(key_cols).equals(default_edges.select(key_cols))


def test_global_dedup_collapses_duplicate_urls(tmp_path, ray_session):
    """The re-crawl scenario global_edge_dedup exists for: the same url
    appears in two input files; without the global shuffle the edge table
    would contain duplicate (subj_id, pred, obj_id, url) rows."""
    src = synth.generate_shard(0, 0, 40)
    pages_dir = tmp_path / "dup_pages"
    pages_dir.mkdir()
    pq.write_table(src, str(pages_dir / "pages-00000.parquet"))
    pq.write_table(src, str(pages_dir / "pages-00001.parquet"))  # re-crawl

    out = str(tmp_path / "dup_out")
    kg.run_pipeline(
        kg.KGConfig(
            pages_dir=str(pages_dir), out_dir=out, chunk_files=1,
            global_edge_dedup=True,
        )
    )
    e = _edges(out).to_pydict()
    keys = list(zip(e["subj_id"], e["pred"], e["obj_id"], e["url"]))
    assert len(keys) == len(set(keys))  # dedup across files worked
    assert keys == sorted(keys)  # still globally sorted after the shuffle


def test_check_layout_refuses_foreign_dir(tmp_path, small_pages):
    """Pointing out_dir at a pre-existing non-pipeline directory must raise,
    never delete its contents."""
    out = tmp_path / "home_like"
    out.mkdir()
    (out / "precious.txt").write_text("do not delete")
    cfg = kg.KGConfig(pages_dir=small_pages, out_dir=str(out))
    with pytest.raises(ValueError, match="refusing"):
        kg.run_phase_a(cfg)
    assert (out / "precious.txt").read_text() == "do not delete"


def test_global_dedup_keeps_distinct_unknown_entities(tmp_path, ray_session):
    """Two triples on one url whose subjects are DISTINCT unknown surfaces
    (both id -1) must both survive global_edge_dedup — the dedup key
    includes the carried names, not just the -1 sentinel ids — both in
    one batch and in the edge reduce that merges two map tasks' slices."""
    import pyarrow as pa

    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg
    from agenticknowledgegraphconstructionsystem_ray.stages.canonicalize import (
        dedup_edges_batch,
    )

    edges = pa.table(
        {
            "subj_id": pa.array([-1, -1], pa.int64()),
            "pred": ["uses", "uses"],
            "obj_id": pa.array([5, 5], pa.int64()),
            "subj": ["foo corp", "bar ltd"],
            "obj": ["Thing", "Thing"],
            "url": ["u", "u"],
            "warc_ts": pa.array([0, 0], pa.timestamp("us")),
            "confidence": [0.5, 0.6],
            "context": ["c1", "c2"],
        }
    )
    out = dedup_edges_batch(edges)
    assert out.num_rows == 2
    cuts = kg.subject_cuts(8, 3)
    slices = [kg.partition_edges(edges.slice(i, 1), cuts)[0] for i in (0, 1)]
    assert kg.merge_edge_slices(slices, dedup=True).num_rows == 2
