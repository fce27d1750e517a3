"""Edge materialization without a Ray shuffle: the driver cuts subject-id
ranges, map tasks sort and slice, reduce tasks merge their own slices
(pipelines/kg._finalize_edges on runtime.range_exchange)."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from agenticknowledgegraphconstructionsystem_ray.pipelines import kg
from agenticknowledgegraphconstructionsystem_ray.runtime import (
    equal_cuts,
    range_slices,
)


def _edges(rows) -> pa.Table:
    subj, pred, obj, url = zip(*rows) if rows else ((), (), (), ())
    return pa.table({
        "subj_id": pa.array(subj, pa.int64()),
        "pred": pa.array(pred, pa.string()),
        "obj_id": pa.array(obj, pa.int64()),
        "url": pa.array(url, pa.string()),
        "row": pa.array(range(len(rows)), pa.int64()),
    })


@st.composite
def _case(draw):
    n_nodes = draw(st.integers(0, 12))
    n_parts = draw(st.integers(1, 5))
    ids = st.integers(-1, max(n_nodes - 1, -1))
    hot = draw(ids)
    subj = st.one_of(ids, st.just(hot))  # a hot subject fills one range
    row = st.tuples(subj, st.sampled_from(["a", "b"]), ids,
                    st.sampled_from(["u1", "u2", "u3"]))
    rows = draw(st.lists(row, max_size=60))
    n_maps = draw(st.integers(1, 4))
    return n_nodes, n_parts, rows, n_maps


@settings(max_examples=200, deadline=None)
@given(_case())
def test_partitioned_sort_equals_one_sort(case):
    """Map tasks over contiguous input pieces, each sorted and cut at the
    subject-id ranges, then one merge per range: the ranges in order are
    Table.equals to one stable sort_by of the whole input, and every row
    lies in its range (-1 in range 0)."""
    n_nodes, n_parts, rows, n_maps = case
    t = _edges(rows)
    cuts = equal_cuts(n_nodes, n_parts)
    assert len(cuts) == n_parts - 1 and cuts == sorted(cuts)
    at = [len(rows) * i // n_maps for i in range(n_maps + 1)]
    mapped = [range_slices(t.slice(a, b - a), kg.EDGE_ORDER, cuts)
              for a, b in zip(at, at[1:])]
    assert all(len(m) == n_parts for m in mapped)
    parts = [kg.merge_edge_slices([m[p] for m in mapped], dedup=False)
             for p in range(n_parts)]
    assert pa.concat_tables(parts).equals(t.sort_by(kg.EDGE_ORDER))
    bounds = [float("-inf"), *cuts, float("inf")]
    for p, part in enumerate(parts):
        for s in part["subj_id"].to_pylist():
            assert (bounds[p] <= s < bounds[p + 1]) or (p == 0 and s == -1)


def test_merge_dedups_within_a_range():
    """With dedup, a range keeps one row per dedup key — the tuple-min
    representative — and every non-key column (validation flags too)
    comes from that row; distinct unknown subjects (-1) both survive."""
    t = pa.table({
        "subj_id": pa.array([-1, -1, 3, 3], pa.int64()),
        "pred": ["uses"] * 4,
        "obj_id": pa.array([5, 5, 5, 5], pa.int64()),
        "subj": ["foo corp", "bar ltd", "Acme", "Acme"],
        "obj": ["Thing"] * 4,
        "url": ["u"] * 4,
        "warc_ts": pa.array([0] * 4, pa.timestamp("us")),
        "confidence": [0.5, 0.6, 0.9, 0.4],
        "context": ["c1", "c2", "c3", "c4"],
        "validated": [True, True, False, True],
    })
    cuts = equal_cuts(10, 2)
    a, b = (range_slices(t.slice(0, 3), kg.EDGE_ORDER, cuts),
            range_slices(t.slice(3), kg.EDGE_ORDER, cuts))
    merged = kg.merge_edge_slices([a[0], b[0]], dedup=True)
    assert merged.column_names == t.column_names
    assert merged.to_pydict()["subj"] == ["bar ltd", "foo corp", "Acme"]
    assert merged["confidence"].to_pylist() == [0.6, 0.5, 0.4]
    assert merged["validated"].to_pylist() == [True, True, True]
    assert kg.merge_edge_slices([a[1], b[1]], dedup=True).num_rows == 0


def _edge_files(out):
    return sorted(glob.glob(os.path.join(out, "edges", "*.parquet")))


def _built_files(out):
    """Edge and phase-A record files of a run, relative to its out dir."""
    return sorted(
        os.path.relpath(f, out)
        for pattern in ("edges/*.parquet", "extracted/*/*/*.parquet")
        for f in glob.glob(os.path.join(out, pattern)))


def test_two_builds_write_identical_edge_files(kg_out, pages_dir, tmp_path):
    """Two builds of one corpus write the same edge and phase-A record
    files: same names, same bytes."""
    out, _ = kg_out
    again = str(tmp_path / "again")
    kg.run_pipeline(kg.KGConfig(pages_dir=pages_dir, out_dir=again,
                                chunk_files=2))
    names = _built_files(out)
    assert names == _built_files(again)
    assert any(n.startswith("extracted") for n in names)
    for n in names:
        with open(os.path.join(out, n), "rb") as fa, \
                open(os.path.join(again, n), "rb") as fb:
            assert fa.read() == fb.read(), n


@pytest.mark.parametrize("global_edge_dedup", [False, True])
def test_edge_path_calls_no_shuffle(kg_out, tmp_path, monkeypatch,
                                    global_edge_dedup):
    """Phase B (default path) calls no Dataset shuffle, with and without
    the global edge dedup, and writes the same edges."""
    out, _ = kg_out
    calls = []
    for name in ("sort", "groupby", "union", "repartition",
                 "random_shuffle"):
        def spy(self, *a, _name=name, _orig=getattr(rd.Dataset, name), **k):
            calls.append(_name)
            return _orig(self, *a, **k)

        monkeypatch.setattr(rd.Dataset, name, spy)
    merged = str(tmp_path / "merged")
    kg.merge_runs([out], merged, global_edge_dedup=global_edge_dedup)
    assert calls == []
    assert pq.read_table(_edge_files(merged)).equals(
        pq.read_table(_edge_files(out)))
