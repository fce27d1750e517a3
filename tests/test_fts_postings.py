"""The full-text index layout: one (term, url)-sorted segment per build
task, corpus stats written at build time, and term filters that prune by
row-group statistics — built with no Ray Data at all."""

from __future__ import annotations

import collections
import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agenticknowledgegraphconstructionsystem_ray.pipelines import kgqueries
from agenticknowledgegraphconstructionsystem_ray.pipelines.scoring import (
    _TOKEN_RE,
)

CAP = kgqueries.FTS_POS_CAP


def _fake_run(run_dir: str, files: list) -> str:
    """A run dir holding only page records (url, text), one file per
    chunk — all that build_fts_postings reads."""
    for i, docs in enumerate(files):
        d = os.path.join(run_dir, "extracted", f"chunk={i:06d}", "kind=page")
        os.makedirs(d)
        pq.write_table(pa.table({
            "url": pa.array([u for u, _ in docs], pa.string()),
            "text": pa.array([t for _, t in docs], pa.string()),
        }), os.path.join(d, "part-0.parquet"))
    return run_dir


def _reference_rows(docs: list) -> list:
    """(term, url, tf, dl, pos) rows of the layout, by plain Python."""
    rows = []
    for url, text in docs:
        toks = _TOKEN_RE.findall(text.lower())
        pos = collections.defaultdict(list)
        for i, w in enumerate(toks, start=1):
            pos[w].append(i)
        rows += [(w, url, len(p), len(toks), p[:CAP]) for w, p in pos.items()]
        rows.append(("", url, 0, len(toks), []))
    return sorted(rows)


def _segments(root: str) -> list:
    return sorted(glob.glob(os.path.join(root, "postings", "*.parquet")))


def _rows(table: pa.Table) -> list:
    return list(zip(*(table[c].to_pylist()
                      for c in ("term", "url", "tf", "dl", "pos"))))


_WORDS = st.sampled_from(["the", "cat", "Gaussian", "splatting", "x1",
                          "rep", "Ünïcode", "a-b"])
_TEXT = st.one_of(
    st.just(""),
    st.lists(_WORDS, max_size=12).map(" ".join),
    st.integers(CAP - 1, CAP + 20).map(lambda n: "rep " * n + "cat"),
    st.text(max_size=40),
)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=st.lists(st.lists(_TEXT, min_size=1, max_size=6),
                      min_size=1, max_size=5))
def test_segments_match_plain_python_reference(ray_session, tmp_path, files):
    work = tmp_path / f"ex{len(os.listdir(tmp_path))}"
    named = [[(f"https://h{j % 3}.example/{i}/{j}", t)
              for j, t in enumerate(texts)]
             for i, texts in enumerate(files)]
    run = _fake_run(str(work / "run"), named)
    root = kgqueries.build_fts_postings(run, str(work / "fts"))

    docs = [d for f in named for d in f]
    got = []
    for seg in _segments(root):
        rows = _rows(pq.read_table(seg))
        keys = [(term, url) for term, url, *_ in rows]
        assert keys == sorted(keys), f"{seg} not sorted by (term, url)"
        got += rows
    assert sorted(got) == _reference_rows(docs)
    assert len(_segments(root)) <= len(files)

    with open(os.path.join(root, "stats.json")) as f:
        stats = json.load(f)
    want_tokens = sum(len(_TOKEN_RE.findall(t.lower())) for _, t in docs)
    assert stats == {"n_docs": len(docs), "n_tokens": want_tokens}
    shutil.rmtree(work)


def test_build_runs_no_all_to_all(ray_session, tmp_path, monkeypatch):
    """build_fts_postings makes no Dataset and calls no Dataset shuffle;
    the same spies see the query's read and coalesce, so they would see
    either in the build."""
    calls = []
    for name in ("__init__", "sort", "groupby", "union", "repartition",
                 "random_shuffle"):
        def spy(self, *a, _name=name, _orig=getattr(rd.Dataset, name), **k):
            calls.append(_name)
            return _orig(self, *a, **k)

        monkeypatch.setattr(rd.Dataset, name, spy)
    docs = [[(f"https://h.example/{i}/{j}", f"cat sat {i} mat {j}")
             for j in range(5)] for i in range(3)]
    run = _fake_run(str(tmp_path / "run"), docs)
    root = kgqueries.build_fts_postings(run, str(tmp_path / "fts"))
    assert calls == []
    kgqueries._read_postings(root, ["cat", "mat"], ["term", "url"])
    assert "__init__" in calls and "repartition" in calls


def test_term_filter_prunes_row_groups(ray_session, tmp_path, monkeypatch):
    """On a segment of many row groups, the query filter keeps exactly
    the groups that hold a probed term (an is_in filter keeps more
    under pyarrow 16)."""
    monkeypatch.setattr(kgqueries, "FTS_ROW_GROUP", 16)
    docs = [(f"https://h.example/{j}", f"w{j % 40} w{(j * 7) % 40} common")
            for j in range(60)]
    run = _fake_run(str(tmp_path / "run"), [docs])
    root = kgqueries.build_fts_postings(run, str(tmp_path / "fts"))
    (seg,) = _segments(root)
    md = pq.read_metadata(seg)
    probe = ["w13", "w27"]
    holding = {
        g for g in range(md.num_row_groups)
        if set(probe) & set(pq.ParquetFile(seg).read_row_group(
            g, columns=["term"])["term"].to_pylist())
    }
    (frag,) = pads.dataset(seg, format="parquet").get_fragments()
    kept = {rg.id
            for f in frag.split_by_row_group(kgqueries._term_filter(probe))
            for rg in f.row_groups}
    assert md.num_row_groups > 8
    assert kept == holding


def test_query_rejects_a_root_of_another_layout(ray_session, tmp_path):
    """An index root of another layout version (a cli update chain made
    before v5) raises instead of reading as an empty or partial index."""
    run = _fake_run(str(tmp_path / "run"),
                    [[("https://h.example/0", "cat sat")]])
    root = kgqueries.build_fts_postings(run, str(tmp_path / "fts"))
    contract = json.loads((tmp_path / "fts" / "_DONE").read_text())
    (tmp_path / "fts" / "_DONE").write_text(json.dumps({**contract, "v": 4}))
    with pytest.raises(ValueError, match="layout v4"):
        kgqueries._fts_stats(root)
    os.remove(tmp_path / "fts" / "_DONE")
    with pytest.raises(FileNotFoundError, match="_DONE"):
        kgqueries._fts_files(root)


def test_and_query_with_a_zero_df_term_stops_after_the_df_pass(
        ray_session, tmp_path, monkeypatch):
    """An AND query with a term in no document returns the empty result
    right after the df pass: no url groupby, no top-k collection, no
    enrichment scan — the same (empty, typed) answer as before."""
    docs = [[(f"https://h.example/{i}/{j}", f"cat sat {i} mat {j}")
             for j in range(5)] for i in range(3)]
    run = _fake_run(str(tmp_path / "run"), docs)
    root = kgqueries.build_fts_postings(run, str(tmp_path / "fts"))
    calls = []
    for name in ("groupby", "take_all", "iter_batches"):
        def spy(self, *a, _name=name, _orig=getattr(rd.Dataset, name), **k):
            calls.append(_name)
            return _orig(self, *a, **k)

        monkeypatch.setattr(rd.Dataset, name, spy)
    got = kgqueries._search_indexed_over(root, run, ["cat", "zzqxnone"], 5)
    assert calls == ["iter_batches"]  # the df pass only
    assert got.num_rows == 0
    assert got.schema == pa.schema([
        ("url", pa.string()), ("bm25_ppm", pa.int64()),
        ("n_entities", pa.int64()), ("n_mentions", pa.int64())])
