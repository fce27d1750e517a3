"""End-to-end pipeline conformance vs the sequential oracle (SURVEY.md §5):
byte-identical text per url, exact triple P/R, node-count parity, and the
graph invariants the reference enforces as DB constraints
(db_init.py:86,92,121,128,131)."""

import glob
import json
import os

import pyarrow.parquet as pq

from agenticknowledgegraphconstructionsystem_ray import metrics, oracle, synth


def _read(out, pattern, columns=None):
    files = sorted(glob.glob(os.path.join(out, pattern), recursive=True))
    assert files, f"no files for {pattern}"
    return pq.read_table(files, columns=columns)


def test_text_byte_identical(kg_out, pages_dir):
    out, _ = kg_out
    golden = oracle.oracle_text(pages_dir)
    t = _read(out, "extracted/chunk=*/kind=page/*.parquet", columns=["url", "text"])
    assert t.num_rows == len(golden)
    for url, text in zip(t.column("url").to_pylist(), t.column("text").to_pylist()):
        assert text == golden[url], f"text mismatch for {url}"


def test_triples_precision_recall(kg_out, pages_dir):
    out, _ = kg_out
    _, golden = oracle.oracle_graph(pages_dir, synth.alias_dict())
    e = _read(out, "edges/**/*.parquet", columns=["subj", "pred", "obj"])
    emitted = set(
        zip(
            e.column("subj").to_pylist(),
            e.column("pred").to_pylist(),
            e.column("obj").to_pylist(),
        )
    )
    p, r, _ = metrics.precision_recall(emitted, golden)
    assert p >= 0.95 and r >= 0.95, (p, r)
    # both sides deterministic -> expect exact match
    assert emitted == golden


def test_nodes_match_oracle(kg_out, pages_dir):
    out, _ = kg_out
    nodes_g, _ = oracle.oracle_graph(pages_dir, synth.alias_dict())
    n = _read(out, "nodes/*.parquet")
    mine = {
        c: (mc, lc, t)
        for c, mc, lc, t in zip(
            n.column("canonical_name").to_pylist(),
            n.column("mention_count").to_pylist(),
            n.column("link_count").to_pylist(),
            n.column("ent_type").to_pylist(),
        )
    }
    assert set(mine) == set(nodes_g)
    for c, g in nodes_g.items():
        assert mine[c] == (g["mention_count"], g["link_count"], g["ent_type"]), c


def test_graph_invariants(kg_out):
    out, _ = kg_out
    e = _read(out, "edges/**/*.parquet")
    d = e.to_pydict()
    # unique (subj_id, pred, obj_id, url) after dedup — db_init.py:128 analog
    keys = list(zip(d["subj_id"], d["pred"], d["obj_id"], d["url"]))
    assert len(keys) == len(set(keys))
    # confidence in [0,1] — db_init.py:121 CHECK
    assert all(0.0 <= c <= 1.0 for c in d["confidence"])
    # validated rows have no self-reference — db_init.py:131 CHECK
    for s, o, v in zip(d["subj_id"], d["obj_id"], d["validated"]):
        if v:
            assert s != o
    # entity ids resolve (no unmapped -1)
    assert all(s >= 0 for s in d["subj_id"]) and all(o >= 0 for o in d["obj_id"])
    # edges sorted by (subj_id, pred, obj_id, url), over the files in file
    # order; each file is one subject-id range, so no subject spans files
    assert keys == sorted(keys)
    ranges = [
        (min(ids), max(ids))
        for ids in (pq.read_table(f, columns=["subj_id"])["subj_id"]
                    .to_pylist()
                    for f in sorted(glob.glob(os.path.join(out, "edges",
                                                           "*.parquet"))))
    ]
    assert ranges and all(hi < lo for (_, hi), (lo, _) in zip(ranges,
                                                               ranges[1:]))

    n = _read(out, "nodes/*.parquet").to_pydict()
    assert n["entity_id"] == sorted(n["entity_id"])
    assert all(mc >= lc for mc, lc in zip(n["mention_count"], n["link_count"]))
    assert all(0.0 <= s <= 1.0 for s in n["max_score"])


def test_validation_report(kg_out):
    out, _ = kg_out
    with open(os.path.join(out, "validation-results.json")) as f:
        rep = json.load(f)
    s = rep["summary"]
    assert s["total_entities"] > 0 and s["total_relationships"] > 0
    assert set(s["issues_by_severity"]) == {"error", "warning", "info"}
    # the partitioned issues table row count matches the summary total
    issues = _read(out, "validation/issues/*.parquet")
    assert issues.num_rows == s["total_issues"]
    assert set(issues.column_names) == {"domain", "key", "severity", "rule", "message"}


def test_lang_filter(pages_dir, tmp_path):
    """The lang-allow filter drops non-en pages from extraction (but text
    extraction still covers every url)."""
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    out = str(tmp_path / "out_en")
    cfg = kg.KGConfig(
        pages_dir=pages_dir, out_dir=out, chunk_files=3,
        lang_allow=frozenset({"en"}),
    )
    kg.run_pipeline(cfg)
    _, golden_en = oracle.oracle_graph(
        pages_dir, synth.alias_dict(), lang_allow=frozenset({"en"})
    )
    e = _read(out, "edges/**/*.parquet", columns=["subj", "pred", "obj"])
    emitted = set(
        zip(
            e.column("subj").to_pylist(),
            e.column("pred").to_pylist(),
            e.column("obj").to_pylist(),
        )
    )
    assert emitted == golden_en
    _, golden_all = oracle.oracle_graph(pages_dir, synth.alias_dict())
    assert len(golden_en) < len(golden_all)


def test_warm_model_extractors_output_identical():
    """The warm-model bench stubs (WarmModelExtractor: load cost once per
    actor; PerBatchLoadExtractor: cost per batch) must be output-identical
    to the production TripleExtractor — they exist only to reshape COST."""
    import pyarrow as pa

    from agenticknowledgegraphconstructionsystem_ray import synth
    from agenticknowledgegraphconstructionsystem_ray.stages.triples import (
        PerBatchLoadExtractor,
        TripleExtractor,
        WarmModelExtractor,
    )

    batch = pa.table(
        {
            "url": pa.array(
                ["http://a.example/x", "http://b.example/y"], pa.string()
            ),
            "warc_ts": pa.array([1, 2], pa.timestamp("us")),
            "text": pa.array(
                [
                    "Neural Radiance Fields improve view synthesis. "
                    "Gaussian Splatting renders scenes.",
                    "Plenoxels accelerate training.",
                ],
                pa.string(),
            ),
            "lang": pa.array(["en", "en"], pa.string()),
        }
    )
    alias = synth.alias_dict()
    base = TripleExtractor(alias_dict=alias)(batch)
    warm = WarmModelExtractor(load_s=0.01, alias_dict=alias)(batch)
    perb = PerBatchLoadExtractor(load_s=0.0, alias_dict=alias)(batch)
    assert base.equals(warm)
    assert base.equals(perb)


def test_merge_runs_bit_identical_to_full_run(ray_session, tmp_path):
    """merge_runs over two disjoint half-corpus runs must reproduce the
    full-corpus run BIT-EXACTLY: nodes (accumulated counts, reassigned
    dense ids), edges (re-id'd, re-sorted) and validation issues. This is
    the engine's ON CONFLICT upsert analog (database.ts:102-116) with
    deterministic ids instead of insertion-order SERIAL."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from agenticknowledgegraphconstructionsystem_ray import synth
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    root = str(tmp_path)
    pages = os.path.join(root, "pages")
    synth.write_pages(pages, 400, n_files=6)
    files = sorted(glob.glob(os.path.join(pages, "*.parquet")))

    halves = []
    for name, part in (("a", files[:3]), ("b", files[3:])):
        pdir = os.path.join(root, f"pages_{name}")
        os.makedirs(pdir)
        for f in part:
            os.symlink(f, os.path.join(pdir, os.path.basename(f)))
        out = os.path.join(root, f"out_{name}")
        kg.run_pipeline(kg.KGConfig(pages_dir=pdir, out_dir=out, chunk_files=2))
        halves.append(out)

    merged = os.path.join(root, "merged")
    res = kg.merge_runs(halves, merged)
    full = os.path.join(root, "full")
    kg.run_pipeline(kg.KGConfig(pages_dir=pages, out_dir=full, chunk_files=2))

    def tbl(out, sub):
        return pq.read_table(
            sorted(glob.glob(os.path.join(out, sub, "**", "*.parquet"),
                             recursive=True))
        )

    nodes_m, nodes_f = tbl(merged, "nodes"), tbl(full, "nodes")
    assert nodes_m.equals(nodes_f)
    edges_m, edges_f = tbl(merged, "edges"), tbl(full, "edges")
    assert edges_m.equals(edges_f)
    assert res["n_edges"] == edges_f.num_rows

    def issues(out):
        t = tbl(out, os.path.join("validation", "issues"))
        return t.sort_by([(c, "ascending") for c in t.column_names])

    assert issues(merged).equals(issues(full))


def test_merge_runs_multiway(ray_session, tmp_path):
    """merge_runs must hold for MULTI-way merges: three third-corpus runs
    merged == one full run, bit-exact."""
    import glob
    import os

    import pyarrow.parquet as pq

    from agenticknowledgegraphconstructionsystem_ray import synth
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    root = str(tmp_path)
    pages = os.path.join(root, "pages")
    synth.write_pages(pages, 300, n_files=6)
    files = sorted(glob.glob(os.path.join(pages, "*.parquet")))

    thirds = []
    for i in range(3):
        pdir = os.path.join(root, f"pages_{i}")
        os.makedirs(pdir)
        for f in files[2 * i: 2 * i + 2]:
            os.symlink(f, os.path.join(pdir, os.path.basename(f)))
        out = os.path.join(root, f"out_{i}")
        kg.run_pipeline(kg.KGConfig(pages_dir=pdir, out_dir=out, chunk_files=2))
        thirds.append(out)

    merged = os.path.join(root, "merged")
    kg.merge_runs(thirds, merged)
    full = os.path.join(root, "full")
    kg.run_pipeline(kg.KGConfig(pages_dir=pages, out_dir=full, chunk_files=2))

    def tbl(out, sub):
        return pq.read_table(
            sorted(glob.glob(os.path.join(out, sub, "**", "*.parquet"),
                             recursive=True))
        )

    for sub in ("nodes", "edges"):
        m, f = tbl(merged, sub), tbl(full, sub)
        assert m.select(sorted(m.column_names)).equals(
            f.select(sorted(f.column_names))
        ), sub


def test_phase_b_creates_no_dataset(kg_out, tmp_path, monkeypatch):
    """Phase B runs no Ray Data: the merge is one Arrow group_by on the
    driver and the edges go through plain tasks."""
    import ray.data as rd

    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    out, _ = kg_out
    made = []
    orig = rd.Dataset.__init__

    def spy(self, *args, **kwargs):
        made.append(type(self).__name__)
        orig(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "__init__", spy)
    res = kg.merge_runs([out], str(tmp_path / "merged"))
    assert res["n_edges"] > 0
    assert made == []
    rd.from_items([{"x": 1}])  # control: the spy sees a Dataset being made
    assert made


def test_run_pipeline_creates_no_dataset(pages_dir, tmp_path, monkeypatch):
    """A whole build runs no Ray Data: phase A is plain tasks over each
    chunk's file groups, phase B as above."""
    import ray.data as rd

    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    made = []
    orig = rd.Dataset.__init__

    def spy(self, *args, **kwargs):
        made.append(type(self).__name__)
        orig(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "__init__", spy)
    res = kg.run_pipeline(kg.KGConfig(pages_dir=pages_dir,
                                      out_dir=str(tmp_path / "out"),
                                      chunk_files=2))
    assert res["pages_processed"] == 300 and res["n_edges"] > 0
    assert made == []
    rd.from_items([{"x": 1}])  # control: the spy sees a Dataset being made
    assert made


def test_pages_needing_edges_nonempty(ray_session, tmp_path):
    """A page that links an entity but yields no SVO triple must appear in
    pages_needing_edges (the getPapersNeedingRelationships analog); pages
    with triples must not."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg
    from agenticknowledgegraphconstructionsystem_ray.pipelines.kgqueries import (
        pages_needing_edges,
    )
    from agenticknowledgegraphconstructionsystem_ray.synth import PAGES

    pages = str(tmp_path / "pages")
    os.makedirs(pages)
    rows = [
        # mention, no verb pattern -> no triple
        ("https://a.example/1", b"<html><body><p>Neural Radiance Fields."
                                b"</p></body></html>"),
        # subject-verb-object -> a triple
        ("https://a.example/2", b"<html><body><p>Gaussian Splatting extends "
                                b"Neural Radiance Fields.</p></body></html>"),
        # no entity at all
        ("https://a.example/3", b"<html><body><p>nothing here.</p></body></html>"),
    ]
    t = pa.Table.from_arrays(
        [
            pa.array([r[0] for r in rows], pa.string()),
            pa.array([1, 2, 3], pa.timestamp("us")),
            pa.array([r[1] for r in rows], pa.binary()),
            pa.array([None] * 3, pa.string()),
            pa.array(["en"] * 3, pa.string()),
        ],
        schema=PAGES,
    )
    pq.write_table(t, os.path.join(pages, "pages-00000.parquet"))
    out = str(tmp_path / "out")
    kg.run_pipeline(kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=1))

    res = pages_needing_edges(out)
    assert res["url"].to_pylist() == ["https://a.example/1"]
    assert res["n_entities"].to_pylist()[0] >= 1


def test_merge_runs_recrawl_overlap_with_global_dedup(ray_session, tmp_path):
    """Re-crawl case: two runs whose url sets OVERLAP (a file crawled in
    both) violate merge_runs' disjointness assumption — with
    global_edge_dedup=True the merged graph must equal the full run over
    the deduplicated corpus, exercising the D4 re-crawl path end to end.

    Mention counts intentionally DOUBLE for re-crawled pages (the
    reference's ON CONFLICT mention_count accumulation counts every
    observation; db_init.py documents no url-dedup before extraction), so
    node parity is checked on identity columns, not counts; the edge
    table, where D4 defines dedup, must match exactly."""
    import glob
    import os

    import pyarrow.parquet as pq

    from agenticknowledgegraphconstructionsystem_ray import synth
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    root = str(tmp_path)
    pages = os.path.join(root, "pages")
    synth.write_pages(pages, 300, n_files=6)
    files = sorted(glob.glob(os.path.join(pages, "*.parquet")))

    halves = []
    # overlap: file 2 appears in BOTH runs
    for name, part in (("a", files[:3]), ("b", files[2:])):
        pdir = os.path.join(root, f"pages_{name}")
        os.makedirs(pdir)
        for f in part:
            os.symlink(f, os.path.join(pdir, os.path.basename(f)))
        out = os.path.join(root, f"out_{name}")
        kg.run_pipeline(kg.KGConfig(pages_dir=pdir, out_dir=out, chunk_files=2))
        halves.append(out)

    merged = os.path.join(root, "merged")
    kg.merge_runs(halves, merged, global_edge_dedup=True)
    full = os.path.join(root, "full")
    kg.run_pipeline(kg.KGConfig(pages_dir=pages, out_dir=full, chunk_files=2))

    def tbl(out, sub, columns=None):
        return pq.read_table(
            sorted(glob.glob(os.path.join(out, sub, "**", "*.parquet"),
                             recursive=True)),
            columns=columns,
        )

    edges_m = tbl(merged, "edges")
    edges_f = tbl(full, "edges")
    assert edges_m.equals(edges_f)

    id_cols = ["entity_id", "canonical_name", "ent_type"]
    assert tbl(merged, "nodes", id_cols).equals(tbl(full, "nodes", id_cols))
    # re-crawled pages counted twice, never less than the full run
    m = tbl(merged, "nodes", ["canonical_name", "mention_count"])
    f = tbl(full, "nodes", ["canonical_name", "mention_count"])
    fm = dict(zip(f["canonical_name"].to_pylist(),
                  f["mention_count"].to_pylist()))
    for name, mc in zip(m["canonical_name"].to_pylist(),
                        m["mention_count"].to_pylist()):
        assert mc >= fm[name]


def test_merge_runs_refuses_mixed_semantics(ray_session, tmp_path):
    """Runs extracted under different semantics (e.g. a lang filter) must
    be refused by merge_runs, not silently merged."""
    import os

    import pytest

    from agenticknowledgegraphconstructionsystem_ray import synth
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    root = str(tmp_path)
    pages = os.path.join(root, "pages")
    synth.write_pages(pages, 60, n_files=2)
    out_a = os.path.join(root, "out_a")
    out_b = os.path.join(root, "out_b")
    kg.run_pipeline(kg.KGConfig(pages_dir=pages, out_dir=out_a, chunk_files=1))
    kg.run_pipeline(
        kg.KGConfig(
            pages_dir=pages, out_dir=out_b, chunk_files=1,
            lang_allow=frozenset({"en"}),
        )
    )
    with pytest.raises(ValueError, match="extraction-semantics"):
        kg.merge_runs([out_a, out_b], os.path.join(root, "merged"))


def test_alias_dict_and_fingerprint_once_per_run(pages_dir, tmp_path, monkeypatch):
    """A run builds the default alias dict at most once per process and
    computes its extraction-semantics fingerprint once: a cold build, and
    the update shape (delta ensure_complete + merge_runs). Every caller
    gets its own copy of the alias dict, so none is shared."""
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    fingerprints = []
    real = kg._semantic_fingerprint

    def counting(cfg):
        fingerprints.append(cfg.out_dir)
        return real(cfg)

    monkeypatch.setattr(kg, "_semantic_fingerprint", counting)
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    dirs = {}
    for name, part in (("base", files[:-1]), ("delta", files[-1:])):
        dirs[name] = str(tmp_path / f"pages_{name}")
        os.makedirs(dirs[name])
        for f in part:
            os.symlink(f, os.path.join(dirs[name], os.path.basename(f)))

    synth._alias_items.cache_clear()
    base_out = str(tmp_path / "base_out")
    kg.run_pipeline(kg.KGConfig(pages_dir=dirs["base"], out_dir=base_out,
                                chunk_files=2))
    assert fingerprints == [base_out]
    assert synth._alias_items.cache_info().misses == 1

    fingerprints.clear()
    synth._alias_items.cache_clear()
    delta_out = str(tmp_path / "delta_out")
    kg.ensure_complete(kg.KGConfig(pages_dir=dirs["delta"], out_dir=delta_out,
                                   chunk_files=2))
    kg.merge_runs([base_out, delta_out], str(tmp_path / "merged"))
    assert fingerprints == [delta_out]
    assert synth._alias_items.cache_info().misses == 1

    # a copy per caller, never shared
    cfg = kg.KGConfig(pages_dir=pages_dir, out_dir="a")
    mine = cfg.alias_dict()
    assert mine is not cfg.alias_dict() and mine == cfg.alias_dict()
    mine["planted"] = ("Planted", "concept")
    assert "planted" not in cfg.alias_dict()
    assert "planted" not in synth.alias_dict()
