"""cli update — the composed incremental-crawl flagship.

One command takes a completed base run plus a delta pages dir and refreshes
every artifact: delta extract -> merge_runs -> FTS delta index ->
link-table delta merge. The proof standard: every merged artifact must be
byte-identical to a COLD FULL REBUILD over base∪delta pages (the
reference's ledger-driven resume, db_init.py:150-159 / database.ts:66-81,
elevated to snapshot increments)."""

from __future__ import annotations

import glob
import os
import shutil

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def update_env(tmp_path_factory, ray_session):
    from agenticknowledgegraphconstructionsystem_ray import synth
    from agenticknowledgegraphconstructionsystem_ray.cli import main as cli_main
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    root = tmp_path_factory.mktemp("update")
    pages = str(root / "pages_all")
    synth.write_pages(pages, 240, n_files=6)
    files = sorted(glob.glob(os.path.join(pages, "*.parquet")))

    base_pages = str(root / "pages_base")
    delta_pages = str(root / "pages_delta")
    for d, part in ((base_pages, files[:4]), (delta_pages, files[4:])):
        os.makedirs(d)
        for f in part:
            os.symlink(f, os.path.join(d, os.path.basename(f)))

    base_out = str(root / "base_out")
    kg.ensure_complete(kg.KGConfig(pages_dir=base_pages, out_dir=base_out,
                                   chunk_files=2))

    out = str(root / "merged")
    rc = cli_main([
        "update", "--base-pages", base_pages, "--base-out", base_out,
        "--delta-pages", delta_pages, "--out", out, "--chunk-files", "2",
    ])
    assert rc == 0

    full_out = str(root / "full_out")
    kg.ensure_complete(kg.KGConfig(pages_dir=pages, out_dir=full_out,
                                   chunk_files=2))
    return {
        "pages": pages, "files": files, "base_pages": base_pages,
        "delta_pages": delta_pages, "base_out": base_out, "out": out,
        "full_out": full_out,
    }


def _edges(out_dir: str):
    return pq.read_table(sorted(
        glob.glob(os.path.join(out_dir, "edges/**/*.parquet"),
                  recursive=True)
    ))


def _nodes(out_dir: str):
    return pq.read_table(sorted(
        glob.glob(os.path.join(out_dir, "nodes", "*.parquet"))
    ))


def test_update_graph_matches_cold_rebuild(update_env):
    e = update_env
    assert _edges(e["out"]).equals(_edges(e["full_out"]))
    assert _nodes(e["out"]).equals(_nodes(e["full_out"]))


def test_update_fts_union_matches_full_index(update_env, tmp_path):
    """BM25 search over fts_base ∪ fts_delta == search over one index
    built cold from the full run — same top-K, same scores."""
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kgqueries

    e = update_env
    full_root = kgqueries.build_fts_postings(
        e["full_out"], str(tmp_path / "fts_full"))
    q = list(kgqueries.KG_SEARCH_QUERY)
    K = kgqueries.KG_SEARCH_K

    got = kgqueries._search_indexed_over(
        [os.path.join(e["out"], "fts_base"),
         os.path.join(e["out"], "fts_delta")],
        [e["base_out"], os.path.join(e["out"], "delta_run")], q, K)
    want = kgqueries._search_indexed_over(full_root, e["full_out"], q, K)
    assert got.equals(want)
    shutil.rmtree(full_root, ignore_errors=True)


def test_update_links_match_cold_rebuild(update_env, tmp_path):
    from agenticknowledgegraphconstructionsystem_ray.pipelines import weblinks

    e = update_env
    merged = pq.read_table(sorted(glob.glob(
        os.path.join(e["out"], "links", "links", "*.parquet"))))
    full_root = weblinks._ensure_link_tables_for(
        e["files"], str(tmp_path / "links_full"))
    full = pq.read_table(sorted(glob.glob(
        os.path.join(full_root, "links", "*.parquet"))))
    key = lambda t: sorted(zip(t["src_host"].to_pylist(),
                               t["dst_host"].to_pylist(),
                               t["n_links"].to_pylist()))
    assert key(merged) == key(full)
    shutil.rmtree(full_root, ignore_errors=True)


def test_chained_updates_match_cold_rebuild(update_env, tmp_path):
    """Daily increments compound: update(update(base, d1), d2) must equal
    the cold rebuild — the _RUNS/_FTS manifests make a prior update dir a
    valid --base-out, with its FTS roots and merged link table reused
    verbatim (zero base work in update #2)."""
    import json

    from agenticknowledgegraphconstructionsystem_ray.cli import main as cli_main
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kgqueries

    e = update_env
    files = e["files"]
    # re-split: base = 3 files, d1 = 2, d2 = 1 (disjoint from update_env's
    # 4+2 split on purpose — fresh run dirs under tmp_path)
    parts = {"b": files[:3], "d1": files[3:5], "d2": files[5:]}
    dirs = {}
    for name, part in parts.items():
        d = str(tmp_path / f"pages_{name}")
        os.makedirs(d)
        for f in part:
            os.symlink(f, os.path.join(d, os.path.basename(f)))
        dirs[name] = d

    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    base_out = str(tmp_path / "base_out")
    kg.ensure_complete(kg.KGConfig(pages_dir=dirs["b"], out_dir=base_out,
                                   chunk_files=2))
    out1 = str(tmp_path / "u1")
    assert cli_main([
        "update", "--base-pages", dirs["b"], "--base-out", base_out,
        "--delta-pages", dirs["d1"], "--out", out1, "--chunk-files", "2",
    ]) == 0
    out2 = str(tmp_path / "u2")
    # NOTE: no --base-pages — out1 carries its own link table + manifests
    assert cli_main([
        "update", "--base-out", out1,
        "--delta-pages", dirs["d2"], "--out", out2, "--chunk-files", "2",
    ]) == 0

    # graph parity vs the cold full rebuild over all six files
    assert _edges(out2).equals(_edges(e["full_out"]))
    assert _nodes(out2).equals(_nodes(e["full_out"]))

    # FTS chain: three index roots, union search == full-index search
    with open(os.path.join(out2, "_FTS")) as f:
        roots = json.load(f)
    assert len(roots) == 3
    with open(os.path.join(out2, "_RUNS")) as f:
        runs = json.load(f)
    assert len(runs) == 3
    q, K = list(kgqueries.KG_SEARCH_QUERY), kgqueries.KG_SEARCH_K
    full_root = kgqueries.build_fts_postings(
        e["full_out"], str(tmp_path / "fts_full_chain"))
    got = kgqueries._search_indexed_over(roots, runs, q, K)
    want = kgqueries._search_indexed_over(full_root, e["full_out"], q, K)
    assert got.equals(want)

    # link-table parity vs a cold build over all six files
    from agenticknowledgegraphconstructionsystem_ray.pipelines import weblinks

    merged = pq.read_table(sorted(glob.glob(
        os.path.join(out2, "links", "links", "*.parquet"))))
    full_links = weblinks._ensure_link_tables_for(
        files, str(tmp_path / "links_full_chain"))
    full = pq.read_table(sorted(glob.glob(
        os.path.join(full_links, "links", "*.parquet"))))
    key = lambda t: sorted(zip(t["src_host"].to_pylist(),
                               t["dst_host"].to_pylist(),
                               t["n_links"].to_pylist()))
    assert key(merged) == key(full)
    shutil.rmtree(full_root, ignore_errors=True)
    shutil.rmtree(full_links, ignore_errors=True)


def test_update_cost_is_delta_bound(update_env):
    """The delta run's extracted chunks cover ONLY the delta pages — the
    base corpus was never re-extracted by the update."""
    e = update_env
    delta_pages = pq.read_table(sorted(
        glob.glob(os.path.join(e["delta_pages"], "*.parquet"))),
        columns=["url"]).num_rows
    delta_extracted = pq.read_table(sorted(glob.glob(os.path.join(
        e["out"], "delta_run",
        "extracted/chunk=*/kind=page/*.parquet"))), columns=["url"]).num_rows
    assert delta_extracted == delta_pages  # 2 of 6 files, not the corpus


def test_chained_update_relative_out_resolves_from_another_cwd(
        update_env, tmp_path, monkeypatch):
    """An update made with a relative --out must still be a valid
    --base-out from another working directory: its _RUNS and _FTS
    manifests hold absolute paths, and a search over the chained FTS roots
    equals the full index."""
    import json

    from agenticknowledgegraphconstructionsystem_ray.cli import main as cli_main
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kgqueries

    e = update_env
    dirs = {}
    for name, part in (("d1", e["files"][4:5]), ("d2", e["files"][5:])):
        d = tmp_path / f"pages_{name}"
        d.mkdir()
        for f in part:
            os.symlink(f, d / os.path.basename(f))
        dirs[name] = str(d)

    monkeypatch.chdir(tmp_path)
    assert cli_main([
        "update", "--base-pages", e["base_pages"], "--base-out",
        e["base_out"], "--delta-pages", dirs["d1"], "--out", "u1",
        "--chunk-files", "2",
    ]) == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert cli_main([
        "update", "--base-out", str(tmp_path / "u1"), "--delta-pages",
        dirs["d2"], "--out", str(tmp_path / "u2"), "--chunk-files", "2",
    ]) == 0

    assert _edges(str(tmp_path / "u2")).equals(_edges(e["full_out"]))
    with open(tmp_path / "u2" / "_FTS") as f:
        roots = json.load(f)
    with open(tmp_path / "u2" / "_RUNS") as f:
        runs = json.load(f)
    assert all(os.path.isabs(p) for p in roots + runs)
    q, K = list(kgqueries.KG_SEARCH_QUERY), kgqueries.KG_SEARCH_K
    full_root = kgqueries.build_fts_postings(
        e["full_out"], str(tmp_path / "fts_full_rel"))
    got = kgqueries._search_indexed_over(roots, runs, q, K)
    want = kgqueries._search_indexed_over(full_root, e["full_out"], q, K)
    assert got.equals(want)
    shutil.rmtree(full_root, ignore_errors=True)


def test_update_rejects_global_edge_dedup(update_env, tmp_path, capsys):
    """update's FTS and link delta paths assume base and delta hold
    disjoint urls, so the re-crawl flag is refused before any work."""
    from agenticknowledgegraphconstructionsystem_ray.cli import main as cli_main

    e = update_env
    out = tmp_path / "dedup"
    with pytest.raises(SystemExit) as exc:
        cli_main([
            "update", "--base-pages", e["base_pages"], "--base-out",
            e["base_out"], "--delta-pages", e["delta_pages"], "--out",
            str(out), "--chunk-files", "2", "--global-edge-dedup",
        ])
    assert exc.value.code == 2
    assert "disjoint urls" in capsys.readouterr().err
    assert not out.exists()


def test_chain_with_a_stale_base_root_still_answers_queries(update_env,
                                                          tmp_path):
    """A chain whose base FTS root is stamped with an older layout (v4),
    and whose delta root lost its _DONE, still answers queries after the
    next update: cli update rebuilds both roots in place from the runs
    at the same _RUNS index, and writes its manifests whole."""
    import json

    from agenticknowledgegraphconstructionsystem_ray.cli import main as cli_main
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kgqueries

    e = update_env
    dirs = {}
    for name, part in (("d1", e["files"][4:5]), ("d2", e["files"][5:])):
        d = tmp_path / f"pages_{name}"
        d.mkdir()
        for f in part:
            os.symlink(f, d / os.path.basename(f))
        dirs[name] = str(d)
    u1, u2 = str(tmp_path / "u1"), str(tmp_path / "u2")
    assert cli_main([
        "update", "--base-pages", e["base_pages"], "--base-out",
        e["base_out"], "--delta-pages", dirs["d1"], "--out", u1,
        "--chunk-files", "2",
    ]) == 0
    with open(os.path.join(u1, "_FTS")) as f:
        base_root, delta_root = json.load(f)
    done = os.path.join(base_root, "_DONE")
    with open(done) as f:
        contract = json.load(f)
    with open(done, "w") as f:
        json.dump({**contract, "v": 4}, f)
    os.remove(os.path.join(delta_root, "_DONE"))

    assert cli_main([
        "update", "--base-out", u1, "--delta-pages", dirs["d2"],
        "--out", u2, "--chunk-files", "2",
    ]) == 0
    assert sorted(n for n in os.listdir(u2) if n.endswith(".tmp")) == []
    with open(os.path.join(u2, "_FTS")) as f:
        roots = json.load(f)
    with open(os.path.join(u2, "_RUNS")) as f:
        runs = json.load(f)
    assert roots[:2] == [base_root, delta_root]
    q, K = list(kgqueries.KG_SEARCH_QUERY), kgqueries.KG_SEARCH_K
    full_root = kgqueries.build_fts_postings(
        e["full_out"], str(tmp_path / "fts_full_stale"))
    got = kgqueries._search_indexed_over(roots, runs, q, K)
    want = kgqueries._search_indexed_over(full_root, e["full_out"], q, K)
    assert got.num_rows and got.equals(want)
    shutil.rmtree(full_root, ignore_errors=True)
