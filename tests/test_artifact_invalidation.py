"""Uniform cache contract across ALL persisted artifacts.

Every cache layout (ANN, ANN-delta, BPE, SMB, MinHash bands, link table,
link merge, full-text index, FTS compaction, merge run) keys its cache
root on the corpus basename / sf value — two different corpora can
collide on the root. The _DONE contract must therefore carry a source
fingerprint (sizes/mtimes) so a regenerated or swapped corpus at the same
root REBUILDS instead of silently serving stale results. Reference analog:
the ledger keyed by content identity (db_init.py:150-159,
agents/src/database.ts:66-81).

The invalidation tests build an artifact, regenerate the source in place
(same paths, new content), re-ensure, and assert the marker was rewritten
with a different contract. The crash tests inject a failure at each point
of state.artifacts.ensure_artifact and assert the previous layout (or
none) is what remains, for every artifact kind.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import json
import os
import shutil
import sys

import pyarrow.parquet as pq
import pytest

from agenticknowledgegraphconstructionsystem_ray.state import artifacts

SF = "/root/testdata/sf0.001"
TEST_SF = 0.00077  # unique sf so cache roots never collide with real runs
PKG = os.path.dirname(os.path.dirname(artifacts.__file__))


def _halve(path: str) -> None:
    """Rewrite a parquet file in place with its first half — same path,
    new content (size and mtime both change)."""
    t = pq.read_table(path)
    pq.write_table(t.slice(0, max(1, t.num_rows // 2)), path)


def _marker_state(marker: str) -> tuple[dict, int]:
    with open(marker) as f:
        return json.load(f), os.stat(marker).st_mtime_ns


def _rows(files: list, columns: list) -> list:
    return sorted(
        tuple(r.values())
        for f in files
        for r in pq.read_table(f, columns=columns).to_pylist()
    )


def _tree_rows(root: str, sub: str, columns: list) -> list:
    return _rows(
        glob.glob(os.path.join(root, sub, "**", "*.parquet"), recursive=True),
        columns,
    )


# ---------------------------------------------------------------------------
# corpus-dir-keyed artifacts: sf_dir holds the table files directly.
# Each case returns (root, build, mutate, content): build() ensures the
# artifact and returns its root, mutate() rewrites the source in place,
# content(root) summarizes the layout.
# ---------------------------------------------------------------------------

def _corpus(tmp_path, *tables: str) -> str:
    d = str(tmp_path / "corpus")
    os.makedirs(d, exist_ok=True)
    for t in tables:
        shutil.copy(os.path.join(SF, f"{t}.parquet"),
                    os.path.join(d, f"{t}.parquet"))
    return d


def _ann_case(tmp_path, monkeypatch):
    from agenticknowledgegraphconstructionsystem_ray.stages import annindex

    d = _corpus(tmp_path, "embeddings")
    return (
        annindex.ann_root(d),
        lambda: annindex.ensure_ann_index(d),
        lambda: _halve(os.path.join(d, "embeddings.parquet")),
        lambda root: len(_tree_rows(root, "coded", ["vec_id"])),
    )


def _ann_delta_case(tmp_path, monkeypatch):
    from agenticknowledgegraphconstructionsystem_ray.stages import annindex

    d = _corpus(tmp_path, "embeddings")
    return (
        annindex.incr_root(d),
        lambda: annindex.ensure_ann_index_incremental(d)[0],
        lambda: _halve(os.path.join(d, "embeddings.parquet")),
        # halved corpus -> halved split
        lambda root: artifacts.read_contract(root)["split"],
    )


def _bpe_case(tmp_path, monkeypatch):
    from agenticknowledgegraphconstructionsystem_ray.pipelines import scoring

    d = _corpus(tmp_path, "documents")

    def build():
        scoring._ensure_bpe_merges(d)
        return scoring.bpe_root(d)

    return (
        scoring.bpe_root(d),
        build,
        lambda: _halve(os.path.join(d, "documents.parquet")),
        lambda root: pq.read_table(
            os.path.join(root, "merges.parquet"))["n"].to_pylist(),
    )


def _smb_case(tmp_path, monkeypatch):
    from agenticknowledgegraphconstructionsystem_ray.pipelines import training

    d = _corpus(tmp_path, "orders", "lineitem")
    return (
        training.smb_root(d),
        lambda: training._smb_layout(d),
        lambda: _halve(os.path.join(d, "orders.parquet")),
        lambda root: len(_tree_rows(root, "orders", ["o_orderkey"])),
    )


def _mh_index_case(tmp_path, monkeypatch):
    from agenticknowledgegraphconstructionsystem_ray.stages import dedup

    d = _corpus(tmp_path, "documents")

    def build():
        dedup.minhash_near_dups_incremental(d)
        return dedup.mh_index_root(d)

    return (
        dedup.mh_index_root(d),
        build,
        lambda: _halve(os.path.join(d, "documents.parquet")),
        lambda root: len(_rows(glob.glob(os.path.join(root, "*.parquet")),
                               ["doc_id"])),
    )


# ---------------------------------------------------------------------------
# sf-keyed artifacts: source is the synthetic pages corpus for sf_of(dir)
# ---------------------------------------------------------------------------

def _pages_fixture(tmp_path, monkeypatch):
    """A tiny controlled pages corpus wired in as THE corpus for TEST_SF."""
    from agenticknowledgegraphconstructionsystem_ray import synth

    pages = str(tmp_path / "pages")
    synth.write_pages(pages, 40, n_files=2, seed=7)

    real_ensure = synth.ensure_pages

    def fake_ensure(sf: float, seed: int = 42, mult: int = 1) -> str:
        if abs(sf - TEST_SF) < 1e-9:
            return pages
        return real_ensure(sf, seed, mult)

    monkeypatch.setattr(synth, "ensure_pages", fake_ensure)
    sf_dir = str(tmp_path / f"sf{TEST_SF:g}")
    os.makedirs(sf_dir, exist_ok=True)
    return pages, sf_dir


def _regen_pages(pages: str) -> None:
    """Regenerate the corpus in place: same file names, new content."""
    from agenticknowledgegraphconstructionsystem_ray import synth

    synth.write_pages(pages, 40, n_files=2, seed=8)


def _halve_first_shard(pages: str) -> None:
    """Drop half of the first shard's pages: regenerating with another
    seed changes page text but not the link graph."""
    _halve(sorted(glob.glob(os.path.join(pages, "*.parquet")))[0])


def _links_content(root):
    return _tree_rows(root, "links", ["src_host", "dst_host", "n_links"])


def _postings_content(root):
    return _tree_rows(root, "postings", ["term", "url", "tf"])


def _links_case(tmp_path, monkeypatch):
    from agenticknowledgegraphconstructionsystem_ray.pipelines import weblinks

    pages, sf_dir = _pages_fixture(tmp_path, monkeypatch)
    return (
        weblinks.links_root(sf_dir),
        lambda: weblinks._ensure_link_tables(sf_dir),
        lambda: _halve_first_shard(pages),
        _links_content,
    )


def _link_merge_case(tmp_path, monkeypatch):
    from agenticknowledgegraphconstructionsystem_ray.pipelines import weblinks

    pages, _ = _pages_fixture(tmp_path, monkeypatch)
    base_file, delta_file = sorted(glob.glob(os.path.join(pages, "*.parquet")))
    dest = str(tmp_path / "links_merged")

    def build():
        base = weblinks._ensure_link_tables_for(
            [base_file], str(tmp_path / "links_base"))
        return weblinks.merge_link_tables(base, [delta_file], dest)

    return dest, build, lambda: _halve_first_shard(pages), _links_content


def _fts_case(tmp_path, monkeypatch):
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kgqueries

    pages, sf_dir = _pages_fixture(tmp_path, monkeypatch)
    return (
        kgqueries.fts_root(sf_dir),
        lambda: kgqueries._ensure_text_index(sf_dir),
        lambda: _regen_pages(pages),
        _postings_content,
    )


def _merge_run_case(tmp_path, monkeypatch):
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kgqueries

    pages, sf_dir = _pages_fixture(tmp_path, monkeypatch)
    return (
        os.path.join(artifacts.cache_root("merge", f"sf{TEST_SF:g}"),
                     "merged"),
        lambda: kgqueries._ensure_merge_run(sf_dir),
        lambda: _regen_pages(pages),
        lambda root: _rows(
            glob.glob(os.path.join(root, "nodes", "*.parquet")),
            ["canonical_name", "mention_count"]),
    )


CASES = {
    "ann": _ann_case,
    "ann_delta": _ann_delta_case,
    "bpe": _bpe_case,
    "smb": _smb_case,
    "mh_index": _mh_index_case,
    "links": _links_case,
    "link_merge": _link_merge_case,
    "fts": _fts_case,
    "merge_run": _merge_run_case,
}


@pytest.fixture()
def clean_sf_roots():
    from agenticknowledgegraphconstructionsystem_ray.pipelines import (
        kgqueries,
        weblinks,
    )

    sf_dir = f"sf{TEST_SF:g}"
    roots = [
        artifacts.cache_root("out", sf_dir),
        kgqueries.fts_root(sf_dir),
        weblinks.links_root(sf_dir),
    ]
    for r in roots:
        shutil.rmtree(r, ignore_errors=True)
    yield
    for r in roots:
        shutil.rmtree(r, ignore_errors=True)


@pytest.mark.parametrize(
    "case", ["ann", "ann_delta", "bpe", "smb"],
)
def test_dir_keyed_artifact_invalidates_on_source_change(
    case, tmp_path, monkeypatch
):
    _root, build, mutate, content = CASES[case](tmp_path, monkeypatch)

    marker = os.path.join(build(), "_DONE")
    before, mt_before = _marker_state(marker)
    c_before = content(os.path.dirname(marker))

    mutate()
    marker2 = os.path.join(build(), "_DONE")
    after, mt_after = _marker_state(marker2)

    assert after != before, f"{case}: contract did not change with source"
    assert mt_after > mt_before, f"{case}: artifact not rebuilt"
    c_after = content(os.path.dirname(marker2))
    assert c_after != c_before, f"{case}: content still from old source"
    shutil.rmtree(os.path.dirname(marker2), ignore_errors=True)


class _Crash(Exception):
    pass


@contextlib.contextmanager
def _crash_in_build(root: str, after_build: bool):
    """Make the ensure_artifact call for ``root`` raise inside its build:
    after the real build wrote the layout into tmp (but before the
    marker), or before anything was written."""
    real = artifacts.ensure_artifact

    def crashing(r, contract, build):
        if r != root:
            return real(r, contract, build)

        def crash(tmp):
            if after_build:
                build(tmp)
            raise _Crash(r)

        return real(r, contract, crash)

    with pytest.MonkeyPatch.context() as mp:
        # every module that bound the helper at import, and the helper's
        # own module for function-local imports
        for name, mod in list(sys.modules.items()):
            if (name.startswith(artifacts.__package__.split(".")[0])
                    and getattr(mod, "ensure_artifact", None) is real):
                mp.setattr(mod, "ensure_artifact", crashing)
        yield


@contextlib.contextmanager
def _fail_promote(root: str):
    """Make the rename of ``root``'s finished tmp layout (marker already
    written) into place fail."""
    real = os.replace

    def replace(src, dst):
        if str(src).startswith(root + ".tmp.") and str(dst) == root:
            assert os.path.exists(os.path.join(src, artifacts.MARKER))
            raise OSError(f"injected promote failure for {root}")
        return real(src, dst)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", replace)
        yield


def _agkg_entries() -> set:
    return set(glob.glob("/tmp/agkg_*")) | set(glob.glob("/tmp/agkg_*/*"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_crash_at_any_point_keeps_previous_layout(case, tmp_path,
                                                  monkeypatch):
    """A failure inside the build or at the promote leaves the previous
    valid layout in place (or none on a cold build), with no tmp/old
    leftovers, and the next call rebuilds correctly. The artifact ROOT is
    moved to tmp_path: nothing may appear under /tmp/agkg_*."""
    monkeypatch.setattr(artifacts, "ROOT", str(tmp_path / "cache"))
    entries_before = _agkg_entries()
    root, build, mutate, content = CASES[case](tmp_path, monkeypatch)
    assert root.startswith(str(tmp_path))

    def no_leftovers():
        assert not glob.glob(root + ".tmp.*") + glob.glob(root + ".old.*")

    with _crash_in_build(root, after_build=False), pytest.raises(_Crash):
        build()
    assert not os.path.exists(root)
    no_leftovers()

    assert build() == root
    good, c_good = artifacts.read_contract(root), content(root)
    assert good is not None

    mutate()
    with _crash_in_build(root, after_build=True), pytest.raises(_Crash):
        build()
    assert artifacts.read_contract(root) == good and content(root) == c_good
    no_leftovers()

    with _fail_promote(root), pytest.raises(OSError, match="injected"):
        build()
    assert artifacts.read_contract(root) == good and content(root) == c_good
    no_leftovers()

    assert build() == root
    assert artifacts.read_contract(root) not in (None, good)
    assert content(root) != c_good
    no_leftovers()
    assert _agkg_entries() == entries_before


def test_single_shard_regen_invalidates_only_its_chunk(tmp_path):
    """Chunk-granular invalidation: regenerating ONE pages shard must
    re-extract only the chunk that shard feeds — the other chunks'
    phase-A records are reused untouched (at 100 TB this is the
    difference between re-running the corpus and re-running one chunk) —
    while the final outputs equal a cold rebuild of the new corpus."""
    import pyarrow as pa

    from agenticknowledgegraphconstructionsystem_ray import synth
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    pages = str(tmp_path / "pages")
    synth.write_pages(pages, 240, n_files=6)
    out = str(tmp_path / "out")
    kg.ensure_complete(kg.KGConfig(pages_dir=pages, out_dir=out,
                                   chunk_files=2))  # 3 chunks of 2 files

    def chunk_mtimes():
        m = {}
        for f in glob.glob(os.path.join(
                out, "extracted/chunk=*/kind=page/*.parquet")):
            chunk = f.split("chunk=")[1].split("/")[0]
            m.setdefault(chunk, []).append(os.stat(f).st_mtime_ns)
        return {k: max(v) for k, v in m.items()}

    before = chunk_mtimes()
    assert len(before) == 3

    # regenerate shard #0 in place (chunk 0's first file): same name,
    # new content — swap two pages' html payloads
    f0 = sorted(glob.glob(os.path.join(pages, "*.parquet")))[0]
    t = pq.read_table(f0)
    htmls = t["html"].to_pylist()
    htmls[0], htmls[1] = htmls[1], htmls[0]
    pq.write_table(
        t.set_column(t.schema.get_field_index("html"), "html",
                     pa.array(htmls, pa.binary())), f0)

    kg.ensure_complete(kg.KGConfig(pages_dir=pages, out_dir=out,
                                   chunk_files=2))
    after = chunk_mtimes()
    changed = {k for k in after if after[k] != before[k]}
    assert len(changed) == 1, f"expected one chunk re-extracted: {changed}"

    # and the merged result equals a cold rebuild of the mutated corpus
    cold = str(tmp_path / "cold")
    kg.ensure_complete(kg.KGConfig(pages_dir=pages, out_dir=cold,
                                   chunk_files=2))
    e1 = pq.read_table(sorted(glob.glob(
        os.path.join(out, "edges/**/*.parquet"), recursive=True)))
    e2 = pq.read_table(sorted(glob.glob(
        os.path.join(cold, "edges/**/*.parquet"), recursive=True)))
    assert e1.equals(e2)


def test_minhash_band_index_invalidates_on_source_change(tmp_path):
    """The persisted LSH band index keys its dir on the corpus abspath;
    the marker contract must carry the source fingerprint so rewriting
    documents.parquet in place rebuilds the bands."""
    from agenticknowledgegraphconstructionsystem_ray.stages import dedup

    d = _corpus(tmp_path, "documents")
    index_dir = dedup.mh_index_root(d)
    shutil.rmtree(index_dir, ignore_errors=True)
    try:
        dedup.minhash_near_dups_incremental(d)
        marker = os.path.join(index_dir, "_DONE")
        before, mt_before = _marker_state(marker)

        _halve(os.path.join(d, "documents.parquet"))
        dedup.minhash_near_dups_incremental(d)
        after, mt_after = _marker_state(marker)
        assert after != before
        assert mt_after > mt_before
    finally:
        shutil.rmtree(index_dir, ignore_errors=True)


def test_link_table_invalidates_on_regenerated_corpus(
    tmp_path, monkeypatch, clean_sf_roots
):
    from agenticknowledgegraphconstructionsystem_ray.pipelines import weblinks

    pages, sf_dir = _pages_fixture(tmp_path, monkeypatch)
    root = weblinks._ensure_link_tables(sf_dir)
    marker = os.path.join(root, "_DONE")
    before, mt_before = _marker_state(marker)

    _regen_pages(pages)
    root2 = weblinks._ensure_link_tables(sf_dir)
    after, mt_after = _marker_state(os.path.join(root2, "_DONE"))
    assert after != before
    assert mt_after > mt_before

    # content spot check: the rebuilt table matches a fresh scan of the
    # NEW pages (total link mass recomputed, not stale)
    files = glob.glob(os.path.join(root2, "links", "**", "*.parquet"),
                      recursive=True)
    total = sum(
        sum(x for x in pq.read_table(f)["n_links"].to_pylist())
        for f in files
    )
    assert total > 0


def test_fts_index_invalidates_on_regenerated_corpus(
    tmp_path, monkeypatch, clean_sf_roots
):
    """The full chain: regenerated pages -> kg run rebuilds (config
    fingerprint now carries sizes/mtimes) -> FTS index rebuilds (its
    contract fingerprints the run's extracted-text files)."""
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kgqueries

    pages, sf_dir = _pages_fixture(tmp_path, monkeypatch)
    root = kgqueries._ensure_text_index(sf_dir)
    marker = os.path.join(root, "_DONE")
    before, mt_before = _marker_state(marker)

    _regen_pages(pages)
    root2 = kgqueries._ensure_text_index(sf_dir)
    after, mt_after = _marker_state(os.path.join(root2, "_DONE"))
    assert after != before
    assert mt_after > mt_before


def test_link_merge_invalidates_on_rebuilt_base(tmp_path, monkeypatch):
    """The merged link table's contract holds the base table's own
    contract: an unchanged base and delta reuse the merge, a rebuilt base
    alone invalidates it."""
    root, build, _mutate, content = _link_merge_case(tmp_path, monkeypatch)
    base_root = str(tmp_path / "links_base")

    build()
    merged, mt = _marker_state(os.path.join(root, "_DONE"))
    assert merged["base"] == artifacts.read_contract(base_root)
    c_before = content(root)
    build()
    assert _marker_state(os.path.join(root, "_DONE")) == (merged, mt)

    _halve_first_shard(str(tmp_path / "pages"))
    build()
    after = artifacts.read_contract(root)
    assert after["src"] == merged["src"]                     # same delta
    assert after["base"] == artifacts.read_contract(base_root) != merged[
        "base"]
    assert content(root) != c_before


def test_source_fingerprint_properties(tmp_path):
    """The shared identity primitive: stable under re-read, order-free
    over its inputs, sensitive to content/size/mtime change, and loud
    (not empty-valued) on a missing or empty source."""
    source_fingerprint = artifacts.source_fingerprint

    a = tmp_path / "a.parquet"
    b = tmp_path / "b.parquet"
    a.write_bytes(b"xxxx")
    b.write_bytes(b"yyyy")

    f1 = source_fingerprint(str(a), str(b))
    assert f1 == source_fingerprint(str(a), str(b))          # stable
    assert f1 == source_fingerprint(str(b), str(a))          # order-free
    assert f1 == source_fingerprint(str(tmp_path))           # dir == files

    os.utime(a, ns=(1, 1))                                   # mtime only
    f2 = source_fingerprint(str(a), str(b))
    assert f2 != f1

    a.write_bytes(b"xxxxz")                                  # size change
    assert source_fingerprint(str(a), str(b)) != f2

    with pytest.raises(FileNotFoundError):
        source_fingerprint(str(tmp_path / "missing.parquet"))

    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("not a parquet shard")
    with pytest.raises(FileNotFoundError, match="empty source set"):
        source_fingerprint(str(empty))                       # glob hits 0
    with pytest.raises(FileNotFoundError, match="empty source set"):
        source_fingerprint()                                 # no files


def test_build_fts_postings_rejects_a_run_without_pages(tmp_path):
    """An empty page-record set (wrong or unfinished run dir) is a loud
    error, not an empty-fingerprint index."""
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kgqueries

    root = str(tmp_path / "fts")
    with pytest.raises(FileNotFoundError, match="no extracted page records"):
        kgqueries.build_fts_postings(str(tmp_path / "not_a_run"), root)
    assert not os.path.exists(root)


def _calls(tree: ast.AST, name: str) -> list:
    """Line numbers of ``os.<name>(...)`` calls."""
    return [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == name and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "os"
    ]


def test_no_hand_rolled_cache_protocol():
    """Cache roots are spelled and promoted only in state/artifacts.py
    (goldens.py keeps its own code: the oracle must not share a bug with
    the code it checks). Run outputs commit through state/manifest.py and
    pipelines/kg.py, which own no cache root."""
    exempt = {"state/artifacts.py", "goldens.py"}
    run_outputs = {"state/manifest.py", "pipelines/kg.py"}
    offenders = []
    for path in glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True):
        rel = os.path.relpath(path, PKG)
        if rel in exempt:
            continue
        src = open(path).read()
        if '"/tmp/agkg_' in src or "'/tmp/agkg_" in src:
            offenders.append(f"{rel}: hardcoded /tmp/agkg_ root")
        if rel not in run_outputs:
            offenders += [f"{rel}:{ln}: os.replace outside ensure_artifact"
                          for ln in _calls(ast.parse(src), "replace")]
    assert not offenders, offenders
