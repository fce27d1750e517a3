"""The link table's two builds against a plain-dict reference: the cold
build (weblinks._ensure_link_tables_for) and the merge behind
merge_link_tables and wg_host_graph_incremental, both one range exchange
keyed on the hash bucket (weblinks._write_links). Also the stability of
the hash buckets, the bucket-range layout the merge reads from the
Parquet footers, and the link-table contract version."""

import contextlib
import glob
import itertools
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agenticknowledgegraphconstructionsystem_ray.pipelines import weblinks
from agenticknowledgegraphconstructionsystem_ray.pipelines.kgqueries import (
    LINK_BUCKETS,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINK_SCHEMA = pa.schema(
    [("src_host", pa.string()), ("dst_host", pa.string()),
     ("n_links", pa.int64()), ("bkt", pa.int32())]
)
HOSTS = ["a.example", "b.example", "bücher.example", "例え.jp", "дом.рф",
         "xn--bcher-kva.example"]

# a link row, or a page-host sentinel row (dst = SENTINEL, n = 0) as the
# pair-partials kernel emits them
link_row = st.one_of(
    st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS),
              st.integers(1, 5)),
    st.tuples(st.sampled_from(HOSTS), st.just(weblinks._SENTINEL),
              st.just(0)),
)
blocks = st.lists(st.lists(link_row, max_size=8), min_size=1, max_size=3)


def _bucket(s: str, d: str) -> int:
    return weblinks._link_bucket(_table([(s, d, 1)]))["bkt"][0].as_py()


def _table(rows) -> pa.Table:
    return pa.table(
        {
            "src_host": pa.array([r[0] for r in rows], pa.string()),
            "dst_host": pa.array([r[1] for r in rows], pa.string()),
            "n_links": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _row_files(blocks: list, d: str) -> list:
    """Each block of link rows written as one file, in block order."""
    os.makedirs(d)
    files = [os.path.join(d, f"{i:03d}.parquet") for i in range(len(blocks))]
    for f, rows in zip(files, blocks):
        pq.write_table(_table(rows), f)
    return files


@contextlib.contextmanager
def _link_rows_as_pages():
    """The link builds with their map kernel reading link-row files (from
    _row_files) in place of pages: the real exchange and per-range sum
    run on rows drawn by the test."""

    def pair_rows(files):
        return weblinks._link_bucket(pa.concat_tables(
            [pq.ParquetFile(f).read() for f in files]))

    with mock.patch.object(weblinks, "_pair_rows", pair_rows):
        yield


@given(base=blocks, delta=blocks, shared=st.lists(link_row, max_size=3))
@settings(max_examples=25, deadline=None)
def test_sum_link_pairs_matches_dict_reference(ray_session, base, delta,
                                               shared):
    """The cold build's per-range sum: one row per pair (in the range of
    its bucket, each file sorted, the link schema), summed as a dict
    sums them."""
    # the shared rows put the same pairs on both sides of the union
    base[0] = base[0] + shared
    delta[0] = delta[0] + shared
    with tempfile.TemporaryDirectory() as tmp, _link_rows_as_pages():
        files = _row_files(base + delta, os.path.join(tmp, "rows"))
        root = weblinks._ensure_link_tables_for(files,
                                                os.path.join(tmp, "links"))
        assert _read_sums(os.path.join(root, "links")) == _plus({},
                                                                base + delta)
        _spans(os.path.join(root, "links"))  # disjoint bucket ranges


def test_link_bucket_independent_of_hash_seed():
    """Bucket ids come from host_id (blake2b), never the salted hash():
    two interpreters with different PYTHONHASHSEED agree."""
    pairs = [(s, d) for s in HOSTS for d in HOSTS + [weblinks._SENTINEL]]
    code = (
        "import json, sys\n"
        "import pyarrow as pa\n"
        "from agenticknowledgegraphconstructionsystem_ray.pipelines import "
        "weblinks\n"
        "pairs = json.loads(sys.argv[1])\n"
        "t = pa.table({'src_host': [p[0] for p in pairs],\n"
        "              'dst_host': [p[1] for p in pairs],\n"
        "              'n_links': pa.array([1] * len(pairs), pa.int64())})\n"
        "print(json.dumps(weblinks._link_bucket(t)['bkt'].to_pylist()))\n"
    )
    runs = []
    for seed in ("0", "4242"):
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(pairs)],
            env={**os.environ, "PYTHONHASHSEED": seed}, cwd=REPO,
            capture_output=True, text=True, check=True,
        ).stdout
        runs.append(json.loads(out.strip().splitlines()[-1]))
    here = weblinks._link_bucket(_table([(s, d, 1) for s, d in pairs]))
    assert runs[0] == runs[1] == here["bkt"].to_pylist()
    assert all(0 <= b < LINK_BUCKETS for b in runs[0])
    assert len(set(runs[0])) > 1


def test_old_link_contract_is_rebuilt(ray_session, tmp_path):
    """A link table whose marker carries the previous kernel's contract
    version is rebuilt, never served; the rebuilt table has no empty files
    and the link schema."""
    from agenticknowledgegraphconstructionsystem_ray import synth

    pages = str(tmp_path / "pages")
    synth.write_pages(pages, 40, n_files=2)
    files = sorted(glob.glob(os.path.join(pages, "*.parquet")))
    root = str(tmp_path / "links")
    weblinks._ensure_link_tables_for(files, root)
    marker = os.path.join(root, "_DONE")
    with open(marker) as f:
        contract = json.load(f)
    assert contract["v"] == weblinks.LINK_TABLE_VERSION > 2
    with open(marker, "w") as f:
        json.dump({**contract, "v": 2}, f)
    weblinks._ensure_link_tables_for(files, root)
    with open(marker) as f:
        assert json.load(f) == contract
    link_files = glob.glob(os.path.join(root, "links", "*.parquet"))
    assert link_files
    for f in link_files:
        assert pq.read_metadata(f).num_rows > 0
        assert pq.read_schema(f).remove_metadata().equals(LINK_SCHEMA)


# ---------------------------------------------------------------------------
# The merge (weblinks.merge_link_tables)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_base(tmp_path_factory, ray_session):
    """A link table from the real cold build over a 12-page corpus: several
    files, and some of the LINK_BUCKETS buckets hold no row. Returns the
    table's root, its pair sums, and a pair whose bucket no base row
    holds."""
    from agenticknowledgegraphconstructionsystem_ray import synth

    work = tmp_path_factory.mktemp("small_links")
    files = synth.write_pages(str(work / "pages"), 12, n_files=3)
    root = weblinks._ensure_link_tables_for(files, str(work / "links"))
    base = _read_sums(os.path.join(root, "links"))
    held = {_bucket(s, d) for s, d in base}
    gap = next(p for p in ((f"gap{i}.example", HOSTS[0])
                           for i in itertools.count())
               if _bucket(*p) not in held)
    return root, base, gap


def _read_sums(links_dir: str) -> dict:
    """Pair sums of a link table; asserts its v4 layout on the way: the
    link schema, every file sorted by (bkt, src_host, dst_host), no pair in
    two places."""
    sums: dict = {}
    for f in sorted(glob.glob(os.path.join(links_dir, "*.parquet"))):
        t = pq.read_table(f)
        assert t.schema.remove_metadata().equals(LINK_SCHEMA)
        keys = list(zip(t["bkt"].to_pylist(), t["src_host"].to_pylist(),
                        t["dst_host"].to_pylist()))
        assert keys == sorted(keys)
        for (b, s, d), n in zip(keys, t["n_links"].to_pylist()):
            assert (s, d) not in sums, "pair summed in two places"
            assert b == _bucket(s, d)
            sums[(s, d)] = n
    return sums


def _merge(base_root: str, blocks: list, out: str) -> str:
    """merge_link_tables of ``blocks`` into the table at ``base_root``;
    the merged table's links dir."""
    with _link_rows_as_pages():
        root = weblinks.merge_link_tables(
            base_root, _row_files(blocks, out + "_rows"), out)
    return os.path.join(root, "links")


def _plus(sums: dict, blocks: list) -> dict:
    want = dict(sums)
    for rows in blocks:
        for s, d, n in rows:
            want[(s, d)] = want.get((s, d), 0) + n
    return want


def _spans(links_dir: str) -> list:
    return [(lo, hi) for _, lo, hi in weblinks._bucket_ranges(links_dir)]


@given(data=st.data())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_merge_matches_dict_reference(small_base, data):
    """base ⊕ d1, then (base ⊕ d1) ⊕ d2, against plain-dict sums. Delta
    rows hit base pairs, new pairs, and (always) a bucket no base row
    holds, in a block of its own that misses every other file's range.
    Each merge keeps the base's file count and bucket ranges."""
    root, base, gap = small_base
    base_links = os.path.join(root, "links")
    row = st.one_of(
        link_row,
        st.tuples(st.sampled_from(sorted(base)), st.integers(0, 5)).map(
            lambda p: (p[0][0], p[0][1], p[1])),
    )
    d1 = data.draw(st.lists(st.lists(row, max_size=8), min_size=1,
                            max_size=3)) + [[(*gap, 1)]]
    d2 = data.draw(st.lists(st.lists(row, max_size=8), min_size=1,
                            max_size=3))
    spans = _spans(base_links)
    assert len(spans) >= 2
    with tempfile.TemporaryDirectory() as tmp:
        m1 = _merge(root, d1, os.path.join(tmp, "m1"))
        assert _read_sums(m1) == _plus(base, d1)
        assert _spans(m1) == spans
        m2 = _merge(os.path.dirname(m1), d2, os.path.join(tmp, "m2"))
        assert _read_sums(m2) == _plus(base, d1 + d2)
        assert _spans(m2) == spans


def test_merge_runs_no_all_to_all(small_base, tmp_path, monkeypatch):
    """merge_link_tables makes no Dataset and calls no Dataset shuffle;
    the same spies see a Dataset read and groupby of the merged table, so
    they would see either in the merge. The merged sums are the base's
    plus a cold build's over the delta pages alone."""
    import ray.data as rd

    from agenticknowledgegraphconstructionsystem_ray import synth

    calls = []
    for name in ("__init__", "sort", "groupby", "union", "repartition",
                 "random_shuffle"):
        def spy(self, *a, _name=name, _orig=getattr(rd.Dataset, name), **k):
            calls.append(_name)
            return _orig(self, *a, **k)

        monkeypatch.setattr(rd.Dataset, name, spy)
    root, base, _ = small_base
    delta = synth.write_pages(str(tmp_path / "delta"), 4, n_files=1)
    merged = weblinks.merge_link_tables(root, delta, str(tmp_path / "m"))
    cold = weblinks._ensure_link_tables_for(delta, str(tmp_path / "cold"))
    assert calls == []
    rd.read_parquet(os.path.join(merged, "links")).groupby(
        "src_host").count().take_all()
    assert "__init__" in calls and "groupby" in calls
    delta_sums = _read_sums(os.path.join(cold, "links"))
    assert _read_sums(os.path.join(merged, "links")) == _plus(
        base, [[(s, d, n) for (s, d), n in delta_sums.items()]])


def test_overlapping_or_unstated_bucket_ranges_raise(tmp_path):
    links = tmp_path / "links"
    links.mkdir()

    def write(name, bkts, **kw):
        pq.write_table(pa.table({
            "src_host": [f"h{b}" for b in bkts],
            "dst_host": ["d"] * len(bkts),
            "n_links": pa.array([1] * len(bkts), pa.int64()),
            "bkt": pa.array(bkts, pa.int32()),
        }), links / name, **kw)

    write("a.parquet", [0, 3, 10])
    write("b.parquet", [11, 20])
    assert _spans(str(links)) == [(0, 11), (11, LINK_BUCKETS)]
    write("b.parquet", [10, 20])  # bucket 10 in both files
    with pytest.raises(ValueError, match="overlap"):
        weblinks._bucket_ranges(str(links))
    write("b.parquet", [11, 20], write_statistics=False)
    with pytest.raises(ValueError, match="statistics"):
        weblinks._bucket_ranges(str(links))


def test_chained_merge_matches_cold_build_in_file_order(pages_dir,
                                                        tmp_path,
                                                        monkeypatch):
    """update(update(base, d1), d2) writes exactly the files' rows a cold
    build over base ∪ d1 ∪ d2 writes, in the same order; so does a cold
    build whose exchange runs one map task and one range."""
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    base = weblinks._ensure_link_tables_for(files[:4], str(tmp_path / "b"))
    m1 = weblinks.merge_link_tables(base, files[4:5], str(tmp_path / "m1"))
    m2 = weblinks.merge_link_tables(m1, files[5:], str(tmp_path / "m2"))
    cold = weblinks._ensure_link_tables_for(files, str(tmp_path / "cold"))
    monkeypatch.setattr(weblinks, "file_groups", lambda fs: [fs])
    one = weblinks._ensure_link_tables_for(files, str(tmp_path / "one"))

    def links(root):
        return sorted(glob.glob(os.path.join(root, "links", "*.parquet")))

    def read(root):
        return pq.read_table(links(root))

    assert len(links(cold)) >= 2 and len(links(one)) == 1
    assert read(m2).equals(read(cold))
    assert read(one).equals(read(cold))
    assert _spans(os.path.join(m2, "links")) == _spans(
        os.path.join(base, "links"))
