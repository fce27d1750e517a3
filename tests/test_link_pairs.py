"""weblinks.sum_link_pairs — the one host-pair sum behind the link-table
build, the link merge and wg_host_graph_incremental — against a plain-dict
reference, plus the stability of its hash buckets and the link-table
contract version."""

import glob
import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from agenticknowledgegraphconstructionsystem_ray.pipelines import weblinks
from agenticknowledgegraphconstructionsystem_ray.pipelines.kgqueries import (
    LINK_BUCKETS,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINK_SCHEMA = pa.schema(
    [("src_host", pa.string()), ("dst_host", pa.string()),
     ("n_links", pa.int64())]
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


def _table(rows) -> pa.Table:
    return pa.table(
        {
            "src_host": pa.array([r[0] for r in rows], pa.string()),
            "dst_host": pa.array([r[1] for r in rows], pa.string()),
            "n_links": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


@given(base=blocks, delta=blocks, shared=st.lists(link_row, max_size=3))
@settings(max_examples=25, deadline=None)
def test_sum_link_pairs_matches_dict_reference(ray_session, base, delta,
                                               shared):
    # the shared rows put the same pairs on both sides of the union
    base[0] = base[0] + shared
    delta[0] = delta[0] + shared
    want: dict = {}
    for rows in base + delta:
        for s, d, n in rows:
            want[(s, d)] = want.get((s, d), 0) + n

    ds = weblinks.sum_link_pairs(
        rd.from_arrow([_table(b) for b in base]),
        rd.from_arrow([_table(b) for b in delta]),
    ).materialize()
    got: dict = {}
    for bundle in ds.iter_internal_ref_bundles():
        for ref in bundle.block_refs:
            block = ray.get(ref)
            if not block.num_rows:
                # Ray's range shuffle emits one schema-less empty block per
                # empty partition and map stages pass those through
                # untouched; every block the per-bucket sum produced is
                # non-empty and has the link schema
                continue
            assert block.schema.equals(LINK_SCHEMA)
            for s, d, n in zip(*(block[c].to_pylist()
                                 for c in LINK_SCHEMA.names)):
                assert (s, d) not in got, "pair summed in two places"
                got[(s, d)] = n
    assert got == want


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
