"""runtime.range_exchange against one stable sort: random tables split
into random contiguous groups, cut at random sorted cuts (one range,
duplicate cuts and ranges no key falls in included)."""

import glob
import os
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

from agenticknowledgegraphconstructionsystem_ray.runtime import (
    range_exchange,
    write_part,
)


@st.composite
def _case(draw):
    keys = draw(st.lists(st.integers(-2, 12), max_size=40))
    n_groups = draw(st.integers(1, 4))
    at = sorted(draw(st.lists(st.integers(0, len(keys)),
                              min_size=n_groups - 1,
                              max_size=n_groups - 1)))
    cuts = sorted(draw(st.lists(st.integers(-1, 13), max_size=4)))
    return keys, [0, *at, len(keys)], cuts


@settings(max_examples=25, deadline=None)
@given(_case())
def test_exchange_equals_one_stable_sort(ray_session, case):
    """Every row lands in the file of the range its key falls in, an
    empty range writes no file, and the files in order are Table.equals
    to one stable sort of the input by key."""
    keys, at, cuts = case
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "row": pa.array(range(len(keys)), pa.int64())})
    groups = [[t.slice(a, b - a)] for a, b in zip(at, at[1:])]

    def map_fn(group):
        return pa.concat_tables(group)

    def reduce_fn(slices, path):
        return write_part(pa.concat_tables(slices).sort_by("k"), path)

    with tempfile.TemporaryDirectory() as out:
        rows = range_exchange(groups, map_fn, (), [("k", "ascending")], cuts,
                              reduce_fn, [()] * (len(cuts) + 1), out)
        files = sorted(glob.glob(os.path.join(out, "*.parquet")))
        assert [int(os.path.basename(f)[5:10]) for f in files] == [
            p for p, n in enumerate(rows) if n]
        bounds = [float("-inf"), *cuts, float("inf")]
        for f in files:
            p = int(os.path.basename(f)[5:10])
            assert all(bounds[p] <= k < bounds[p + 1]
                       for k in pq.read_table(f)["k"].to_pylist())
        got = pa.concat_tables([pq.read_table(f) for f in files]
                               or [t.slice(0, 0)])
    assert sum(rows) == t.num_rows
    assert got.equals(t.sort_by("k"))
