"""Phase B above its path gate (``kg.DRIVER_MCOUNT_MAX_ROWS``; the
open-vocabulary side: alias-relevant surfaces only to the driver,
distributed singleton nodes, block-offset id assignment, hot-map + join
edge id application) must produce the same graph as the driver side. The
gate is forced to 0 partial rows; each run shows it took the distributed
side."""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from agenticknowledgegraphconstructionsystem_ray import synth
from agenticknowledgegraphconstructionsystem_ray.pipelines import kg


def _read_dir(d, columns=None):
    return pq.read_table(
        sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)),
        columns=columns,
    )


@pytest.fixture(scope="module")
def pages(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("ov_pages")
    synth.write_pages(str(d), 150, n_files=4)
    return str(d)


# Three distributed-side regimes, each asserted byte-identical to the
# driver side: hot map covering every node (hot_total, zero tail), a tiny
# hot map forcing the hybrid head+tail split, and hot map disabled (pure
# distributed lookup join).
_VARIANTS = [
    ("openvocab", None),             # default HOT_MAP_CAP: hot_total
    ("openvocab_hybrid", 7),
    ("openvocab_join", 0),
]


@pytest.fixture(scope="module")
def outputs(pages, tmp_path_factory, phase_b_gate):
    outs = {}
    out = str(tmp_path_factory.mktemp("ov_default"))
    kg.run_pipeline(kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=2))
    outs["default"] = out
    for name, cap in _VARIANTS:
        out = str(tmp_path_factory.mktemp(f"ov_{name}"))
        with phase_b_gate(hot_map_cap=cap) as calls:
            kg.run_pipeline(
                kg.KGConfig(pages_dir=pages, out_dir=out, chunk_files=2))
        assert len(calls) == 1, name  # the distributed side ran
        outs[name] = out
    return outs


@pytest.mark.parametrize("variant", [v[0] for v in _VARIANTS])
def test_openvocab_nodes_equal(outputs, variant):
    a = _read_dir(os.path.join(outputs["default"], "nodes"))
    b = _read_dir(os.path.join(outputs[variant], "nodes"))
    b = b.select(a.column_names)
    # row order: both are entity_id-dense; sort for a stable compare
    a = a.sort_by("entity_id")
    b = b.sort_by("entity_id")
    assert a.num_rows == b.num_rows
    for c in a.column_names:
        assert a[c].type == b[c].type, c
        assert a[c].combine_chunks().equals(b[c].combine_chunks()), c


@pytest.mark.parametrize("variant", [v[0] for v in _VARIANTS])
def test_openvocab_edges_equal(outputs, variant):
    a = _read_dir(os.path.join(outputs["default"], "edges"))
    b = _read_dir(os.path.join(outputs[variant], "edges"))
    b = b.select(a.column_names)
    assert a.num_rows == b.num_rows
    for c in a.column_names:
        assert a[c].combine_chunks().equals(b[c].combine_chunks()), c


@pytest.mark.parametrize("variant", [v[0] for v in _VARIANTS])
def test_openvocab_validation_summary_equal(outputs, variant):
    summaries = []
    for name in ("default", variant):
        with open(os.path.join(outputs[name], "validation-results.json")) as f:
            summaries.append(json.load(f)["summary"])
    assert summaries[0] == summaries[1]


def _partial_rows(out: str) -> int:
    return sum(pq.read_metadata(f).num_rows
               for f in kg._kind_files(out, "mcount"))


def test_gate_constant_is_live(outputs, phase_b_gate):
    """At exactly the run's mcount partial rows phase B stays on the
    driver; one row below, it takes the distributed side — with the same
    graph. Protects DRIVER_MCOUNT_MAX_ROWS from silent drift: phase B must
    read it at call time, and compare with ``>``."""
    src = outputs["default"]
    n = _partial_rows(src)
    assert 0 < n <= kg.DRIVER_MCOUNT_MAX_ROWS
    graphs = {}
    for gate in (n, n - 1):
        out = os.path.join(os.path.dirname(src), f"gate_{gate}")
        with phase_b_gate(gate=gate) as calls:
            kg.merge_runs([src], out)
        assert len(calls) == (gate < n)
        graphs[gate] = [_read_dir(os.path.join(out, sub)).sort_by(key)
                        for sub, key in (("nodes", "entity_id"),
                                         ("edges", "subj_id"))]
    for a, b in zip(graphs[n], graphs[n - 1]):
        assert a.select(sorted(a.column_names)).equals(
            b.select(sorted(b.column_names)))


def test_driver_side_creates_no_dataset(outputs, tmp_path, monkeypatch):
    """Below the gate phase B runs no Ray Data: the merge is one Arrow
    group_by on the driver and the edges go through plain tasks."""
    import ray.data as rd

    made = []
    orig = rd.Dataset.__init__

    def spy(self, *args, **kwargs):
        made.append(type(self).__name__)
        orig(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "__init__", spy)
    res = kg.merge_runs([outputs["default"]], str(tmp_path / "merged"))
    assert res["n_edges"] > 0
    assert made == []
    rd.from_items([{"x": 1}])  # control: the spy sees a Dataset being made
    assert made


def test_lookup_join_tiny_input_many_groups(ray_session):
    """The skew-safe lookup join must survive inputs far smaller than the
    coarse-group count (Dataset.join's empty hash partitions broke here)."""
    import pyarrow as pa
    import ray.data as rd

    from agenticknowledgegraphconstructionsystem_ray.pipelines.openvocab import (
        apply_ids_join,
    )

    triples = rd.from_arrow(
        pa.table(
            {
                "url": ["u1", "u2"],
                "warc_ts": pa.array([0, 0], pa.timestamp("us")),
                "subj": ["A", "B"],
                "subj_norm": ["a", "b"],
                "pred": ["uses", "uses"],
                "obj": ["C", "D"],
                "obj_norm": ["c", "x_unknown"],
                "confidence": [0.5, 0.6],
                "context": ["ctx1", "ctx2"],
            }
        )
    )
    mapping = rd.from_arrow(
        pa.table(
            {
                "member_norm": ["a", "b", "c"],
                "entity_id": pa.array([0, 1, 2], pa.int64()),
                "canonical_name": ["A", "B", "C"],
            }
        )
    )
    rows = {r["url"]: r for r in apply_ids_join(triples, mapping).take_all()}
    assert rows["u1"]["subj_id"] == 0 and rows["u1"]["obj_id"] == 2
    assert rows["u2"]["subj_id"] == 1 and rows["u2"]["obj_id"] == -1
    assert rows["u2"]["obj"] == "x_unknown"
