"""Phase B's validation tail: relationship issues are written by the edge
sort's own write tasks (``kg._edge_reduce``), in the same execution as
edges/. The former path re-read edges/ and ran
``edge_issues_batch`` and ``issue_count_batch`` over it; it is kept here as
the reference, and both must give the same issue rows and the same
validation-results.json."""

import glob
import json
import os
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from agenticknowledgegraphconstructionsystem_ray.pipelines import kg
from agenticknowledgegraphconstructionsystem_ray.stages.validate import (
    edge_issues_batch,
    issue_count_batch,
    summarize_issues,
    validate_nodes_table,
)

VARIANTS = {
    "default": {},
    "global_edge_dedup": {"global_edge_dedup": True},
    # no page passes the language filter: no triples, no edges
    "zero_edges": {"lang_allow": frozenset({"zz"})},
}


def _files(out: str, sub: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out, sub, "*.parquet")))


def _spy(mp, module, attr: str, seen: list) -> None:
    """Record every path ``module.attr`` is called with."""
    orig = getattr(module, attr)

    def spy(source, *args, **kwargs):
        seen.extend([source] if isinstance(source, str) else list(source))
        return orig(source, *args, **kwargs)

    mp.setattr(module, attr, spy)


@pytest.fixture(scope="module")
def runs(pages_dir, tmp_path_factory):
    """name -> (out dir, every path the driver read parquet from)."""
    res = {}
    for name, kw in VARIANTS.items():
        out = str(tmp_path_factory.mktemp(f"tail_{name}"))
        seen: list = []
        with pytest.MonkeyPatch.context() as mp:
            _spy(mp, rd, "read_parquet", seen)
            for attr in ("read_table", "read_metadata"):
                _spy(mp, pq, attr, seen)
            kg.run_pipeline(kg.KGConfig(
                pages_dir=pages_dir, out_dir=out, chunk_files=2, **kw))
        res[name] = (out, seen)
    return res


def _reference(out: str):
    """Issue rows and report of the former read-back tail over this run's
    nodes/ and edges/."""
    counts: Counter = Counter()
    nodes = pq.read_table(_files(out, "nodes"))
    entity = validate_nodes_table(nodes)
    parts = [entity]
    for r in issue_count_batch(entity).to_pylist():
        counts[(r["severity"], r["rule"])] += r["n"]
    edge_files = _files(out, "edges")
    n_edges = sum(pq.read_metadata(f).num_rows for f in edge_files)
    if n_edges:
        issues_ds = (
            rd.read_parquet(edge_files, columns=["subj_id", "pred", "obj_id",
                                                 "url", "confidence",
                                                 "context"])
            .map_batches(edge_issues_batch, batch_format="pyarrow")
            .materialize()
        )
        parts.append(pa.concat_tables(list(
            issues_ds.iter_batches(batch_format="pyarrow", batch_size=None))))
        cnt = issues_ds.map_batches(
            issue_count_batch, batch_format="pyarrow").to_pandas()
        for r in cnt.itertuples(index=False):
            counts[(r.severity, r.rule)] += int(r.n)
    report = {
        "summary": summarize_issues(counts, nodes.num_rows, n_edges),
        "issues_sample": entity.slice(0, 100).to_pylist(),
    }
    return pa.concat_tables(parts), report


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_issues_match_readback_reference(runs, variant):
    out, _ = runs[variant]
    want_rows, want_report = _reference(out)
    got_rows = pq.read_table(_files(out, os.path.join("validation", "issues")))
    assert got_rows.schema.equals(want_rows.schema)
    assert _sorted(got_rows).equals(_sorted(want_rows))
    with open(os.path.join(out, "validation-results.json")) as f:
        assert json.load(f) == json.loads(json.dumps(want_report))
    if variant == "zero_edges":
        assert want_report["summary"]["total_relationships"] == 0
    else:
        assert want_report["summary"]["total_relationships"] > 0
        assert want_report["summary"]["issues_by_rule"]


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_tail_never_reads_edges_back(runs, variant):
    out, seen = runs[variant]
    edges_dir = os.path.join(out, "edges")
    assert seen, "the spies saw no parquet reads at all"
    assert not [p for p in seen
                if os.path.abspath(p).startswith(edges_dir + os.sep)]


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_no_empty_issue_files(runs, variant):
    """Write tasks with no issue rows write no file. The driver's
    entity-issues.parquet is the one file written even when
    empty: it keeps the issues table readable (and typed) on a run with no
    issues at all."""
    out, _ = runs[variant]
    for f in _files(out, os.path.join("validation", "issues")):
        name = os.path.basename(f)
        if name != "entity-issues.parquet":
            assert name.startswith("edge-"), name
            assert pq.read_metadata(f).num_rows > 0, name


def test_edge_issue_kernel_read_from_module_attribute(pages_dir, tmp_path):
    """The sink runs whatever ``kg.edge_issues_batch`` is when phase B
    builds it (a tracer or test swaps the kernel there)."""

    def tagged(batch):
        t = edge_issues_batch(batch)
        return t.set_column(
            t.schema.get_field_index("message"), "message",
            pa.array(["tagged"] * t.num_rows, pa.string()))

    out = str(tmp_path / "out")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kg, "edge_issues_batch", tagged)
        kg.run_pipeline(kg.KGConfig(pages_dir=pages_dir, out_dir=out,
                                    chunk_files=2))
    edge_files = glob.glob(
        os.path.join(out, "validation", "issues", "edge-*.parquet"))
    assert edge_files
    msgs = pq.read_table(edge_files, columns=["message"])["message"]
    assert set(msgs.to_pylist()) == {"tagged"}
