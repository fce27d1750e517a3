"""Span recording around the calls into each pipeline layer.

A span is ``{id, name, start, end, parent, run_id, counts}``. Driver-side
layers (phase A/B, the driver union-find, the artifact builders) are timed
by wrapping the call on the driver. Batch kernels run inside Ray workers:
their wrappers append one JSON line per batch to a per-process file under
the tracer's directory, and ``Tracer.collect`` attaches each of those spans
to the driver span of the named parent layer that encloses it.

Times are ``time.perf_counter()``, which on Linux is CLOCK_MONOTONIC and so
comparable between the driver and worker processes of one host.

Nothing here is active unless ``Tracer.patch`` is entered; an untraced job
runs the program's own functions unchanged.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import time

import pyarrow.compute as pc

# The layer names reported by the benchmark, keyed by the attribute of
# pipelines.kg that the pipeline calls them through.
PHASE_A = "pipelines.kg.run_phase_a"
PHASE_B = "pipelines.kg.run_phase_b"
CANON = "stages.canonicalize.build_entity_table"
EXTRACT_TEXT = "stages.extract.extract_text_batch"
EXTRACT_RECORDS = "stages.triples.extract_records_batch"
APPLY_IDS = "stages.canonicalize.apply_ids_batch"
VALIDATE_EDGES = "stages.validate.validate_edges_batch"
EDGE_ISSUES = "stages.validate.edge_issues_batch"
FTS_BUILD = "pipelines.kgqueries.build_fts_postings"
LINKS_MERGE = "pipelines.weblinks.merge_link_tables"
JOB = "job"

# kg attribute -> (layer name, parent layer) for the batch kernels
_KERNELS = {
    "extract_text_batch": (EXTRACT_TEXT, PHASE_A),
    "extract_records_batch": (EXTRACT_RECORDS, PHASE_A),
    "apply_ids_batch": (APPLY_IDS, PHASE_B),
    "validate_edges_batch": (VALIDATE_EDGES, PHASE_B),
    "edge_issues_batch": (EDGE_ISSUES, PHASE_B),
}


@contextlib.contextmanager
def no_span(name: str):
    """The untraced stand-in for a traced job's ``span``: records nothing."""
    yield None


def _kernel_counts(name: str, out) -> dict:
    if name == EXTRACT_RECORDS:
        kinds = pc.value_counts(out["kind"]).to_pylist()
        by_kind = {d["values"]: d["counts"] for d in kinds}
        return {
            "mentions": by_kind.get("mention", 0),
            "triples": by_kind.get("triple", 0),
        }
    return {"rows": out.num_rows}


def traced_kernel(fn, name: str, parent: str, run_id: int, spans_dir: str):
    """Wrap a batch kernel so each call appends one span line to
    ``spans_dir/<pid>.jsonl`` in whichever worker process runs it."""

    def kernel(batch, **kwargs):
        t0 = time.perf_counter()
        out = fn(batch, **kwargs)
        t1 = time.perf_counter()
        rec = {
            "name": name, "start": t0, "end": t1, "parent": parent,
            "run_id": run_id, "counts": _kernel_counts(name, out),
        }
        with open(os.path.join(spans_dir, f"{os.getpid()}.jsonl"), "a") as f:
            f.write(json.dumps(rec) + "\n")
        return out

    kernel.__name__ = fn.__name__
    return kernel


class Tracer:
    """Spans of one benchmark run, kept in memory until ``dump``."""

    def __init__(self, spans_dir: str) -> None:
        self.spans_dir = spans_dir
        os.makedirs(spans_dir, exist_ok=True)
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, run_id: int):
        rec = {
            "id": len(self.spans), "name": name, "start": time.perf_counter(),
            "end": None, "parent": self._stack[-1] if self._stack else None,
            "run_id": run_id, "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def _driver_wrapper(self, fn, name: str, run_id: int, counts_of):
        def wrapped(*args, **kwargs):
            with self.span(name, run_id) as rec:
                out = fn(*args, **kwargs)
                rec["counts"].update(counts_of(args, out))
            return out

        return wrapped

    @contextlib.contextmanager
    def patch(self, kg, run_id: int):
        """Route pipelines.kg's layer calls through span wrappers for one
        job; the original functions are restored on exit."""
        originals = {
            a: getattr(kg, a)
            for a in [*_KERNELS, "run_phase_a", "run_phase_b",
                      "build_entity_table"]
        }
        for attr, (name, parent) in _KERNELS.items():
            setattr(kg, attr, traced_kernel(
                originals[attr], name, parent, run_id, self.spans_dir))
        kg.run_phase_a = self._driver_wrapper(
            originals["run_phase_a"], PHASE_A, run_id,
            lambda a, r: {"pages": r["pages_processed"],
                          "chunks_processed": r["chunks_processed"],
                          "chunks_total": r["chunks_total"]})
        kg.run_phase_b = self._driver_wrapper(
            originals["run_phase_b"], PHASE_B, run_id,
            lambda a, r: dict(r.get("phase_b_timings", {})))
        kg.build_entity_table = self._driver_wrapper(
            originals["build_entity_table"], CANON, run_id,
            lambda a, r: {"surfaces_in": len(a[0]),
                          "nodes_out": r[0].num_rows})
        try:
            yield
        finally:
            for attr, fn in originals.items():
                setattr(kg, attr, fn)

    def collect(self) -> None:
        """Move the worker span lines into ``spans``, each parented to the
        enclosing driver span of its named parent layer (same run_id)."""
        for path in sorted(glob.glob(os.path.join(self.spans_dir, "*.jsonl"))):
            with open(path) as f:
                recs = [json.loads(line) for line in f if line.strip()]
            os.remove(path)
            for rec in recs:
                rec["parent"] = next(
                    (s["id"] for s in self.spans
                     if s["name"] == rec["parent"]
                     and s["run_id"] == rec["run_id"]
                     and s["start"] <= rec["start"] <= s["end"]),
                    None,
                )
                rec["id"] = len(self.spans)
                self.spans.append(rec)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
