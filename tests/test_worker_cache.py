"""runtime.worker_cached — the per-worker-process cache behind the
task-form extraction and id-apply stages — keeps at most ``keep`` entries
per call site, so a long-lived worker serving a chain of jobs does not
grow by one extractor or id map per job."""

import datetime
import gc

import pyarrow as pa
import ray

from agenticknowledgegraphconstructionsystem_ray import runtime
from agenticknowledgegraphconstructionsystem_ray.stages import (
    canonicalize,
    triples,
)

TS = pa.array([datetime.datetime(2024, 1, 1)], pa.timestamp("us"))


def _live(cls) -> int:
    gc.collect()
    return sum(isinstance(o, cls) for o in gc.get_objects())


def test_twenty_runs_leave_two_entries_per_stage(ray_session):
    """20 distinct broadcast refs in one process (20 jobs on one worker)
    leave at most two extractors and two id appliers alive, and the
    latest run's state is the one served."""
    pages = pa.table({
        "url": ["https://a.example/1"], "warc_ts": TS,
        "text": ["Ada Lovelace founded Acme Corp in London."],
        "lang": ["en"],
    })
    edges = pa.table({
        "subj_norm": ["ada"], "pred": ["founded"], "obj_norm": ["acme"],
        "url": ["https://a.example/1"], "warc_ts": TS,
        "confidence": ["high"], "context": ["ctx"],
    })
    for i in range(20):
        alias_ref = ray.put({f"alias{i}": [f"Canon {i}"]})
        triples.extract_records_batch(pages, alias_ref=alias_ref)
        id_ref = ray.put({"ada": (i, f"ada{i}"), "acme": (100 + i, "acme")})
        out = canonicalize.apply_ids_batch(edges, id_map_ref=id_ref)
        assert out["subj_id"].to_pylist() == [i]
    assert _live(triples.TripleExtractor) <= 2
    assert _live(canonicalize.ApplyEntityIds) <= 2


def test_worker_cached_is_lru_per_site():
    calls = []

    def build_a():
        calls.append("a")
        return len(calls)

    def build_b():
        calls.append("b")
        return len(calls)

    first = runtime.worker_cached(("k1",), build_a)
    assert runtime.worker_cached(("k1",), build_a) == first  # hit
    runtime.worker_cached(("k2",), build_a)
    runtime.worker_cached(("k1",), build_a)  # k1 now most recent
    runtime.worker_cached(("k3",), build_a)  # evicts k2, not k1
    # another site keeps its own entries and evicts none of build_a's
    runtime.worker_cached(("k1",), build_b)
    assert runtime.worker_cached(("k1",), build_a) == first
    assert calls == ["a", "a", "a", "b"]
    runtime.worker_cached(("k2",), build_a)  # was evicted: rebuilt
    assert calls == ["a", "a", "a", "b", "a"]
