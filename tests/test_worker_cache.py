"""runtime.worker_cached — the one per-worker-process cache of broadcast
state (extractors, eval grams, bloom filters) —
keeps at most ``keep`` entries per call site, so a long-lived worker
serving a chain of jobs does not grow by one entry per job."""

import ast
import datetime
import gc
import pathlib

import pyarrow as pa
import ray

import agenticknowledgegraphconstructionsystem_ray as pkg
from agenticknowledgegraphconstructionsystem_ray import runtime
from agenticknowledgegraphconstructionsystem_ray.pipelines import (
    assembly,
    curate,
)
from agenticknowledgegraphconstructionsystem_ray.stages import triples
from agenticknowledgegraphconstructionsystem_ray.state import bloom

TS = pa.array([datetime.datetime(2024, 1, 1)], pa.timestamp("us"))


def _live(cls) -> int:
    gc.collect()
    return sum(isinstance(o, cls) for o in gc.get_objects())


def test_twenty_runs_leave_two_entries_per_stage(ray_session):
    """20 distinct broadcast refs in one process (20 jobs on one worker)
    leave at most two extractors alive."""
    pages = pa.table({
        "url": ["https://a.example/1"], "warc_ts": TS,
        "text": ["Ada Lovelace founded Acme Corp in London."],
        "lang": ["en"],
    })
    for i in range(20):
        alias_ref = ray.put({f"alias{i}": [f"Canon {i}"]})
        triples.extract_records_batch(pages, alias_ref=alias_ref)
    assert _live(triples.TripleExtractor) <= 2


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


# Broadcast values of distinct types, so the live copies a cache holds
# can be counted with gc (ray.get returns a fresh copy per fetch).
class _GramSet(set):
    pass


def _growth_over_twenty_refs(cls, make, call) -> int:
    """Live ``cls`` objects added by calling a cached stage with 20
    distinct broadcast refs in this process (20 jobs on one worker),
    each local copy dropped."""
    before = _live(cls)
    for i in range(20):
        ref = ray.put(make(i))
        call(ref)
        del ref
    return _live(cls) - before


def _small_bloom(i: int) -> bloom.BloomFilter:
    return bloom.BloomFilter.build([f"k{i}"], n_bits=1024, n_hashes=2)


def test_curate_eval_grams_stay_bounded(ray_session):
    docs = pa.table({"doc_id": pa.array([1], pa.int64()),
                     "text": ["the cat sat on the mat " * 10]})
    assert _growth_over_twenty_refs(
        _GramSet, lambda i: _GramSet({f"gram{i}"}),
        lambda ref: curate._flags_batch(docs, gram_ref=ref)) <= 2


def test_decontam_bloom_screen_stays_bounded(ray_session):
    docs = pa.table({"doc_id": pa.array([1], pa.int64()),
                     "text": ["the cat sat on the mat " * 10]})
    assert _growth_over_twenty_refs(
        bloom.BloomFilter, _small_bloom,
        lambda ref: assembly.bloom_screen_batch(docs, bloom_ref=ref)) <= 2


def test_bloom_semi_join_stays_bounded(ray_session):
    class _Capture:
        def map_batches(self, fn, **_kw):
            self.fn = fn
            return self

    keys = pa.table({"k": ["k0", "k1"]})

    def semi_join(ref):
        bloom.bloom_semi_join(_Capture(), "k", ref).fn(keys)

    assert _growth_over_twenty_refs(
        bloom.BloomFilter, _small_bloom, semi_join) <= 2


def test_no_module_level_worker_caches_outside_runtime():
    """Per-worker state goes through runtime.worker_cached only: a
    module-level ``_WORKER_*`` name elsewhere is an unbounded cache."""
    root = pathlib.Path(pkg.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "runtime.py":
            continue
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            found += [
                f"{path.relative_to(root)}:{node.lineno} {t.id}"
                for t in targets
                if isinstance(t, ast.Name) and t.id.startswith("_WORKER_")
            ]
    assert found == []
