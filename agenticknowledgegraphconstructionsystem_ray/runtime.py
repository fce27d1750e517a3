"""Small runtime helpers shared across stages and pipelines."""

from __future__ import annotations

from collections import OrderedDict


def cluster_cpus(default: int = 8) -> int:
    """Total cluster CPUs (>=1); ``default`` when Ray is not initialized or
    resources are unavailable. The ONE definition — stages and pipelines
    must not re-implement this probe with divergent fallbacks."""
    try:
        import ray

        return max(1, int(ray.cluster_resources().get("CPU", default)))
    except Exception:  # noqa: BLE001
        return default


_WORKER_CACHES: dict = {}


def worker_cached(ref, build, keep: int = 2):
    """Per-worker-process state built once from a broadcast value and
    reused by every later task of the same run — the fetch-once semantics
    of an actor ``__init__`` for plain tasks.

    ``ref`` is the ObjectRef the state derives from, or a tuple of it and
    other hashable parts of the state's identity; ObjectRefs are keyed by
    their hex, never held, so the cache does not pin objects in the store.
    Each call site (``build``'s qualified name) keeps its own LRU of at
    most ``keep`` entries, so a long-lived worker serving a chain of jobs
    holds the current run's state and one previous run's, not every run's.
    """
    parts = ref if isinstance(ref, tuple) else (ref,)
    key = tuple(p.hex() if hasattr(p, "hex") else p for p in parts)
    site = _WORKER_CACHES.setdefault(
        f"{build.__module__}.{build.__qualname__}", OrderedDict())
    if key in site:
        site.move_to_end(key)
        return site[key]
    value = site[key] = build()
    while len(site) > keep:
        site.popitem(last=False)
    return value
