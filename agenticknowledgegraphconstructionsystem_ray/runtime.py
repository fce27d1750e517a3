"""Small runtime helpers shared across stages and pipelines."""

from __future__ import annotations

import os
from collections import OrderedDict

import ray


def cluster_cpus(default: int = 8) -> int:
    """Total cluster CPUs (>=1); ``default`` when Ray is not initialized or
    resources are unavailable. The ONE definition — stages and pipelines
    must not re-implement this probe with divergent fallbacks."""
    try:
        return max(1, int(ray.cluster_resources().get("CPU", default)))
    except Exception:  # noqa: BLE001
        return default


def file_groups(files: list) -> list:
    """``files`` split into contiguous groups, one task each: one group per
    cluster CPU (never more groups than files), raised only when the
    files' uncompressed bytes (from their footers) per group would exceed
    Ray's target block size. A file whose footer does not parse counts no
    bytes; the task that reads it reports it. Contiguous, so
    concatenating the groups' outputs in group order keeps the files'
    order."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data import DataContext

    def footer_bytes(f) -> int:
        try:
            md = pq.read_metadata(f)
        except pa.ArrowInvalid:  # unreadable footer: its reader reports it
            return 0
        return sum(md.row_group(g).total_byte_size
                   for g in range(md.num_row_groups))

    n_bytes = sum(map(footer_bytes, files))
    target = DataContext.get_current().target_max_block_size
    n = min(len(files), max(cluster_cpus(), -(-n_bytes // target)))
    cut = [len(files) * i // n for i in range(n + 1)]
    return [files[a:b] for a, b in zip(cut, cut[1:])]


def equal_cuts(n: int, parts: int) -> list[int]:
    """First key of ranges 1..parts-1 when ``[0, n)`` is cut into
    ``parts`` equal-width ranges; a key below 0 falls in range 0."""
    return [p * n // parts for p in range(1, parts)]


def range_slices(t, order: list, cuts: list) -> list:
    """``t`` stably sorted by ``order`` (its first key is the range key)
    and sliced at ``cuts``: slice ``p`` holds the keys in
    ``[cuts[p-1], cuts[p])``, empty where no key falls."""
    import numpy as np

    t = t.sort_by(order)
    at = np.searchsorted(t[order[0][0]].to_numpy(), cuts, side="left")
    bounds = [0, *at.tolist(), t.num_rows]
    return [t.slice(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def write_part(t, path: str, **kw) -> int:
    """Write ``t`` (zstd) to ``path`` unless it is empty; its row count."""
    import pyarrow.parquet as pq

    if t.num_rows:
        pq.write_table(t, path, compression="zstd", **kw)
    return t.num_rows


@ray.remote
def _exchange_map(map_fn, order, cuts, group, *args):
    parts = range_slices(map_fn(group, *args), order, cuts)
    return parts[0] if len(parts) == 1 else tuple(parts)


@ray.remote
def _exchange_reduce(reduce_fn, path, args, *slices):
    return reduce_fn(list(slices), path, *args)


def range_exchange(groups: list, map_fn, map_args: tuple, order: list,
                   cuts: list, reduce_fn, reduce_args: list,
                   out_dir: str) -> list:
    """Exchange rows by key range between plain Ray tasks (no Ray Data,
    no all-to-all). Map task g cuts ``map_fn(groups[g], *map_args)`` with
    ``range_slices(_, order, cuts)`` (an ObjectRef among ``map_args``
    arrives resolved); reduce task p gets only range p's slices, in group
    order, and runs ``reduce_fn(slices, out_dir/part-<p:05d>.parquet,
    *reduce_args[p])``, which writes that one file (``write_part``: none
    for an empty range). Returns the reduce results in range order."""
    n_parts = len(cuts) + 1
    mapped = [_exchange_map.options(num_returns=n_parts).remote(
                  map_fn, order, cuts, g, *map_args)
              for g in groups]
    if n_parts == 1:
        mapped = [[m] for m in mapped]
    return ray.get([
        _exchange_reduce.remote(
            reduce_fn, os.path.join(out_dir, f"part-{p:05d}.parquet"),
            reduce_args[p], *(m[p] for m in mapped))
        for p in range(n_parts)
    ])


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
