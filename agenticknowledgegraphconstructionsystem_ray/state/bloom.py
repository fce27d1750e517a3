"""Bloom filter for broadcast semi/anti-joins at scale.

The broadcast-keyset join pattern (guide: "Semi/anti join: broadcast the key
set (or a Bloom filter of it)") ships the exact key set when it fits; when
the key side is large, ship this fixed-size Bloom filter instead:
- semi-join via Bloom keeps all true matches plus ~fpr false positives
  (callers needing exactness follow with an exact check on the survivors);
- anti-join via Bloom drops all true matches plus ~fpr false negatives on
  the complement — only safe where approximate filtering is acceptable
  (e.g. pre-filtering before an exact join).

Hashing is polars' seed-keyed 64-bit column hash (one Rust pass over the
whole key column — no per-key Python) with the Kirsch–Mitzenmacher
double-hashing construction ``g_i = h1 + i*h2 (mod m)`` deriving the k probe
positions from two base hashes (Kirsch & Mitzenmacher, "Less Hashing, Same
Performance", ESA 2006). Deterministic across processes/workers within a
run (polars hash = seeded xxhash, stable for a given polars version), numpy
bit array, cheap to ``ray.put``.

Distributed build: construct per-block partials with the SAME explicit
``n_bits``/``n_hashes`` (pass them, don't let capacity sizing pick), then
``BloomFilter.merge`` — OR is idempotent, so task retries/duplicates are
harmless. A fixed-size bitmap broadcast replaces an O(set size) exact-set
broadcast; see pipelines/assembly.dd_bloom_decontaminate for the full
screen-then-exactly-verify pattern.
"""

from __future__ import annotations

import math

import numpy as np

from ..runtime import worker_cached

_SEED_1 = 0x5EED_B100
_SEED_2 = 0x5EED_B200


class BloomFilter:
    def __init__(self, capacity: int | None = None, fpr: float = 0.01,
                 n_bits: int | None = None, n_hashes: int | None = None) -> None:
        if n_bits is None:
            capacity = max(1, capacity or 1)
            n_bits = max(8, int(-capacity * math.log(fpr) / (math.log(2) ** 2)))
            n_hashes = max(1, round(n_bits / capacity * math.log(2)))
        self.n_bits = int(n_bits)
        self.n_hashes = int(n_hashes or 4)
        self.bits = np.zeros((self.n_bits + 7) // 8, dtype=np.uint8)

    def _positions_many(self, keys) -> np.ndarray:
        """(len(keys), n_hashes) bit positions — one vectorized polars hash
        pass per seed, no per-key Python."""
        import polars as pl

        s = pl.Series([str(k) for k in keys], dtype=pl.String)
        h1 = s.hash(seed=_SEED_1).to_numpy().astype(np.uint64)
        h2 = s.hash(seed=_SEED_2).to_numpy().astype(np.uint64)
        h2 |= np.uint64(1)  # odd stride: never degenerates mod 2^j
        i = np.arange(self.n_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return (
                (h1[:, None] + i[None, :] * h2[:, None])
                % np.uint64(self.n_bits)
            ).astype(np.int64)

    def add_many(self, keys) -> None:
        keys = list(keys)
        if not keys:
            return
        pos = self._positions_many(keys).ravel()
        np.bitwise_or.at(
            self.bits, pos // 8, (1 << (pos % 8)).astype(np.uint8)
        )

    def probe_many(self, keys) -> np.ndarray:
        """Boolean array: True where ALL n_hashes bits are set."""
        keys = list(keys)
        if not keys:
            return np.zeros(0, dtype=bool)
        pos = self._positions_many(keys)
        hit = (self.bits[pos // 8] & (1 << (pos % 8)).astype(np.uint8)) != 0
        return hit.all(axis=1)

    def add(self, key) -> None:
        self.add_many([key])

    def __contains__(self, key) -> bool:
        return bool(self.probe_many([key])[0])

    @classmethod
    def build(cls, keys, fpr: float = 0.01,
              n_bits: int | None = None, n_hashes: int | None = None
              ) -> "BloomFilter":
        keys = list(keys)
        bf = cls(len(keys), fpr, n_bits=n_bits, n_hashes=n_hashes)
        bf.add_many(keys)
        return bf

    @classmethod
    def merge(cls, filters: list["BloomFilter"]) -> "BloomFilter":
        """OR-merge same-shape partials (idempotent: retry/duplicate-safe)."""
        first = filters[0]
        assert all(
            f.n_bits == first.n_bits and f.n_hashes == first.n_hashes
            for f in filters
        ), "partials must share n_bits/n_hashes"
        out = cls(n_bits=first.n_bits, n_hashes=first.n_hashes)
        for f in filters:
            np.bitwise_or(out.bits, f.bits, out=out.bits)
        return out


def bloom_semi_join(ds, key_column: str, bloom_ref):
    """Approximate semi-join: keep rows whose key is (probably) in the
    broadcast Bloom filter. Exact follow-up is the caller's choice.

    The filter object is resolved from the object store ONCE per worker
    process and cached by runtime.worker_cached (same pattern as
    stages/triples.extract_records_batch) — never re-fetched per batch."""
    import pyarrow as pa

    def fil(t: pa.Table, _ref=bloom_ref) -> pa.Table:
        import ray

        bf = (worker_cached(_ref, lambda: ray.get(_ref))
              if hasattr(_ref, "hex") else _ref)
        mask = pa.array(bf.probe_many(t[key_column].to_pylist()))
        return t.filter(mask)

    return ds.map_batches(fil, batch_format="pyarrow")
