"""Open-vocabulary phase B: nodes and id application without vocabulary-sized
driver state.

Below ``pipelines.kg.DRIVER_MCOUNT_MAX_ROWS`` mcount partial rows, phase B
(pipelines/kg.py) merges the mention counts into one driver table, runs
union-find over ALL distinct surfaces and broadcasts the full norm ->
(entity_id, canonical) map. That is correct while the vocabulary is
dimension-bounded (a closed alias universe), but on real web text
``norm_surface`` is open-vocabulary: distinct surfaces grow with the corpus,
and both the driver table and the broadcast map grow with them — the scale
killer the design doc warns about.

This module is phase B above that gate:

- the merged counts stay a DATASET;
- only ALIAS-RELEVANT surfaces (alias keys + normalized canonical names —
  the only norms union-find can ever merge; everything else is a singleton
  by construction) are reduced to the driver for union-find. That subset is
  bounded by the alias dictionary, NOT the corpus;
- every other surface becomes a singleton node distributed (vectorized
  map_batches, no driver pass);
- entity ids (dense rank of sorted canonical name — same rule as the
  driver side) are assigned distributed: sort, then per-block offsets from
  block row counts (driver sees one integer per block);
- edge id application resolves the ``HOT_MAP_CAP`` most-mentioned nodes
  from a broadcast hot map and the rest with a hash JOIN of triples against
  the exploded (member_norm -> entity_id, canonical) mapping dataset.

Output parity with the driver side (same nodes, same edges) is asserted by
tests/test_openvocab.py on the synthetic corpus, with the gate forced.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..functions.textnorm import norm_surface
from ..runtime import worker_cached
from ..stages.canonicalize import (
    EDGE_COLUMNS,
    ENTITY_SCHEMA,
    NODES_SCHEMA,
    component_table,
    edge_table,
    lookup_norms,
)

# Nodes in the broadcast hot map: the top HOT_MAP_CAP by mention_count.
# Triple rows whose norms all hit it resolve without a shuffle (the Zipf
# head = the bulk of occurrences); only tail rows pay the lookup join.
# 0 disables the hot map (pure join path). Read at call time.
HOT_MAP_CAP = 100_000


def alias_relevant_set(alias: dict[str, tuple[str, str]]) -> set[str]:
    """Surfaces union-find can involve: alias keys plus each canonical
    name's own normalized surface (union targets)."""
    return set(alias) | {norm_surface(v[0]) for v in alias.values()}


# Broadcast values fetched once per worker process (runtime.worker_cached),
# not per batch, so split/apply stages run as plain stateless tasks —
# elastic parallelism, no actor-pool spinup (pattern: stages/triples.py
# extract_records_batch, stages/canonicalize.apply_ids_batch).
def _cached_ref(ref):
    return worker_cached(ref, lambda: ray.get(ref))


def _split_relevant(t: pa.Table, rel_ref=None, keep: bool = True) -> pa.Table:
    mask = pc.is_valid(
        pc.index_in(t["norm_surface"], value_set=_cached_ref(rel_ref))
    )
    if not keep:
        mask = pc.invert(mask)
    return t.filter(mask)


class OVNodes:
    """Result bundle of build_nodes_openvocab."""

    def __init__(self, nodes_ds, mapping_ds, hot_map, hot_total, top_tbl,
                 n_nodes) -> None:
        self.nodes_ds = nodes_ds
        self.mapping_ds = mapping_ds
        self.hot_map = hot_map        # member_norm -> (entity_id, canonical)
        self.hot_total = hot_total    # True = hot_map covers EVERY node
        self.top_tbl = top_tbl        # global top-k nodes by count (k>=1000)
        self.n_nodes = n_nodes


def build_nodes_openvocab(
    counts_ds: rd.Dataset, alias: dict[str, tuple[str, str]]
):
    """counts Dataset (norm_surface, mention_count, link_count,
    perfect_links, max_score, min_score) -> OVNodes: materialized nodes
    Dataset with entity ids, the (member_norm -> entity_id, canonical)
    mapping Dataset, and a FIXED-SIZE hot map — the top ``HOT_MAP_CAP`` nodes
    by mention_count, exploded to their alias members. On Zipfian web text
    the hot head covers the bulk of triple occurrences, so edge id
    application resolves most rows against the broadcast hot map and only
    tail rows pay the distributed lookup join (apply_ids_hybrid). The hot
    map is bounded by ``HOT_MAP_CAP`` regardless of corpus size."""
    hot_cap = HOT_MAP_CAP
    relevant = pa.array(sorted(alias_relevant_set(alias)), pa.string())
    rel_ref = ray.put(relevant)

    counts_ds = counts_ds.materialize()  # consumed twice (hit + miss split)
    hits = [t for t in counts_ds.map_batches(
        _split_relevant, fn_kwargs={"rel_ref": rel_ref, "keep": True},
        batch_format="pyarrow",
    ).iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows]  # bounded by |alias dict|, never by the corpus

    merged_tbl, row_of = (
        component_table(pa.concat_tables(hits), alias) if hits
        else (ENTITY_SCHEMA.empty_table(), {})
    )

    def singleton_nodes(t: pa.Table) -> pa.Table:
        norms = t["norm_surface"]
        aliases = pa.ListArray.from_arrays(
            pa.array(np.arange(t.num_rows + 1, dtype=np.int32)),
            norms.combine_chunks(),
        )
        return pa.Table.from_arrays(
            [
                norms,
                pa.array(["concept"] * t.num_rows, pa.string()),
                pc.cast(t["mention_count"], pa.int64()),
                pc.cast(t["link_count"], pa.int64()),
                pc.cast(t["perfect_links"], pa.int64()),
                pc.cast(t["max_score"], pa.float64()),
                pc.cast(t["min_score"], pa.float64()),
                aliases,
            ],
            schema=ENTITY_SCHEMA,
        )

    singles_ds = counts_ds.map_batches(
        _split_relevant, fn_kwargs={"rel_ref": rel_ref, "keep": False},
        batch_format="pyarrow",
    ).map_batches(singleton_nodes, batch_format="pyarrow")

    nodes_noid = singles_ds
    if merged_tbl.num_rows:
        nodes_noid = rd.from_arrow(merged_tbl).union(singles_ds)

    # dense-rank entity ids distributed: global sort by canonical name, then
    # per-block offsets (the driver receives ONE integer per block)
    sorted_nodes = nodes_noid.sort("canonical_name").materialize()
    refs = sorted_nodes.to_arrow_refs()

    @ray.remote
    def _nrows(t: pa.Table) -> int:
        return t.num_rows

    @ray.remote
    def _with_ids(t: pa.Table, offset: int) -> pa.Table:
        if not t.num_rows:
            # empty sort partitions can lose their schema entirely
            return NODES_SCHEMA.empty_table()
        ids = pa.array(
            np.arange(offset, offset + t.num_rows, dtype=np.int64)
        )
        return pa.Table.from_arrays(
            [ids] + [t.column(f.name) for f in ENTITY_SCHEMA],
            schema=NODES_SCHEMA,
        )

    sizes = ray.get([_nrows.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]) if sizes else []
    id_refs = [
        _with_ids.remote(r, int(off)) for r, off in zip(refs, offsets)
    ]
    nodes_ds = rd.from_arrow_refs(id_refs).materialize()
    n_nodes = int(sum(sizes))

    # ---- global top-k nodes in ONE streaming pass (per-block local top-k
    # combiner, then a driver trim): feeds BOTH the nodes_summary CSV (top
    # 1000) and the hot map (top hot_cap). Driver volume is bounded by
    # k x n_blocks rows of 5 narrow columns, never by the vocabulary.
    k = max(1000, hot_cap)
    _TOP_COLS = ["entity_id", "canonical_name", "ent_type", "mention_count",
                 "link_count", "perfect_links", "max_score", "min_score",
                 "aliases"]
    _top_keys = [("mention_count", "descending"), ("entity_id", "ascending")]

    def local_top(t: pa.Table) -> pa.Table:
        sel = t.select(_TOP_COLS)
        if sel.num_rows > k:
            sel = sel.take(pc.select_k_unstable(sel, k=k, sort_keys=_top_keys))
        return sel

    parts = [
        p
        for p in ray.get(
            nodes_ds.map_batches(local_top, batch_format="pyarrow")
            .materialize().to_arrow_refs()
        )
        if p.num_rows
    ]
    top_tbl = (
        pa.concat_tables(parts)
        if parts
        else NODES_SCHEMA.empty_table().select(_TOP_COLS)
    )
    if top_tbl.num_rows > 1:
        top_tbl = top_tbl.take(
            pc.select_k_unstable(
                top_tbl, k=min(k, top_tbl.num_rows), sort_keys=_top_keys
            )
        )

    # (member_norm -> entity_id, canonical) mapping for edge id application:
    # merged components contribute every member (incl. unseen canonical
    # norms, matching the default id_map); singletons map themselves. The
    # extra-members dict is bounded by the alias dictionary and broadcast.
    extra_members: dict[str, list[str]] = {}
    names = merged_tbl["canonical_name"].to_pylist()
    seen = set(pc.list_flatten(merged_tbl["aliases"]).to_pylist())
    for m in sorted(set(row_of) - seen):
        extra_members.setdefault(names[row_of[m]], []).append(m)
    xm_ref = ray.put(extra_members)

    # ---- hot map: the top hot_cap nodes exploded to all their members.
    # hot_total: every node fit under the cap, so the hot map IS the full
    # mapping and edge id application needs no distributed join at all.
    hot_map: dict[str, tuple[int, str]] = {}
    hot_total = False
    if hot_cap > 0:
        hot = top_tbl.slice(0, hot_cap)
        for eid, canonical, aliases in zip(
            hot["entity_id"].to_pylist(),
            hot["canonical_name"].to_pylist(),
            hot["aliases"].to_pylist(),
        ):
            for m in aliases:
                hot_map[m] = (eid, canonical)
            for m in extra_members.get(canonical, ()):
                hot_map[m] = (eid, canonical)
        hot_total = n_nodes <= hot_cap

    def explode_mapping(t: pa.Table) -> pa.Table:
        norms, ids, names = [], [], []
        xm = ray.get(xm_ref)
        for eid, canonical, aliases in zip(
            t["entity_id"].to_pylist(),
            t["canonical_name"].to_pylist(),
            t["aliases"].to_pylist(),
        ):
            for m in aliases:
                norms.append(m)
                ids.append(eid)
                names.append(canonical)
            for m in xm.get(canonical, ()):
                norms.append(m)
                ids.append(eid)
                names.append(canonical)
        return pa.table(
            {
                "member_norm": pa.array(norms, pa.string()),
                "entity_id": pa.array(ids, pa.int64()),
                "canonical_name": pa.array(names, pa.string()),
            }
        )

    mapping_ds = nodes_ds.map_batches(explode_mapping, batch_format="pyarrow")
    return OVNodes(nodes_ds, mapping_ds, hot_map, hot_total, top_tbl, n_nodes)


# Skew-safe distributed lookup join (no Dataset.join — its hash partitions
# lose their schema when empty, which breaks chained joins on small or
# skewed inputs; verified on this Ray version). Rows are routed to
# M coarse shuffle groups by crc32(key)+salt, the (small-side) mapping is
# replicated once per salt so every coarse group holding rows of a key also
# holds that key's mapping row, and each coarse group resolves ALL its keys
# with one vectorized pandas merge. The salt splits a Zipf-hot key's rows
# across LOOKUP_SALTS coarse groups, so no single reducer receives a hot
# key's full row set.
LOOKUP_SALTS = 8
LOOKUP_GROUPS_MIN = 64


def _lookup_groups() -> int:
    """Coarse shuffle-group count: scales with the cluster so each CPU gets
    ~2 resolve groups; floor of 64 keeps small clusters well-mixed. Routing
    only affects partitioning — results are identical for any group count
    (and the final edges are re-sorted downstream anyway)."""
    from ..runtime import cluster_cpus

    return max(LOOKUP_GROUPS_MIN, 2 * cluster_cpus())


def _crc_i64(values: list[str]) -> "np.ndarray":
    import zlib

    return np.fromiter(
        (zlib.crc32(x.encode()) for x in values), dtype=np.int64,
        count=len(values),
    )


def lookup_join(
    rows: rd.Dataset,
    key_col: str,
    mapping_ds: rd.Dataset,
    id_out: str,
    name_out: str,
    row_fields: list[tuple[str, pa.DataType]],
) -> rd.Dataset:
    """Left-lookup of ``rows[key_col]`` against mapping (member_norm ->
    entity_id, canonical_name); appends ``id_out`` (int64, -1 when missing)
    and ``name_out`` (string, key itself when missing). ``row_fields`` names
    the row columns and their Arrow types (callers know their schema; asking
    the Dataset would force execution mid-plan)."""

    row_cols = [n for n, _ in row_fields]
    row_types = dict(row_fields)
    # computed ONCE and captured by both routing closures — rows and mapping
    # MUST agree on the group count or matching keys land in different groups
    n_groups = _lookup_groups()

    # both sides of the union carry the SAME column set (row cols + mapping
    # cols), null-padded — Ray's union/shuffle needs consistent block schemas
    def route_rows(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_pylist()
        h = _crc_i64(keys)
        salt = np.arange(len(keys), dtype=np.int64) % LOOKUP_SALTS
        coarse = (h + salt) % n_groups
        arrays = [t[c] for c in row_cols]
        arrays += [
            pa.array(coarse, pa.int32()),
            pa.nulls(t.num_rows, pa.string()),   # __mkey
            pa.nulls(t.num_rows, pa.int64()),    # __mid
            pa.nulls(t.num_rows, pa.string()),   # __mname
        ]
        return pa.Table.from_arrays(
            arrays, names=row_cols + ["__coarse", "__mkey", "__mid", "__mname"]
        )

    def route_mapping(t: pa.Table) -> pa.Table:
        norms = t["member_norm"].to_pylist()
        h = _crc_i64(norms)
        idx = np.repeat(np.arange(t.num_rows), LOOKUP_SALTS)
        salts = np.tile(np.arange(LOOKUP_SALTS, dtype=np.int64), t.num_rows)
        coarse = (h[idx] + salts) % n_groups
        rep = t.take(pa.array(idx))
        arrays = [pa.nulls(rep.num_rows, row_types[c]) for c in row_cols]
        arrays += [
            pa.array(coarse, pa.int32()),
            rep["member_norm"],
            pc.cast(rep["entity_id"], pa.int64()),
            rep["canonical_name"],
        ]
        return pa.Table.from_arrays(
            arrays, names=row_cols + ["__coarse", "__mkey", "__mid", "__mname"]
        )

    routed_rows = rows.map_batches(route_rows, batch_format="pyarrow")
    routed_map = mapping_ds.map_batches(route_mapping, batch_format="pyarrow")

    def resolve(g):
        is_map = g["__mkey"].notna()
        mp = g.loc[is_map, ["__mkey", "__mid", "__mname"]].drop_duplicates(
            "__mkey"
        )
        tr = g.loc[~is_map, row_cols]
        if not len(tr):
            out = tr.copy()
            out[id_out] = np.array([], dtype=np.int64)
            out[name_out] = np.array([], dtype="U1")
            return out
        out = tr.merge(
            mp, left_on=key_col, right_on="__mkey", how="left"
        )
        out[id_out] = out["__mid"].fillna(-1).astype("int64")
        out[name_out] = out["__mname"].fillna(out[key_col])
        return out.drop(columns=["__mkey", "__mid", "__mname"])

    return (
        routed_rows.union(routed_map)
        .groupby("__coarse")
        .map_groups(resolve, batch_format="pandas")
    )


def apply_ids_join(triples: rd.Dataset, mapping_ds: rd.Dataset) -> rd.Dataset:
    """Join-based edge id application (no broadcast map): triples resolved
    against the mapping dataset on subj_norm then obj_norm via the skew-safe
    lookup join (unknown norms keep -1/norm like the broadcast path).
    Output columns match stages/canonicalize.apply_ids_batch."""
    triple_fields = [
        ("url", pa.string()), ("warc_ts", pa.timestamp("us")),
        ("subj", pa.string()), ("subj_norm", pa.string()),
        ("pred", pa.string()), ("obj", pa.string()),
        ("obj_norm", pa.string()), ("confidence", pa.float64()),
        ("context", pa.string()),
    ]
    j = lookup_join(
        triples, "subj_norm", mapping_ds, "ms_id", "ms_name", triple_fields
    )
    j = lookup_join(
        j, "obj_norm", mapping_ds, "mo_id", "mo_name",
        triple_fields + [("ms_id", pa.int64()), ("ms_name", pa.string())],
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                pc.cast(t["ms_id"], pa.int64()).combine_chunks(),
                t["pred"].combine_chunks(),
                pc.cast(t["mo_id"], pa.int64()).combine_chunks(),
                t["ms_name"].combine_chunks(),
                t["mo_name"].combine_chunks(),
                t["url"].combine_chunks(),
                pc.cast(t["warc_ts"], pa.timestamp("us")).combine_chunks(),
                t["confidence"].combine_chunks(),
                t["context"].combine_chunks(),
            ],
            names=EDGE_COLUMNS,
        )

    return j.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Hybrid edge id application: broadcast hot head + distributed tail join.
#
# Web-text surface frequencies are Zipfian, so the top HOT_MAP_CAP nodes cover
# the bulk of triple occurrences. Rows whose BOTH norms hit the broadcast
# hot map resolve in-place (zero shuffles — the closed-vocab broadcast
# pattern with a FIXED-size dict); only rows touching a tail norm route
# through the skew-safe lookup join. When every node fit under the cap
# (hot_total), the hot map IS the complete mapping and even misses are true
# unknowns (-1), so the tail join is skipped entirely.
# ---------------------------------------------------------------------------


def hot_apply_batch(
    t: pa.Table, hot_ref=None, emit: str = "hits", total: bool = False
) -> pa.Table:
    """Stateless-task hot-map pass. emit='hits': resolve and return edge
    rows whose norms are covered (ALL rows when total — misses become the
    -1 unknown sentinel, the broadcast-path semantics). emit='misses':
    return the UNRESOLVED triple rows unchanged (the tail join input)."""
    hmap = _cached_ref(hot_ref)
    subj = lookup_norms(t["subj_norm"], hmap)
    obj = lookup_norms(t["obj_norm"], hmap)
    # entity ids are >= 0: the -1 sentinel marks a hot-map miss
    covered = pc.and_(pc.not_equal(subj[0], -1), pc.not_equal(obj[0], -1))
    if emit == "misses":
        return t.filter(pc.invert(covered))
    if not total:
        t = t.filter(covered)
        subj = [pc.filter(a, covered) for a in subj]
        obj = [pc.filter(a, covered) for a in obj]
    return edge_table(t, subj, obj)


def apply_ids_hybrid(
    triples: rd.Dataset,
    mapping_ds: rd.Dataset,
    hot_map: dict[str, tuple[int, str]],
    hot_total: bool,
) -> rd.Dataset:
    """Edge id application with the hot-head/tail split. Byte-identical to
    apply_ids_join (tests force HOT_MAP_CAP small / zero to prove it): the
    hot map's entries are mapping rows, and the tail path resolves exactly
    the rows the hot pass could not."""
    if not hot_map:
        return apply_ids_join(triples, mapping_ds)
    hot_ref = ray.put(hot_map)
    hits = triples.map_batches(
        hot_apply_batch,
        fn_kwargs={"hot_ref": hot_ref, "emit": "hits", "total": hot_total},
        batch_format="pyarrow",
    )
    if hot_total:
        return hits
    tail = triples.map_batches(
        hot_apply_batch,
        fn_kwargs={"hot_ref": hot_ref, "emit": "misses", "total": False},
        batch_format="pyarrow",
    )
    return hits.union(apply_ids_join(tail, mapping_ds))
