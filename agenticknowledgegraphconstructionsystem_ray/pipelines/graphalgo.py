"""Distributed graph analytics over the materialized KG (node/edge parquet).

kg_pagerank: join-based PageRank over the canonical entity graph — the
standard iterative shape for a graph that does NOT fit one machine:

    adjacency (edge-partitioned, hash on subj)  x  rank vector (node table)
    -> inner hash join on subj -> per-edge contribution -> groupby(dst) sum
    -> add teleport base -> next rank vector

Every iteration is one hash join + one aggregate shuffle; the only
materialized state between iterations is the node-sized rank Dataset (the
iterative frontier, never the corpus). Nothing vocabulary- or edge-sized
touches the driver; the driver sees only the final top-k.

Determinism contract: FIXED-POINT INTEGER arithmetic (rank scaled by
``PR_SCALE``), floor division at every distribution step, a fixed iteration
count — so the distributed result is bit-identical to the sequential golden
(goldens._seq_pagerank) regardless of block layout, join order or summation
order (int64 addition is associative/commutative; float PageRank would not
survive reordered sums).

Semantics (documented, both implementations): directed graph = DISTINCT
(subj_id, obj_id) pairs of linked edges (ids >= 0); damping 0.85 as integer
85/100; dangling mass is dropped (leaks), rank starts at PR_SCALE per node;
after ``PR_ITERS`` rounds emit the top ``PR_TOP`` nodes by
(rank desc, entity_id asc).

Reference analog: the reference surfaces "top concepts" by mention_count
(`db_init.py:240-252`); PageRank is the same leaderboard computed from the
graph STRUCTURE instead of raw counts.

Scale note: TOTAL rank mass is bounded by n_nodes * PR_SCALE, and any single
rank by that same total (a star hub can absorb nearly all of it), so pick
PR_SCALE such that n_nodes * PR_SCALE * PR_DAMP_NUM stays inside int64:
PR_SCALE=1e9 is safe to ~1e8 nodes; drop to 1e6 for 1e11-node graphs.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from ..runtime import cluster_cpus

def _attach_i64(
    rows: "rd.Dataset",
    row_cols: list[str],
    key_col: str,
    lut: "rd.Dataset",
    lut_key: str,
    lut_val: str,
    out_col: str,
    n_groups: int,
    default: int | None = None,
) -> "rd.Dataset":
    """Attach ``lut[lut_val]`` to ``rows`` on an int64 key — every named
    column must be int64. Coarse-bucket tag-union groupby join: route both
    sides by ``key % n_groups``, resolve each bucket vectorized in pandas.
    ``default=None`` drops rows with no lookup match (inner join); otherwise
    misses get ``default`` (left join).

    Exists because Dataset.join's hash aggregators lose the block schema
    when a partition side is empty on this Ray version (ArrowInvalid "no
    match for key field") — tiny, skewed, or iteratively shrinking inputs
    hit that reliably. Same shape as kcore's bucketed anti-join. One all-to-all on the coarse key; a bucket holds
    ~rows/n_groups rows plus its slice of the (node-sized) lookup table.
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    def route_rows(t: pa.Table) -> pa.Table:
        kv = t[key_col].combine_chunks().to_numpy(zero_copy_only=False)
        cols = {c: t[c] for c in row_cols}
        cols["__val"] = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        cols["__tag"] = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        cols["__coarse"] = pa.array(kv % n_groups, pa.int64())
        return pa.table(cols)

    def route_lut(t: pa.Table) -> pa.Table:
        kv = t[lut_key].combine_chunks().to_numpy(zero_copy_only=False)
        zeros = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        cols = {c: zeros for c in row_cols}
        cols[key_col] = pa.array(kv, pa.int64())
        cols["__val"] = pc.cast(t[lut_val], pa.int64())
        cols["__tag"] = pa.array(np.ones(t.num_rows, np.int64), pa.int64())
        cols["__coarse"] = pa.array(kv % n_groups, pa.int64())
        return pa.table(cols)

    def resolve(df: "pd.DataFrame") -> pa.Table:
        is_lut = df["__tag"].to_numpy() == 1
        lut_s = pd.Series(
            df.loc[is_lut, "__val"].to_numpy(),
            index=df.loc[is_lut, key_col].to_numpy(),
        )
        out = df.loc[~is_lut, row_cols]
        v = out[key_col].map(lut_s)
        if default is None:
            hit = v.notna().to_numpy()
            out = out.loc[hit]
            v = v.loc[hit]
        else:
            v = v.fillna(default)
        out = out.copy()
        out[out_col] = v.to_numpy(dtype=np.int64)
        # emit Arrow: a pandas-block tail here mixes block types with the
        # Arrow map_batches stages downstream, which the sort sampler rejects
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        rows.map_batches(route_rows, batch_format="pyarrow")
        .union(lut.map_batches(route_lut, batch_format="pyarrow"))
        .groupby("__coarse")
        .map_groups(resolve, batch_format="pandas")
    )



def _distinct_undirected_pairs(edges: "rd.Dataset") -> "rd.Dataset":
    """DISTINCT undirected linked pairs (a < b), self-loops dropped — the
    shared graph-canonicalization kernel (bfs/jaccard/walks/negatives).
    Output columns: a, b (plus a _c count ignored by consumers)."""
    import pyarrow.compute as pc

    def canon(t: pa.Table) -> pa.Table:
        a = pc.cast(t["subj_id"], pa.int64())
        b = pc.cast(t["obj_id"], pa.int64())
        lo, hi = pc.min_element_wise(a, b), pc.max_element_wise(a, b)
        keep = pc.not_equal(lo, hi)
        tt = pa.table({"a": lo, "b": hi}).filter(keep)
        return tt.group_by(["a", "b"]).aggregate([]).rename_columns(["a", "b"])

    return (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_c"))
    )


def _symmetrize_pairs(pairs: "rd.Dataset") -> "rd.Dataset":
    """(a, b) pairs -> both orientations as (src, dst)."""

    def sym(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [t["a"].combine_chunks(), t["b"].combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [t["b"].combine_chunks(), t["a"].combine_chunks()]
                ),
            }
        )

    return pairs.map_batches(sym, batch_format="pyarrow")


def _kg_edges_ds(out: str) -> "rd.Dataset":
    """Linked (subj_id, obj_id) pairs of a materialized KG output dir."""
    return rd.read_parquet(
        sorted(glob.glob(os.path.join(out, "edges/**/*.parquet"), recursive=True)),
        columns=["subj_id", "obj_id"],
    ).filter(expr="subj_id >= 0 and obj_id >= 0")


def _kg_nodes_ds(out: str) -> "rd.Dataset":
    return rd.read_parquet(
        sorted(glob.glob(os.path.join(out, "nodes", "*.parquet"))),
        columns=["entity_id"],
    )


PR_SCALE = 10**9
PR_DAMP_NUM, PR_DAMP_DEN = 85, 100
PR_BASE = PR_SCALE * (PR_DAMP_DEN - PR_DAMP_NUM) // PR_DAMP_DEN
PR_ITERS = 10
PR_TOP = 50
# Node-count gate for the broadcast-rank BSP fast path: below this, the
# rank vector ships to workers via ray.put each round (16 MB at the cap)
# and a round is ONE map stage + a combiner-partial driver merge — no
# all-to-all, ~0.1-0.2 s of scheduling instead of ~2 s of shuffle rounds
# (wg_host_rank paid ~19 s of pure BSP scheduling latency at sf0.1).
# Above the cap (open-vocabulary web graphs at real scale) the
# shuffle-per-round loop below remains the path — same integers either
# way, asserted by the unchanged golden parities.
PR_BROADCAST_NODES = 2_000_000


def _contrib_batch(t: pa.Table) -> pa.Table:
    """Per-edge contribution: (rank * d // 100) // out_degree, int64."""
    import numpy as np

    rank = t["rank"].combine_chunks().to_numpy(zero_copy_only=False)
    deg = t["deg"].combine_chunks().to_numpy(zero_copy_only=False)
    c = (rank * PR_DAMP_NUM // PR_DAMP_DEN) // deg
    return pa.table(
        {"node_id": t["obj_id"], "c": pa.array(c.astype("int64"), pa.int64())}
    )


def _gather_node_ids(nodes: "rd.Dataset"):
    """Sorted unique int64 node ids on the driver — the broadcast paths'
    shared gather (callers pre-materialize `nodes`, so this re-reads
    blocks, not the upstream plan)."""
    import numpy as np

    return np.unique(
        np.concatenate(
            [
                b["entity_id"].to_numpy(zero_copy_only=False)
                for b in nodes.iter_batches(
                    batch_format="pyarrow", batch_size=None
                )
            ]
            or [np.zeros(0, np.int64)]
        ).astype(np.int64)
    )


def _pagerank_broadcast(adj: "rd.Dataset", nodes: "rd.Dataset",
                        iters: int, top: int,
                        seed_mod: int | None,
                        weighted: bool = False) -> "rd.Dataset":
    """Broadcast-rank power iteration — the round-LATENCY path for node
    sets under PR_BROADCAST_NODES. Edges stay distributed (the adjacency
    is the same edge-partitioned materialization the shuffle loop uses);
    each round broadcasts the int64 rank vector via ray.put, every block
    emits (node_id, c) combiner partials bounded by its own distinct
    destinations, and the driver merges partials by integer addition —
    the repo's standard block-combiner idiom (A4 mention counts,
    validation summaries). Bit-identical to the shuffle loop: same
    per-edge kernel ((rank * 85 // 100) // deg), same base/seed masks,
    same (rank desc, node asc) tail.

    Fails loudly if an edge endpoint is missing from ``nodes`` — the
    closure assumption every caller satisfies by construction (kg nodes
    table, host graphs built from their own endpoint set); an open graph
    must use the shuffle loop, not silently mis-rank."""
    import numpy as np

    ids = _gather_node_ids(nodes)
    n = len(ids)
    if n == 0:
        return rd.from_arrow(
            pa.schema(
                [("entity_id", pa.int64()), ("rank_fp", pa.int64())]
            ).empty_table()
        )
    seed = (
        np.ones(n, bool) if seed_mod is None else (ids % seed_mod) == 0
    )
    rank = np.where(seed, np.int64(PR_SCALE), np.int64(0)).astype(np.int64)
    base = np.where(seed, np.int64(PR_BASE), np.int64(0)).astype(np.int64)
    ids_ref = ray.put(ids)

    # Divisor vector (out-degree / out-weight per node) via ONE combiner
    # pass over the distinct adjacency — replaces the _attach_i64 shuffle
    # the loop path pays to co-locate it with every edge.
    def div_partial(t: pa.Table, _i=ids_ref, _w=weighted) -> pa.Table:
        import numpy as np

        ids_ = ray.get(_i) if hasattr(_i, "hex") else _i
        subj = t["subj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        si = np.searchsorted(ids_, subj)
        if (si >= len(ids_)).any() or (ids_[si] != subj).any():
            raise ValueError(
                "edge subject outside the node set — broadcast pagerank "
                "requires endpoint closure"
            )
        vals = (
            t["w"].combine_chunks().to_numpy(zero_copy_only=False)
            if _w
            else np.ones(len(si), np.int64)
        )
        u, inv = np.unique(si, return_inverse=True)
        acc = np.zeros(len(u), np.int64)
        np.add.at(acc, inv, vals)
        return pa.table(
            {
                "idx": pa.array(u.astype(np.int64), pa.int64()),
                "d": pa.array(acc, pa.int64()),
            }
        )

    div = np.zeros(n, np.int64)
    for blk in adj.map_batches(
        div_partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        if blk.num_rows:
            np.add.at(
                div,
                blk["idx"].to_numpy(zero_copy_only=False),
                blk["d"].to_numpy(zero_copy_only=False),
            )
    div_ref = ray.put(div)

    for _ in range(iters):
        r_ref = ray.put(rank)

        def contrib_partial(
            t: pa.Table, _i=ids_ref, _r=r_ref, _d=div_ref, _w=weighted
        ) -> pa.Table:
            import numpy as np

            ids_ = ray.get(_i) if hasattr(_i, "hex") else _i
            r = ray.get(_r) if hasattr(_r, "hex") else _r
            dv = ray.get(_d) if hasattr(_d, "hex") else _d
            subj = t["subj_id"].combine_chunks().to_numpy(
                zero_copy_only=False
            )
            obj = t["obj_id"].combine_chunks().to_numpy(zero_copy_only=False)
            si = np.searchsorted(ids_, subj)
            if (si >= len(ids_)).any() or (ids_[si] != subj).any():
                raise ValueError(
                    "edge subject outside the node set — broadcast "
                    "pagerank requires endpoint closure"
                )
            if _w:  # _wcontrib_batch kernel, same integers
                w = t["w"].combine_chunks().to_numpy(zero_copy_only=False)
                c = (r[si] * PR_DAMP_NUM // PR_DAMP_DEN) * w // dv[si]
            else:  # _contrib_batch kernel
                c = (r[si] * PR_DAMP_NUM // PR_DAMP_DEN) // dv[si]
            u, inv = np.unique(obj, return_inverse=True)
            acc = np.zeros(len(u), np.int64)
            np.add.at(acc, inv, c)
            return pa.table(
                {
                    "node_id": pa.array(u, pa.int64()),
                    "c": pa.array(acc, pa.int64()),
                }
            )

        new = base.copy()
        for b in adj.map_batches(
            contrib_partial, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            if not b.num_rows:
                continue
            bn = b["node_id"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(ids, bn)
            if (idx >= n).any() or (ids[idx] != bn).any():
                raise ValueError(
                    "edge destination outside the node set — broadcast "
                    "pagerank requires endpoint closure"
                )
            np.add.at(new, idx, b["c"].to_numpy(zero_copy_only=False))
        if np.array_equal(new, rank):
            # exact integer fixpoint: every remaining iteration is a
            # no-op, so early exit is EXACT (identical output to running
            # all iters) — free here because the vector is driver-resident
            break
        rank = new

    order = np.lexsort((ids, -rank))[:top]
    return rd.from_arrow(
        pa.table(
            {
                "entity_id": pa.array(ids[order], pa.int64()),
                "rank_fp": pa.array(rank[order], pa.int64()),
            }
        )
    )


def pagerank(edges: "rd.Dataset", nodes: "rd.Dataset",
             iters: int = PR_ITERS, top: int = PR_TOP,
             seed_mod: int | None = None,
             force_shuffle: bool = False) -> "rd.Dataset":
    """Fixed-point PageRank. ``edges``: (subj_id, obj_id) int64 rows (may
    repeat; deduped here). ``nodes``: (entity_id) int64, one row per node —
    isolated nodes keep the teleport base.

    ``seed_mod``: PERSONALIZED variant — teleport mass (initial rank and
    the per-round base) goes only to nodes with ``node_id % seed_mod == 0``
    instead of every node; everything else about the integer fixed-point
    semantics is identical.

    Endpoint closure: every edge endpoint must appear in ``nodes``. The
    broadcast path (node count <= PR_BROADCAST_NODES) ENFORCES this with a
    ValueError; the shuffle path above the gate silently drops/absorbs
    open-graph rows — pass a closed node set regardless of size, or pass
    ``force_shuffle=True`` to opt out of the gate and keep the shuffle
    path's open-graph absorption semantics."""
    n_parts = max(8, cluster_cpus())

    pairs = (
        edges.groupby(["subj_id", "obj_id"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    # materialize once: the gate's count() and the broadcast path's id
    # gather would otherwise each re-execute the upstream node plan
    nodes = nodes.materialize()
    if not force_shuffle and nodes.count() <= PR_BROADCAST_NODES:
        # no deg attach: the broadcast path derives the divisor vector
        # from the distinct pairs in one combiner pass
        adjb = pairs.repartition(n_parts).materialize()
        return _pagerank_broadcast(adjb, nodes, iters, top, seed_mod)

    deg = pairs.groupby("subj_id").aggregate(Count(alias_name="deg"))
    # Bound the loop-state partition count: a groupby inherits its input's
    # block count, so a many-block edge source (e.g. 64 read tasks) would
    # run every one of the 2*iters shuffles below over hundreds of
    # near-empty partitions — measured 10-100x wall blowup vs n_parts
    # blocks. repartition is row-identical; n_parts scales with the
    # cluster, so at real scale blocks stay ~CPU-count-sized.
    adj = (
        _attach_i64(
            pairs, ["subj_id", "obj_id"], "subj_id",
            deg, "subj_id", "deg", "deg", n_parts,
        )
        .repartition(n_parts)
        .materialize()
    )  # edge-partitioned adjacency with out-degree, built once

    def base_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node_id": t["entity_id"],
                "c": pa.array([0] * len(t), pa.int64()),
            }
        )

    zero = (
        nodes.map_batches(base_rows, batch_format="pyarrow")
        .repartition(n_parts)
        .materialize()
    )

    def _seed_mask(ids_col) -> "pa.Array":
        import numpy as np

        ids = ids_col.combine_chunks().to_numpy(zero_copy_only=False)
        if seed_mod is None:
            return pa.array(np.ones(len(ids), dtype=bool))
        return pa.array((ids % seed_mod) == 0)

    def init_rank(t: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        m = _seed_mask(t["node_id"])
        return pa.table(
            {
                "node_id": t["node_id"],
                "rank": pc.if_else(m, pa.scalar(PR_SCALE, pa.int64()),
                                   pa.scalar(0, pa.int64())),
            }
        )

    ranks = zero.map_batches(init_rank, batch_format="pyarrow").materialize()

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = _seed_mask(t["node_id"])
        base = pc.if_else(m, pa.scalar(PR_BASE, pa.int64()),
                          pa.scalar(0, pa.int64()))
        return pa.table(
            {
                "node_id": t["node_id"],
                "rank": pc.add(t["s"], base),
            }
        )

    for _ in range(iters):
        contrib = _attach_i64(
            adj, ["subj_id", "obj_id", "deg"], "subj_id",
            ranks, "node_id", "rank", "rank", n_parts,
        ).map_batches(_contrib_batch, batch_format="pyarrow")
        ranks = (
            contrib.union(zero)
            .groupby("node_id")
            .aggregate(Sum("c", alias_name="s"))
            .map_batches(finish, batch_format="pyarrow")
            .repartition(n_parts)  # union grows block count; re-bound it
        ).materialize()  # node-sized iterative state

    return (
        ranks.sort(["rank", "node_id"], descending=[True, False])
        .limit(top)
        .rename_columns({"node_id": "entity_id", "rank": "rank_fp"})
    )


def degree_stats(edges: "rd.Dataset", top: int = 20) -> "rd.Dataset":
    """Per-node in/out degree over the DISTINCT directed pair set, top
    ``top`` by (total desc, node asc). One distinct-pair groupby, then two
    tagged per-block count partials unioned into ONE final shuffle — no
    join: (node_id, out_p, in_p) partial rows sum componentwise."""
    pairs = (
        edges.groupby(["subj_id", "obj_id"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )

    def tag_counts(t: pa.Table) -> pa.Table:
        import numpy as np

        subj = t["subj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        obj = t["obj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        s_ids, s_cnt = np.unique(subj, return_counts=True)
        o_ids, o_cnt = np.unique(obj, return_counts=True)
        node = np.concatenate([s_ids, o_ids])
        out_p = np.concatenate([s_cnt, np.zeros_like(o_cnt)])
        in_p = np.concatenate([np.zeros_like(s_cnt), o_cnt])
        return pa.table(
            {
                "node_id": pa.array(node.astype("int64"), pa.int64()),
                "out_p": pa.array(out_p.astype("int64"), pa.int64()),
                "in_p": pa.array(in_p.astype("int64"), pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "entity_id": t["node_id"],
                "out_deg": t["o"],
                "in_deg": t["i"],
                "total_deg": pc.add(t["o"], t["i"]),
            }
        )

    return (
        pairs.map_batches(tag_counts, batch_format="pyarrow")
        .groupby("node_id")
        .aggregate(Sum("out_p", alias_name="o"), Sum("in_p", alias_name="i"))
        .map_batches(finish, batch_format="pyarrow")
        .sort(["total_deg", "entity_id"], descending=[True, False])
        .limit(top)
    )


def triangles(edges: "rd.Dataset") -> "pa.Table":
    """Exact distributed triangle count over the undirected distinct-pair
    graph — the degree-ordered wedge algorithm (node-iterator++ /
    Schank-Wagner; the MapReduce form is Suri & Vassilvitskii, WWW'11):

      1. canonical undirected pairs {a<b}, deduped (one groupby);
      2. per-node degree over the pair set (count partials, one groupby);
      3. orient every edge low->high in the total order (deg, id) — each
         node's ORIENTED out-degree is then O(sqrt(m)) whatever its raw
         degree (a star hub generates NO wedges: all its edges point at
         it), killing the d^2 hot-node blowup structurally;
      4. per-src wedge candidates (out-neighbor pairs, ordered by the same
         total order) tag-unioned with the oriented edges, ONE groupby on
         (x, y): a wedge closes iff the (x, y) group also holds an edge
         marker. Total wedges are O(m^1.5) — the algorithm's bound, not a
         cap; the count is exact.

    Driver sees two scalars. Returns a one-row Arrow table
    (n_edges, n_wedges, n_triangles).
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    n_parts = max(8, cluster_cpus())

    def canon(t: pa.Table) -> pa.Table:
        s = t["subj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        o = t["obj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        keep = s != o
        s, o = s[keep], o[keep]
        return pa.table(
            {
                "a": pa.array(np.minimum(s, o), pa.int64()),
                "b": pa.array(np.maximum(s, o), pa.int64()),
            }
        )

    pairs = (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
        .materialize()  # reused thrice: degree, orientation, edge markers
    )
    n_edges = pairs.count()

    def endpoint_counts(t: pa.Table) -> pa.Table:
        both = np.concatenate(
            [
                t["a"].combine_chunks().to_numpy(zero_copy_only=False),
                t["b"].combine_chunks().to_numpy(zero_copy_only=False),
            ]
        )
        ids, cnt = np.unique(both, return_counts=True)
        return pa.table(
            {
                "node": pa.array(ids, pa.int64()),
                "dp": pa.array(cnt.astype("int64"), pa.int64()),
            }
        )

    deg = (
        pairs.map_batches(endpoint_counts, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("dp", alias_name="deg"))
    )

    # Attach (da, db) via the bucketed tag-union join (Dataset.join-free;
    # see _attach_i64) — every endpoint has a degree by construction, so
    # the inner-join semantics keep every pair.
    with_da = _attach_i64(
        pairs, ["a", "b"], "a", deg, "node", "deg", "da", n_parts
    )
    with_deg = _attach_i64(
        with_da, ["a", "b", "da"], "b", deg, "node", "deg", "db", n_parts
    )

    def orient(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks().to_numpy(zero_copy_only=False)
        b = t["b"].combine_chunks().to_numpy(zero_copy_only=False)
        da = t["da"].combine_chunks().to_numpy(zero_copy_only=False)
        db = t["db"].combine_chunks().to_numpy(zero_copy_only=False)
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table(
            {
                "src": pa.array(np.where(a_first, a, b), pa.int64()),
                "dst": pa.array(np.where(a_first, b, a), pa.int64()),
                "ddst": pa.array(np.where(a_first, db, da), pa.int64()),
            }
        )

    oriented = with_deg.map_batches(orient, batch_format="pyarrow").materialize()

    def wedges(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["ddst", "dst"], kind="mergesort")
        n = df["dst"].to_numpy()
        k = len(n)
        if k < 2:
            return pd.DataFrame({"x": [], "y": [], "w": []}).astype(
                {"x": "int64", "y": "int64", "w": "int64"}
            )
        i, j = np.triu_indices(k, 1)
        return pd.DataFrame(
            {"x": n[i], "y": n[j], "w": np.ones(len(i), dtype=np.int64)}
        )

    cand = oriented.groupby("src").map_groups(wedges, batch_format="pandas")

    markers = oriented.map_batches(
        lambda t: pa.table(
            {
                "x": t["src"],
                "y": t["dst"],
                "w": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "is_edge": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        ),
        batch_format="pyarrow",
    )
    tagged = cand.map_batches(
        lambda t: t.append_column(
            "is_edge", pa.array(np.zeros(t.num_rows, dtype=np.int64))
        ),
        batch_format="pyarrow",
    ).union(markers)

    closed = tagged.groupby(["x", "y"]).aggregate(
        Sum("w", alias_name="w"), Max("is_edge", alias_name="e")
    )

    def per_block_totals(t: pa.Table) -> pa.Table:
        w = t["w"].combine_chunks().to_numpy(zero_copy_only=False)
        e = t["e"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "tri_p": pa.array([int((w * e).sum())], pa.int64()),
                "wedge_p": pa.array([int(w.sum())], pa.int64()),
            }
        )

    totals = closed.map_batches(
        per_block_totals, batch_format="pyarrow"
    ).aggregate(Sum("tri_p", alias_name="tri"), Sum("wedge_p", alias_name="wdg"))

    return pa.table(
        {
            "n_edges": pa.array([int(n_edges)], pa.int64()),
            "n_wedges": pa.array([int(totals["wdg"] or 0)], pa.int64()),
            "n_triangles": pa.array([int(totals["tri"] or 0)], pa.int64()),
        }
    )


TRUSS_K = 40
TRUSS_MAX_ROUNDS = 30


def truss(edges: "rd.Dataset", k: int = TRUSS_K,
          max_rounds: int = TRUSS_MAX_ROUNDS) -> "rd.Dataset":
    """k-truss decomposition: iteratively delete edges whose triangle
    support (# common neighbors of the endpoints) is < k-2 until fixpoint;
    return the surviving edges with their fixpoint support.

    Per round this runs the same degree-ordered wedge machinery as
    :func:`triangles` (oriented out-degrees O(sqrt m) kill hub blowup),
    except wedges carry their apex so each CLOSED wedge can be exploded
    into its three member edges; support = one (a, b) groupby-sum over
    those 3-per-triangle rows unioned with zero rows for every edge.
    Peeling needs NO anti-join: the support table IS the edge set, so
    survivors are a filter on it. Rounds are bounded by the peel depth
    (parallel truss peeling converges in O(peel-depth) rounds — single
    digits on real graphs)."""
    import numpy as np
    import pandas as pd

    n_parts = max(8, cluster_cpus())

    def canon(t: pa.Table) -> pa.Table:
        s = t["subj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        o = t["obj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        keep = s != o
        s, o = s[keep], o[keep]
        return pa.table(
            {
                "a": pa.array(np.minimum(s, o), pa.int64()),
                "b": pa.array(np.maximum(s, o), pa.int64()),
            }
        )

    pairs = (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
        .repartition(n_parts)
        .materialize()
    )

    def endpoint_counts(t: pa.Table) -> pa.Table:
        both = np.concatenate(
            [
                t["a"].combine_chunks().to_numpy(zero_copy_only=False),
                t["b"].combine_chunks().to_numpy(zero_copy_only=False),
            ]
        )
        ids, cnt = np.unique(both, return_counts=True)
        return pa.table(
            {
                "node": pa.array(ids, pa.int64()),
                "dp": pa.array(cnt.astype("int64"), pa.int64()),
            }
        )

    def orient(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks().to_numpy(zero_copy_only=False)
        b = t["b"].combine_chunks().to_numpy(zero_copy_only=False)
        da = t["da"].combine_chunks().to_numpy(zero_copy_only=False)
        db = t["db"].combine_chunks().to_numpy(zero_copy_only=False)
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table(
            {
                "src": pa.array(np.where(a_first, a, b), pa.int64()),
                "dst": pa.array(np.where(a_first, b, a), pa.int64()),
                "ddst": pa.array(np.where(a_first, db, da), pa.int64()),
            }
        )

    def wedges(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["ddst", "dst"], kind="mergesort")
        n = df["dst"].to_numpy()
        s = int(df["src"].iloc[0]) if len(df) else 0
        if len(n) < 2:
            return pd.DataFrame({"x": [], "y": [], "src": []}).astype(
                {"x": "int64", "y": "int64", "src": "int64"}
            )
        i, j = np.triu_indices(len(n), 1)
        return pd.DataFrame(
            {
                "x": n[i],
                "y": n[j],
                "src": np.full(len(i), s, dtype=np.int64),
            }
        )

    def close_triangles(df: "pd.DataFrame") -> pa.Table:
        """(x, y) group: wedge rows close iff the group holds an edge
        marker; each closed wedge explodes into its three member edges
        (canonical a<b), one support unit each."""
        if not (df["is_edge"] == 1).any():
            return pa.schema(
                [("a", pa.int64()), ("b", pa.int64()), ("sup_p", pa.int64())]
            ).empty_table()
        x = int(df["x"].iloc[0])
        y = int(df["y"].iloc[0])
        srcs = df.loc[df["is_edge"] == 0, "src"].to_numpy(np.int64)
        if not len(srcs):
            return pa.schema(
                [("a", pa.int64()), ("b", pa.int64()), ("sup_p", pa.int64())]
            ).empty_table()
        e1a, e1b = np.minimum(srcs, x), np.maximum(srcs, x)
        e2a, e2b = np.minimum(srcs, y), np.maximum(srcs, y)
        e3a = np.full(len(srcs), min(x, y), dtype=np.int64)
        e3b = np.full(len(srcs), max(x, y), dtype=np.int64)
        return pa.table(
            {
                "a": pa.array(np.concatenate([e1a, e2a, e3a]), pa.int64()),
                "b": pa.array(np.concatenate([e1b, e2b, e3b]), pa.int64()),
                "sup_p": pa.array(
                    np.ones(3 * len(srcs), dtype=np.int64), pa.int64()
                ),
            }
        )

    for _ in range(max_rounds):
        deg = (
            pairs.map_batches(endpoint_counts, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("dp", alias_name="deg"))
        )
        with_da = _attach_i64(
            pairs, ["a", "b"], "a", deg, "node", "deg", "da", n_parts
        )
        with_deg = _attach_i64(
            with_da, ["a", "b", "da"], "b", deg, "node", "deg", "db", n_parts
        )
        oriented = with_deg.map_batches(
            orient, batch_format="pyarrow"
        ).materialize()

        cand = oriented.groupby("src").map_groups(
            wedges, batch_format="pandas"
        ).map_batches(
            lambda t: (
                t.append_column(
                    "is_edge", pa.array(np.zeros(t.num_rows, dtype=np.int64))
                )
                if t.num_rows and "x" in t.column_names
                else pa.schema(
                    [("x", pa.int64()), ("y", pa.int64()),
                     ("src", pa.int64()), ("is_edge", pa.int64())]
                ).empty_table()
            ),
            batch_format="pyarrow",
        )
        markers = oriented.map_batches(
            lambda t: pa.table(
                {
                    "x": t["src"],
                    "y": t["dst"],
                    "src": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
                    "is_edge": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )
        tri_edges = (
            cand.union(markers)
            .groupby(["x", "y"])
            .map_groups(close_triangles, batch_format="pandas")
        )
        zeros = pairs.map_batches(
            lambda t: pa.table(
                {
                    "a": t["a"],
                    "b": t["b"],
                    "sup_p": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )
        sup = (
            tri_edges.union(zeros)
            .groupby(["a", "b"])
            .aggregate(Sum("sup_p", alias_name="support"))
            .repartition(n_parts)
            .materialize()
        )
        n_total = sup.count()
        if n_total == 0:
            # zero non-self edges: the fixpoint branch below would return
            # an untyped empty union — return the typed empty table, same
            # as the all-peeled branch
            return rd.from_arrow(
                pa.schema(
                    [("a", pa.int64()), ("b", pa.int64()),
                     ("support", pa.int64())]
                ).empty_table()
            )
        survivors = sup.filter(expr=f"support >= {k - 2}").materialize()
        n_surv = survivors.count()
        if n_surv == n_total:
            return sup.sort(["a", "b"])  # fixpoint: sup computed on it
        if n_surv == 0:
            return rd.from_arrow(
                pa.schema(
                    [("a", pa.int64()), ("b", pa.int64()),
                     ("support", pa.int64())]
                ).empty_table()
            )
        pairs = survivors.drop_columns(["support"]).repartition(
            n_parts
        ).materialize()
    raise RuntimeError(
        f"k-truss peel did not converge in {max_rounds} rounds (k={k})"
    )


KCORE_K = 40
KCORE_MAX_ROUNDS = 60
# Per-round removal sets up to this many ids are broadcast (8 B/id -> 32 MB
# object); beyond it the removal runs as a distributed bucketed anti-join.
KCORE_BROADCAST_CAP = 4_000_000


def kcore(edges: "rd.Dataset", k: int = KCORE_K,
          max_rounds: int = KCORE_MAX_ROUNDS,
          broadcast_cap: int = KCORE_BROADCAST_CAP):
    """Distributed k-core: iterative bulk peeling over the undirected
    distinct-pair graph. Every node below ``k`` is removed simultaneously
    per round, so rounds are bounded by the peel depth (small for real
    webgraph-shaped degree distributions), not by node count per removal.

    Per round: ONE degree groupby, then edge removal by one of two paths
    chosen from the size of this round's removal set (a scalar count):

    - removal set <= ``broadcast_cap``: the low-degree ids are pulled to
      the driver (bounded by the cap, NOT corpus-sized), sorted into one
      numpy array, ``ray.put`` once, and every edge block filters with a
      vectorized ``searchsorted`` membership test — zero extra shuffles.
      After round 1 the removal set is the per-round peel frontier, which
      is tiny in practice, so this is the common path.
    - larger: a coarse-bucket tag-union groupby anti-join per endpoint
      (the same shuffle-join shape as ``_attach_i64`` — NOT
      Dataset.join, whose hash partitions lose their schema when a side
      is empty on this Ray version, breaking iterated joins on shrinking
      inputs). Nothing node- or edge-sized ever reaches the driver on
      this path.

    Returns the (entity_id, core_deg) membership of the k-core subgraph —
    core_deg is the node's degree WITHIN the core (>= k by definition).
    Raises RuntimeError if the peel hasn't converged after ``max_rounds``
    (adversarial long-path graphs; raise the cap for those).
    """
    import numpy as np
    import pandas as pd

    def canon(t: pa.Table) -> pa.Table:
        s = t["subj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        o = t["obj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        keep = s != o
        s, o = s[keep], o[keep]
        return pa.table(
            {
                "a": pa.array(np.minimum(s, o), pa.int64()),
                "b": pa.array(np.maximum(s, o), pa.int64()),
            }
        )

    alive = (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
        .repartition(max(8, cluster_cpus()))  # bound loop-shuffle partitions
        .materialize()
    )
    n_alive = alive.count()

    def endpoint_counts(t: pa.Table) -> pa.Table:
        both = np.concatenate(
            [
                t["a"].combine_chunks().to_numpy(zero_copy_only=False),
                t["b"].combine_chunks().to_numpy(zero_copy_only=False),
            ]
        )
        ids, cnt = np.unique(both, return_counts=True)
        return pa.table(
            {
                "node": pa.array(ids, pa.int64()),
                "dp": pa.array(cnt.astype("int64"), pa.int64()),
            }
        )

    empty = pa.table(
        {"entity_id": pa.array([], pa.int64()), "core_deg": pa.array([], pa.int64())}
    )

    import ray as _ray

    n_groups = max(8, cluster_cpus())

    def _drop_low_broadcast(ds: "rd.Dataset", low_ref) -> "rd.Dataset":
        def drop(t: pa.Table) -> pa.Table:
            low = _ray.get(low_ref)  # sorted int64 ids
            a = t["a"].combine_chunks().to_numpy(zero_copy_only=False)
            b = t["b"].combine_chunks().to_numpy(zero_copy_only=False)
            ia = np.searchsorted(low, a)
            ib = np.searchsorted(low, b)
            hit_a = (ia < low.size) & (low[np.minimum(ia, low.size - 1)] == a)
            hit_b = (ib < low.size) & (low[np.minimum(ib, low.size - 1)] == b)
            keep = ~(hit_a | hit_b)
            return pa.table(
                {"a": pa.array(a[keep], pa.int64()),
                 "b": pa.array(b[keep], pa.int64())}
            )

        return ds.map_batches(drop, batch_format="pyarrow")

    def _drop_low_bucketed(
        ds: "rd.Dataset", low_ds: "rd.Dataset", key: str, other: str
    ) -> "rd.Dataset":
        """Distributed anti-join on one endpoint: route edges and low ids to
        hash buckets, resolve each bucket vectorized. Sentinel -1 in ``other``
        marks low-id rows (entity ids are >= 0 here by construction)."""

        def route_edges(t: pa.Table) -> pa.Table:
            kv = t[key].combine_chunks().to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "key": pa.array(kv, pa.int64()),
                    "other": t[other],
                    "__coarse": pa.array(kv % n_groups, pa.int64()),
                }
            )

        def route_low(t: pa.Table) -> pa.Table:
            kv = t["node"].combine_chunks().to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "key": pa.array(kv, pa.int64()),
                    "other": pa.array(
                        np.full(kv.size, -1, dtype=np.int64), pa.int64()
                    ),
                    "__coarse": pa.array(kv % n_groups, pa.int64()),
                }
            )

        def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
            is_low = df["other"].to_numpy() < 0
            lows = df.loc[is_low, "key"]
            out = df.loc[~is_low & ~df["key"].isin(lows), ["key", "other"]]
            return out.rename(columns={"key": key, "other": other})

        routed = ds.map_batches(route_edges, batch_format="pyarrow").union(
            low_ds.map_batches(route_low, batch_format="pyarrow")
        )
        return routed.groupby("__coarse").map_groups(
            resolve, batch_format="pandas"
        )

    for _ in range(max_rounds):
        if n_alive == 0:
            return empty
        deg = (
            alive.map_batches(endpoint_counts, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("dp", alias_name="deg"))
            .materialize()  # node-sized iterative state
        )
        low_ds = deg.filter(expr=f"deg < {k}")
        n_low = low_ds.count()
        if n_low == 0:
            # converged: emit the surviving membership with its core degree
            # (explicit Arrow rename — Dataset.rename_columns projects over
            # pandas-formatted aggregate blocks and fails on this Ray version)
            return deg.map_batches(
                lambda t: pa.table(
                    {"entity_id": t["node"], "core_deg": t["deg"]}
                ),
                batch_format="pyarrow",
            ).sort("entity_id")

        if n_low <= broadcast_cap:
            low = np.sort(
                np.concatenate(
                    [
                        b["node"].to_numpy()
                        for b in low_ds.iter_batches(
                            batch_format="pandas", batch_size=None
                        )
                    ]
                    or [np.array([], dtype=np.int64)]
                ).astype(np.int64)
            )
            alive = _drop_low_broadcast(alive, _ray.put(low)).materialize()
        else:
            alive = (
                _drop_low_bucketed(
                    _drop_low_bucketed(alive, low_ds, "a", "b"),
                    low_ds, "b", "a",
                )
                .repartition(n_groups)
                .materialize()
            )
        n_alive = alive.count()
    raise RuntimeError(
        f"k-core peel did not converge in {max_rounds} rounds (k={k})"
    )


def kg_kcore(sf_dir: str):
    """Driver query: {KCORE_K}-core membership of the materialized KG entity
    graph — (entity_id, core_deg) of every node surviving iterative peeling.
    Oracle: golden-file sequential peel (goldens._seq_kcore)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    return kcore(edges)


def kg_truss(sf_dir: str):
    """Driver query: {TRUSS_K}-truss of the materialized KG entity graph —
    surviving (a, b) edges with their fixpoint triangle support after
    iterative below-threshold edge peeling. The cohesion notion one step
    above kg_kcore: membership needs k-2 TRIANGLES per edge, not just
    degree. Oracle: golden-file sequential peel (goldens._seq_truss)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    return truss(edges)


def kg_triangles(sf_dir: str):
    """Driver query: exact triangle census of the materialized KG entity
    graph (one row: n_edges / n_wedges / n_triangles). Oracle: DuckDB 3-way
    self-join over the sequential golden edges parquet."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    return triangles(edges)


def kg_degree_stats(sf_dir: str):
    """Driver query: degree leaderboard over the pipeline's linked edges."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    return degree_stats(edges)


def kg_pagerank(sf_dir: str):
    """Driver query: PageRank top-50 over the pipeline's materialized KG."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    nodes = _kg_nodes_ds(out)
    return pagerank(edges, nodes)


def kg_components(sf_dir: str):
    """Driver query: weakly-connected components of the materialized KG
    entity graph via the fully driverless min-label propagation
    (stages/canonicalize.label_propagation_components_driverless — edge set
    AND per-round labels stay distributed). Node keys are 19-digit
    zero-padded ids so lexicographic min == numeric min; isolated entities
    enter as self-loops and form singleton components. Output:
    (entity_id, component) with component = smallest reachable entity_id —
    identical to a sequential union-find (golden-file oracle)."""
    from ..stages.canonicalize import label_propagation_components_driverless
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)

    def pad(col: pa.ChunkedArray) -> pa.ChunkedArray:
        import pyarrow.compute as pc

        return pc.utf8_lpad(pc.cast(col, pa.string()), 19, "0")

    edges = _kg_edges_ds(out)
    nodes = _kg_nodes_ds(out)
    pairs = edges.map_batches(
        lambda t: pa.table(
            {"a": pad(t["subj_id"]), "b": pad(t["obj_id"])}
        ),
        batch_format="pyarrow",
    ).union(
        # self-loops make isolated nodes singleton components
        nodes.map_batches(
            lambda t: pa.table(
                {"a": pad(t["entity_id"]), "b": pad(t["entity_id"])}
            ),
            batch_format="pyarrow",
        )
    )
    labels = label_propagation_components_driverless(pairs)
    return labels.map_batches(
        lambda t: pa.table(
            {
                "entity_id": pa.compute.cast(t["node"], pa.int64()),
                "component": pa.compute.cast(t["label"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).sort("entity_id")


# ---------------------------------------------------------------------------
# multi-source BFS hop distance
# ---------------------------------------------------------------------------

BFS_SEED_MOD = 25
BFS_MAX_ROUNDS = 32


def bfs_hops(
    edges: "rd.Dataset",
    nodes: "rd.Dataset",
    seed_mod: int = BFS_SEED_MOD,
    max_rounds: int = BFS_MAX_ROUNDS,
) -> "rd.Dataset":
    """Multi-source BFS over the undirected entity graph: hop distance from
    the nearest seed (entity_id % seed_mod == 0). Output: (entity_id, dist)
    for every REACHABLE node (seeds included at dist 0), sorted by
    entity_id; unreachable nodes are omitted.

    BSP shape — the standard frontier-expansion loop with nothing
    edge- or node-sized on the driver:
      round r: frontier = labels where dist == r (node-sized Dataset)
               candidates = sym-adjacency ⋈ frontier  -> (neighbor, r+1)
               labels     = min-merge(labels ∪ candidates)  [groupby Min]
    The join is the coarse-bucket tag-union attach (Dataset.join loses
    block schema on empty partitions on this Ray version); the adjacency is
    deduped to distinct undirected pairs ONCE and reused every round, so a
    round moves O(E) small int rows + the node-sized label state. The
    driver sees one integer per round (frontier count, for termination —
    bounded by graph diameter, capped at ``max_rounds``)."""
    import pyarrow.compute as pc

    n_groups = max(8, cluster_cpus())

    # distinct undirected pairs, both orientations, self-loops dropped
    pairs = _distinct_undirected_pairs(edges)

    sym = _symmetrize_pairs(pairs).repartition(n_groups).materialize()

    def seed_rows(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t["entity_id"].combine_chunks().to_numpy(zero_copy_only=False)
        seeds = ids[ids % seed_mod == 0].astype(np.int64)
        return pa.table(
            {
                "node": pa.array(seeds, pa.int64()),
                "dist": pa.array(np.zeros(len(seeds), np.int64), pa.int64()),
            }
        )

    labels = nodes.map_batches(seed_rows, batch_format="pyarrow").materialize()

    for r in range(max_rounds):
        frontier = labels.filter(expr=f"dist == {r}")
        if frontier.count() == 0:
            return labels.map_batches(
                lambda t: pa.table(
                    {
                        "entity_id": pc.cast(t["node"], pa.int64()),
                        "dist": pc.cast(t["dist"], pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            ).sort("entity_id")
        cand = _attach_i64(
            sym,
            ["src", "dst"],
            "src",
            frontier,
            "node",
            "dist",
            "_fd",
            n_groups,
        ).map_batches(
            lambda t, rr=r: pa.table(
                {
                    "node": pa.compute.cast(t["dst"], pa.int64()),
                    "dist": pa.array([rr + 1] * t.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        labels = (
            labels.union(cand)
            .groupby("node")
            .aggregate(Min("dist", alias_name="dist"))
            .repartition(n_groups)  # union grows block count; re-bound it
            .materialize()
        )
    raise RuntimeError(f"BFS did not drain its frontier in {max_rounds} rounds")


def kg_bfs(sf_dir: str):
    """Driver query: BFS hop distance from the seed set (entity_id %
    {BFS_SEED_MOD} == 0) over the materialized KG entity graph. Oracle:
    golden-file sequential BFS (goldens._seq_bfs)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    nodes = _kg_nodes_ds(out)
    return bfs_hops(edges, nodes)


# ---------------------------------------------------------------------------
# common-neighbor / Jaccard node similarity (link-prediction features)
# ---------------------------------------------------------------------------

JC_MAX_DEG = 30
JC_MIN_COMMON = 2
JC_TOP = 100


def jaccard_pairs(
    edges: "rd.Dataset",
    max_deg: int = JC_MAX_DEG,
    min_common: int = JC_MIN_COMMON,
    top: int = JC_TOP,
) -> "rd.Dataset":
    """Top node pairs by neighborhood Jaccard similarity — the classic
    link-prediction feature. common(u, v) counts wedges u-w-v whose CENTER
    w has degree <= ``max_deg`` (the standard hub guard: a Zipf head node
    would emit deg^2 wedges; mirrorable exactly in SQL, unlike sampling);
    degrees in the denominator come from the FULL graph.
    jaccard_ppm = common * 1e6 // (deg_u + deg_v - common).

    Shape: distinct undirected pairs -> symmetric adjacency -> wedge
    generation inside a coarse-bucket map_groups (per-center work bounded
    by max_deg^2) -> pair-count groupby -> two tag-union degree attaches ->
    integer score, sort, top. Nothing node- or edge-sized on the driver.
    Output: (node_a, node_b, common, jaccard_ppm) by (jaccard_ppm desc,
    node_a, node_b), limit ``top``."""
    import numpy as np
    import pyarrow.compute as pc

    n_groups = max(8, cluster_cpus())

    pairs = _distinct_undirected_pairs(edges)

    sym = _symmetrize_pairs(pairs).materialize()
    deg = sym.groupby("src").aggregate(Count(alias_name="deg")).map_batches(
        lambda t: pa.table(
            {
                "node": pc.cast(t["src"], pa.int64()),
                "deg": pc.cast(t["deg"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def bucket(t: pa.Table) -> pa.Table:
        src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
        return t.append_column("_bk", pa.array(src % n_groups, pa.int64()))

    def wedge_rows(df) -> pa.Table:
        us, vs = [], []
        for _, g in df.groupby("src"):
            d = g["dst"].to_numpy()
            if len(d) < 2 or len(d) > max_deg:
                continue
            d = np.sort(d)
            iu, iv = np.triu_indices(len(d), k=1)
            us.append(d[iu])
            vs.append(d[iv])
        if not us:
            return pa.table(
                {
                    "u": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "u": pa.array(np.concatenate(us), pa.int64()),
                "v": pa.array(np.concatenate(vs), pa.int64()),
            }
        )

    com = (
        sym.map_batches(bucket, batch_format="pyarrow")
        .groupby("_bk")
        .map_groups(wedge_rows, batch_format="pandas")
        .groupby(["u", "v"])
        .aggregate(Count(alias_name="common"))
        .filter(expr=f"common >= {min_common}")
        .map_batches(
            lambda t: pa.table(
                {
                    "u": pc.cast(t["u"], pa.int64()),
                    "v": pc.cast(t["v"], pa.int64()),
                    "common": pc.cast(t["common"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )

    withu = _attach_i64(com, ["u", "v", "common"], "u", deg, "node", "deg",
                        "deg_u", n_groups)
    withv = _attach_i64(withu, ["u", "v", "common", "deg_u"], "v", deg,
                        "node", "deg", "deg_v", n_groups)

    def score(t: pa.Table) -> pa.Table:
        common = t["common"].combine_chunks().to_numpy(zero_copy_only=False)
        du = t["deg_u"].combine_chunks().to_numpy(zero_copy_only=False)
        dv = t["deg_v"].combine_chunks().to_numpy(zero_copy_only=False)
        j = common * np.int64(1_000_000) // (du + dv - common)
        return pa.table(
            {
                "node_a": t["u"],
                "node_b": t["v"],
                "common": t["common"],
                "jaccard_ppm": pa.array(j, pa.int64()),
            }
        )

    return (
        withv.map_batches(score, batch_format="pyarrow")
        .sort(["jaccard_ppm", "node_a", "node_b"],
              descending=[True, False, False])
        .limit(top)
    )


def kg_jaccard(sf_dir: str):
    """Driver query: top entity pairs by neighborhood Jaccard over the
    materialized KG. Oracle: DuckDB wedge self-join over the sequential
    golden edges parquet (goldens.kg_oracle_sql)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    return jaccard_pairs(edges)


# ---------------------------------------------------------------------------
# deterministic random walks (graph-embedding training corpus)
# ---------------------------------------------------------------------------

WALK_LEN = 4


def random_walks(
    edges: "rd.Dataset", nodes: "rd.Dataset", walk_len: int = WALK_LEN
) -> "rd.Dataset":
    """DeepWalk-style walk corpus: one walk per node, ``walk_len`` steps,
    next hop chosen DETERMINISTICALLY as the neighbor minimizing
    md5(f"{start}:{step}:{neighbor}") — a keyed-hash stand-in for the RNG
    (bit-reproducible under any partitioning, like the q56/q38 samplers).
    Dead ends (isolated nodes) simply stop emitting. Output:
    (start_id, step, node_id) rows sorted by (start_id, step); step 0 is
    the start node itself.

    Shape: per step, ONE coarse-bucket tag-union groupby joins the walk
    frontier (node-sized: each walk occupies exactly one current node)
    against the symmetric adjacency; because a walk has a single current
    node, ALL its next-hop candidates land in that node's bucket, so the
    per-start argmin completes inside the bucket — no second shuffle.
    Per-step cost is O(E + V) rows; driver holds nothing."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    n_groups = max(8, cluster_cpus())

    pairs = _distinct_undirected_pairs(edges)

    sym = _symmetrize_pairs(pairs)

    def route_sym(t: pa.Table) -> pa.Table:
        src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "start": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                "cur": pa.array(src.astype(np.int64), pa.int64()),
                "dst": pc.cast(t["dst"], pa.int64()),
                "_tag": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                "_bk": pa.array(src % n_groups, pa.int64()),
            }
        )

    sym_routed = (
        sym.map_batches(route_sym, batch_format="pyarrow")
        .repartition(n_groups)  # bound loop-shuffle partitions
        .materialize()
    )

    def init_walks(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["entity_id"], pa.int64())
        return pa.table({"start": ids, "cur": ids})

    walks = nodes.map_batches(init_walks, batch_format="pyarrow").materialize()
    emitted = [
        walks.map_batches(
            lambda t: pa.table(
                {
                    "start_id": t["start"],
                    "step": pa.array([0] * t.num_rows, pa.int64()),
                    "node_id": t["cur"],
                }
            ),
            batch_format="pyarrow",
        )
    ]

    for r in range(walk_len):

        def route_walks(t: pa.Table) -> pa.Table:
            import numpy as np

            cur = t["cur"].combine_chunks().to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "start": pc.cast(t["start"], pa.int64()),
                    "cur": pa.array(cur.astype(np.int64), pa.int64()),
                    "dst": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                    "_tag": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                    "_bk": pa.array(cur % n_groups, pa.int64()),
                }
            )

        def step_resolve(df: "pd.DataFrame", rr=r) -> pa.Table:
            w = df[df["_tag"] == 0][["start", "cur"]]
            s = df[df["_tag"] == 1][["cur", "dst"]]
            cand = w.merge(s, on="cur")  # (start, cur, dst) candidates
            if not len(cand):
                return pa.table(
                    {
                        "start": pa.array([], pa.int64()),
                        "cur": pa.array([], pa.int64()),
                    }
                )
            keys = [
                hashlib.md5(f"{st}:{rr}:{d}".encode()).hexdigest()
                for st, d in zip(cand["start"], cand["dst"])
            ]
            cand = cand.assign(_h=keys)
            cand = cand.sort_values(["start", "_h", "dst"], kind="mergesort")
            best = cand.groupby("start", sort=True).head(1)
            return pa.table(
                {
                    "start": pa.array(best["start"].to_numpy(np.int64)),
                    "cur": pa.array(best["dst"].to_numpy(np.int64)),
                }
            )

        walks = (
            walks.map_batches(route_walks, batch_format="pyarrow")
            .union(sym_routed)
            .groupby("_bk")
            .map_groups(step_resolve, batch_format="pandas")
            .materialize()
        )
        emitted.append(
            walks.map_batches(
                lambda t, rr=r: pa.table(
                    {
                        "start_id": t["start"],
                        "step": pa.array([rr + 1] * t.num_rows, pa.int64()),
                        "node_id": t["cur"],
                    }
                ),
                batch_format="pyarrow",
            )
        )

    out = emitted[0]
    for e in emitted[1:]:
        out = out.union(e)
    return out.sort(["start_id", "step"])


def kg_walks(sf_dir: str):
    """Driver query: deterministic random-walk corpus over the materialized
    KG (graph-embedding training data). Oracle: golden-file sequential walk
    recompute (goldens._seq_walks)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    nodes = _kg_nodes_ds(out)
    return random_walks(edges, nodes)


# ---------------------------------------------------------------------------
# negative sampling (contrastive training pairs for graph embeddings)
# ---------------------------------------------------------------------------

NEG_K = 3
# integer mixing constants for the deterministic negative pick (documented,
# SQL-mirrorable; cryptographic quality is not needed for negative sampling)
NEG_MIX_A, NEG_MIX_B, NEG_MIX_J = 1_000_003, 7_919, 104_729


def negative_samples(
    edges: "rd.Dataset", n_nodes: int, neg_k: int = NEG_K
) -> "rd.Dataset":
    """Contrastive training pairs: for every distinct undirected linked
    pair (a < b) emit the positive (a, b, label=1, k=-1) and ``neg_k``
    negatives (a, (a*A + b*B + j*J) % n_nodes, label=0, k=j) — the standard
    uniform negative-sampling scheme with a deterministic integer mix in
    place of the RNG (collisions with true edges are accepted, as usual).
    Entity ids are dense 0..n_nodes-1, so the mix indexes a valid node
    directly. Output sorted by (src, dst, label, k).

    Shape: one distinct-pair groupby, then a purely vectorized per-block
    expansion (no further shuffle; 1 + neg_k output rows per pair)."""
    import numpy as np
    import pyarrow.compute as pc

    pairs = _distinct_undirected_pairs(edges)

    def expand(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks().to_numpy(zero_copy_only=False)
        b = t["b"].combine_chunks().to_numpy(zero_copy_only=False)
        n = len(a)
        src = [a]
        dst = [b]
        lab = [np.ones(n, np.int64)]
        ks = [np.full(n, -1, np.int64)]
        for j in range(neg_k):
            neg = (a * NEG_MIX_A + b * NEG_MIX_B + j * NEG_MIX_J) % n_nodes
            src.append(a)
            dst.append(neg)
            lab.append(np.zeros(n, np.int64))
            ks.append(np.full(n, j, np.int64))
        return pa.table(
            {
                "src": pa.array(np.concatenate(src), pa.int64()),
                "dst": pa.array(np.concatenate(dst), pa.int64()),
                "label": pa.array(np.concatenate(lab), pa.int64()),
                "k": pa.array(np.concatenate(ks), pa.int64()),
            }
        )

    return pairs.map_batches(expand, batch_format="pyarrow").sort(
        ["src", "dst", "label", "k"]
    )


def kg_negatives(sf_dir: str):
    """Driver query: contrastive positive/negative training pairs over the
    materialized KG. Oracle: DuckDB mirror over the sequential golden edges
    + node count (goldens.kg_oracle_sql)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    n_nodes = _kg_nodes_ds(out).count()
    return negative_samples(edges, n_nodes)


# ---------------------------------------------------------------------------
# harmonic centrality from a deterministic seed sample (Boldi & Vigna 2014,
# "Axioms for centrality": harmonic is the principled closeness variant on
# disconnected graphs) — per-SEED BFS, the multi-landmark generalization of
# bfs_hops' nearest-seed distance
# ---------------------------------------------------------------------------

HC_SEED_MOD = 16  # seeds = entity_id % 16 == 0 (deterministic sample)
HC_MAX_D = 4  # distance cutoff: 1/d contributions below 1/4 truncated
HC_PPM = 10**6


def harmonic_centrality(
    edges: "rd.Dataset",
    nodes: "rd.Dataset",
    seed_mod: int = HC_SEED_MOD,
    max_d: int = HC_MAX_D,
) -> "rd.Dataset":
    """Sampled harmonic centrality: for every node, sum floor(1e6 / d(s,n))
    over the seed sample (entity_id % seed_mod == 0) that reaches it within
    ``max_d`` hops (d >= 1; a seed contributes nothing to itself). The
    estimator is the standard landmark/pivot sampling scheme for closeness
    centrality at scale; every arithmetic step is integer, so the result is
    bit-reproducible at any parallelism.

    BSP shape (the bfs_hops loop with a seed dimension): visited state is
    (seed, node, dist) rows — O(S * V) worst case, distributed; per round
    the frontier bucket-merges against the symmetric adjacency (an m:n
    pandas merge inside coarse src buckets — the random_walks resolver
    pattern, since _attach_i64 is strictly 1:1), new minima come from ONE
    (seed, node) Min groupby, and the newly-reached rows (min == r+1) form
    the next frontier. Driver sees one frontier count per round; the final
    reduce is a (node) groupby over visited rows."""
    import numpy as np
    import pandas as pd  # noqa: F401
    import pyarrow.compute as pc

    n_groups = max(8, cluster_cpus())

    pairs = _distinct_undirected_pairs(edges)

    def route_sym(t: pa.Table) -> pa.Table:
        src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "seed": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                "node": pc.cast(t["src"], pa.int64()),
                "dst": pc.cast(t["dst"], pa.int64()),
                "_tag": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                "_bk": pa.array(src.astype(np.int64) % n_groups, pa.int64()),
            }
        )

    sym_routed = (
        _symmetrize_pairs(pairs)
        .map_batches(route_sym, batch_format="pyarrow")
        .repartition(n_groups)
        .materialize()
    )

    def seed_rows(t: pa.Table) -> pa.Table:
        ids = t["entity_id"].combine_chunks().to_numpy(zero_copy_only=False)
        seeds = ids[ids % seed_mod == 0].astype(np.int64)
        return pa.table(
            {
                "seed": pa.array(seeds, pa.int64()),
                "node": pa.array(seeds, pa.int64()),
                "dist": pa.array(np.zeros(len(seeds), np.int64), pa.int64()),
            }
        )

    visited = nodes.map_batches(seed_rows, batch_format="pyarrow").materialize()
    frontier = visited

    for r in range(max_d):
        if frontier.count() == 0:
            break

        def route_frontier(t: pa.Table) -> pa.Table:
            nd = t["node"].combine_chunks().to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "seed": pc.cast(t["seed"], pa.int64()),
                    "node": pc.cast(t["node"], pa.int64()),
                    "dst": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                    "_tag": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                    "_bk": pa.array(
                        nd.astype(np.int64) % n_groups, pa.int64()
                    ),
                }
            )

        def expand(df, rr=r) -> pa.Table:
            f = df[df["_tag"] == 0][["seed", "node"]]
            s = df[df["_tag"] == 1][["node", "dst"]]
            cand = f.merge(s, on="node")  # (seed, node, dst) candidates
            if not len(cand):
                return pa.table(
                    {
                        "seed": pa.array([], pa.int64()),
                        "node": pa.array([], pa.int64()),
                        "dist": pa.array([], pa.int64()),
                    }
                )
            return pa.table(
                {
                    "seed": pa.array(cand["seed"].to_numpy(np.int64)),
                    "node": pa.array(cand["dst"].to_numpy(np.int64)),
                    "dist": pa.array(
                        np.full(len(cand), rr + 1, np.int64), pa.int64()
                    ),
                }
            )

        cand = (
            frontier.map_batches(route_frontier, batch_format="pyarrow")
            .union(sym_routed)
            .groupby("_bk")
            .map_groups(expand, batch_format="pandas")
        )
        visited = (
            visited.union(cand)
            .groupby(["seed", "node"])
            .aggregate(Min("dist", alias_name="dist"))
            .repartition(n_groups)
            .materialize()
        )
        frontier = visited.filter(expr=f"dist == {r + 1}")

    def contrib(t: pa.Table) -> pa.Table:
        d = t["dist"].combine_chunks().to_numpy(zero_copy_only=False)
        keep = d > 0  # self-distance excluded
        return pa.table(
            {
                "entity_id": pc.cast(t["node"], pa.int64()).filter(
                    pa.array(keep)
                ),
                "h": pa.array(HC_PPM // d[keep].astype(np.int64), pa.int64()),
                "one": pa.array(np.ones(int(keep.sum()), np.int64)),
            }
        )

    return (
        visited.map_batches(contrib, batch_format="pyarrow")
        .groupby("entity_id")
        .aggregate(
            Sum("h", alias_name="harmonic_ppm"),
            Sum("one", alias_name="n_seeds"),
        )
        .sort("entity_id")
    )


def kg_harmonic(sf_dir: str):
    """Driver query: sampled harmonic centrality over the materialized KG.
    Oracle: golden-file sequential per-seed BFS (goldens._seq_harmonic)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    nodes = _kg_nodes_ds(out)
    return harmonic_centrality(edges, nodes)


# ---------------------------------------------------------------------------
# sampled betweenness centrality — Brandes 2001 ("A faster algorithm for
# betweenness centrality") dependency accumulation, run from the same
# deterministic landmark sample as harmonic (pivot sampling: Bader et al.
# 2007 / Brandes & Pich 2007) and truncated at BC_MAX_D hops
# (k-betweenness: Brandes 2008 "On variants of shortest-path betweenness").
#
# Exactness rule: the pair dependency is accumulated in integer fixed point
# with a floor PER SUCCESSOR EDGE —
#   delta(s,v) = Σ_{w: dist=d+1 neighbor} σ_sv * (SCALE + delta(s,w)) // σ_sw
# — a sum of exact integers, so it is order-free and the distributed result
# is bit-identical to the sequential golden at any parallelism.
#
# BSP shape: forward = harmonic's per-seed BFS loop, with the frontier also
# carrying σ (path counts) merged by a (seed, node) groupby per round;
# backward = one level per round from the deepest, an m:n bucket merge
# against the adjacency (random_walks resolver pattern) to generate
# per-edge terms, then a (seed, node) groupby to sum them. Driver state is
# one count per round. σ stays in int64: within 4 hops σ <= max_deg^4 —
# fine to ~50k-degree hubs; raise to object dtype before lifting BC_MAX_D.
# ---------------------------------------------------------------------------

BC_SEED_MOD = 16
BC_MAX_D = 4
BC_SCALE = 10**6


def betweenness_centrality(
    edges: "rd.Dataset",
    nodes: "rd.Dataset",
    seed_mod: int = BC_SEED_MOD,
    max_d: int = BC_MAX_D,
) -> pa.Table:
    """(entity_id, bc_fp, n_seeds) — truncated-Brandes dependency sums over
    the seed sample (entity_id % seed_mod == 0), self-contributions
    excluded; bc_fp is in BC_SCALE fixed point."""
    import numpy as np
    import pandas as pd  # noqa: F401
    import pyarrow.compute as pc

    n_groups = max(8, cluster_cpus())
    pairs = _distinct_undirected_pairs(edges)

    def route_sym(t: pa.Table) -> pa.Table:
        src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
        z = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        return pa.table(
            {
                "seed": z,
                "node": pc.cast(t["src"], pa.int64()),
                "dst": pc.cast(t["dst"], pa.int64()),
                "sigma": z,
                "delta": z,
                "_tag": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                "_bk": pa.array(src.astype(np.int64) % n_groups, pa.int64()),
            }
        )

    sym_routed = (
        _symmetrize_pairs(pairs)
        .map_batches(route_sym, batch_format="pyarrow")
        .repartition(n_groups)
        .materialize()
    )

    # ---------------- forward: BFS with path counts ----------------
    def seed_rows(t: pa.Table) -> pa.Table:
        ids = t["entity_id"].combine_chunks().to_numpy(zero_copy_only=False)
        seeds = ids[ids % seed_mod == 0].astype(np.int64)
        return pa.table(
            {
                "seed": pa.array(seeds, pa.int64()),
                "node": pa.array(seeds, pa.int64()),
                "dist": pa.array(np.zeros(len(seeds), np.int64), pa.int64()),
                "sigma": pa.array(np.ones(len(seeds), np.int64), pa.int64()),
            }
        )

    visited = nodes.map_batches(seed_rows, batch_format="pyarrow").materialize()
    frontier = visited

    for r in range(max_d):
        if frontier.count() == 0:
            break

        def route_frontier(t: pa.Table) -> pa.Table:
            nd = t["node"].combine_chunks().to_numpy(zero_copy_only=False)
            z = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
            return pa.table(
                {
                    "seed": pc.cast(t["seed"], pa.int64()),
                    "node": pc.cast(t["node"], pa.int64()),
                    "dst": z,
                    "sigma": pc.cast(t["sigma"], pa.int64()),
                    "delta": z,
                    "_tag": z,
                    "_bk": pa.array(nd.astype(np.int64) % n_groups, pa.int64()),
                }
            )

        def expand(df) -> pa.Table:
            f = df[df["_tag"] == 0][["seed", "node", "sigma"]]
            s = df[df["_tag"] == 1][["node", "dst"]]
            cand = f.merge(s, on="node")
            if not len(cand):
                return pa.table(
                    {
                        "seed": pa.array([], pa.int64()),
                        "node": pa.array([], pa.int64()),
                        "sigma": pa.array([], pa.int64()),
                    }
                )
            g = cand.groupby(["seed", "dst"], sort=True)["sigma"].sum()
            idx = g.index.to_frame(index=False)
            return pa.table(
                {
                    "seed": pa.array(idx["seed"].to_numpy(np.int64)),
                    "node": pa.array(idx["dst"].to_numpy(np.int64)),
                    "sigma": pa.array(g.to_numpy(np.int64), pa.int64()),
                }
            )

        cand = (
            frontier.map_batches(route_frontier, batch_format="pyarrow")
            .union(sym_routed)
            .groupby("_bk")
            .map_groups(expand, batch_format="pandas")
        )

        def tag_visited(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "seed": pc.cast(t["seed"], pa.int64()),
                    "node": pc.cast(t["node"], pa.int64()),
                    "dist": pc.cast(t["dist"], pa.int64()),
                    "sigma": pc.cast(t["sigma"], pa.int64()),
                    "kind": pa.array(
                        np.zeros(t.num_rows, np.int64), pa.int64()
                    ),
                }
            )

        def tag_cand(t: pa.Table, rr=r) -> pa.Table:
            return pa.table(
                {
                    "seed": pc.cast(t["seed"], pa.int64()),
                    "node": pc.cast(t["node"], pa.int64()),
                    "dist": pa.array(
                        np.full(t.num_rows, rr + 1, np.int64), pa.int64()
                    ),
                    "sigma": pc.cast(t["sigma"], pa.int64()),
                    "kind": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                }
            )

        def settle(df) -> pa.Table:
            old = df[df["kind"] == 0]
            if len(old):
                row = old.iloc[0]
                d, sg = int(row["dist"]), int(row["sigma"])
            else:
                d = int(df["dist"].iloc[0])
                sg = int(df["sigma"].sum())
            return pa.table(
                {
                    "seed": pa.array([int(df["seed"].iloc[0])], pa.int64()),
                    "node": pa.array([int(df["node"].iloc[0])], pa.int64()),
                    "dist": pa.array([d], pa.int64()),
                    "sigma": pa.array([sg], pa.int64()),
                }
            )

        visited = (
            visited.map_batches(tag_visited, batch_format="pyarrow")
            .union(cand.map_batches(tag_cand, batch_format="pyarrow"))
            .groupby(["seed", "node"])
            .map_groups(settle, batch_format="pandas")
            .repartition(n_groups)
            .materialize()
        )
        frontier = visited.filter(expr=f"dist == {r + 1}")

    # ---------------- backward: dependency accumulation ----------------
    levels: dict[int, "rd.Dataset"] = {}
    max_reached = 0
    for d in range(max_d + 1):
        lv = visited.filter(expr=f"dist == {d}").materialize()
        if lv.count() == 0:
            break
        levels[d] = lv
        max_reached = d

    def zero_delta(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "seed": pc.cast(t["seed"], pa.int64()),
                "node": pc.cast(t["node"], pa.int64()),
                "sigma": pc.cast(t["sigma"], pa.int64()),
                "delta": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
            }
        )

    delta_by_level: dict[int, "rd.Dataset"] = {
        max_reached: levels[max_reached]
        .map_batches(zero_delta, batch_format="pyarrow")
        .materialize()
    }

    for d in range(max_reached - 1, 0, -1):
        upper = delta_by_level[d + 1]

        def route_upper(t: pa.Table) -> pa.Table:
            nd = t["node"].combine_chunks().to_numpy(zero_copy_only=False)
            z = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
            return pa.table(
                {
                    "seed": pc.cast(t["seed"], pa.int64()),
                    "node": pc.cast(t["node"], pa.int64()),
                    "dst": z,
                    "sigma": pc.cast(t["sigma"], pa.int64()),
                    "delta": pc.cast(t["delta"], pa.int64()),
                    "_tag": z,
                    "_bk": pa.array(nd.astype(np.int64) % n_groups, pa.int64()),
                }
            )

        def back_edges(df) -> pa.Table:
            """upper rows x adjacency -> (seed, v, sigma_w, delta_w)."""
            f = df[df["_tag"] == 0][["seed", "node", "sigma", "delta"]]
            s = df[df["_tag"] == 1][["node", "dst"]]
            cand = f.merge(s, on="node")
            if not len(cand):
                return pa.table(
                    {
                        "seed": pa.array([], pa.int64()),
                        "node": pa.array([], pa.int64()),
                        "sigma_w": pa.array([], pa.int64()),
                        "delta_w": pa.array([], pa.int64()),
                    }
                )
            return pa.table(
                {
                    "seed": pa.array(cand["seed"].to_numpy(np.int64)),
                    "node": pa.array(cand["dst"].to_numpy(np.int64)),
                    "sigma_w": pa.array(cand["sigma"].to_numpy(np.int64)),
                    "delta_w": pa.array(cand["delta"].to_numpy(np.int64)),
                }
            )

        cand = (
            upper.map_batches(route_upper, batch_format="pyarrow")
            .union(sym_routed)
            .groupby("_bk")
            .map_groups(back_edges, batch_format="pandas")
        )

        # resolve sigma_v for (seed, v) rows at level d, emit per-edge terms
        def tag_level(t: pa.Table) -> pa.Table:
            z = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
            return pa.table(
                {
                    "seed": pc.cast(t["seed"], pa.int64()),
                    "node": pc.cast(t["node"], pa.int64()),
                    "sigma_w": pc.cast(t["sigma"], pa.int64()),
                    "delta_w": z,
                    "kind": z,
                }
            )

        def tag_cand2(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "seed": pc.cast(t["seed"], pa.int64()),
                    "node": pc.cast(t["node"], pa.int64()),
                    "sigma_w": pc.cast(t["sigma_w"], pa.int64()),
                    "delta_w": pc.cast(t["delta_w"], pa.int64()),
                    "kind": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                }
            )

        def settle_delta(df) -> pa.Table:
            own = df[df["kind"] == 0]
            if not len(own):
                # candidate edges into a node NOT at level d (same-level or
                # predecessor edges) — not successor edges, drop
                return pa.table(
                    {
                        "seed": pa.array([], pa.int64()),
                        "node": pa.array([], pa.int64()),
                        "sigma": pa.array([], pa.int64()),
                        "delta": pa.array([], pa.int64()),
                    }
                )
            sigma_v = int(own["sigma_w"].iloc[0])
            ed = df[df["kind"] == 1]
            total = sum(
                sigma_v * (BC_SCALE + int(dw)) // int(sw)
                for sw, dw in zip(ed["sigma_w"], ed["delta_w"])
            )
            return pa.table(
                {
                    "seed": pa.array([int(df["seed"].iloc[0])], pa.int64()),
                    "node": pa.array([int(df["node"].iloc[0])], pa.int64()),
                    "sigma": pa.array([sigma_v], pa.int64()),
                    "delta": pa.array([total], pa.int64()),
                }
            )

        delta_by_level[d] = (
            levels[d].map_batches(tag_level, batch_format="pyarrow")
            .union(cand.map_batches(tag_cand2, batch_format="pyarrow"))
            .groupby(["seed", "node"])
            .map_groups(settle_delta, batch_format="pandas")
            .repartition(n_groups)
            .materialize()
        )

    if max_reached == 0:
        return pa.table(
            {
                "entity_id": pa.array([], pa.int64()),
                "bc_fp": pa.array([], pa.int64()),
                "n_seeds": pa.array([], pa.int64()),
            }
        )

    all_delta = delta_by_level[max_reached]
    for d in range(max_reached - 1, 0, -1):
        all_delta = all_delta.union(delta_by_level[d])

    def one_col(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "entity_id": pc.cast(t["node"], pa.int64()),
                "delta": pc.cast(t["delta"], pa.int64()),
                "one": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        )

    res = (
        all_delta.map_batches(one_col, batch_format="pyarrow")
        .groupby("entity_id")
        .aggregate(
            Sum("delta", alias_name="bc_fp"),
            Sum("one", alias_name="n_seeds"),
        )
        .sort("entity_id")
    )
    return pa.concat_tables(
        [b for b in res.iter_batches(batch_format="pyarrow", batch_size=None)]
    )


def kg_betweenness(sf_dir: str):
    """Driver query: sampled truncated-Brandes betweenness over the
    materialized KG. Oracle: golden-file sequential recompute
    (goldens._seq_betweenness, identical per-edge floor formula)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    return betweenness_centrality(_kg_edges_ds(out), _kg_nodes_ds(out))


# ---------------------------------------------------------------------------
# walk-window co-occurrence lift — the skip-gram statistics of DeepWalk
# (Perozzi et al. 2014) / node2vec (Grover & Leskovec 2016): the (center,
# context) count matrix their embedding training factorizes, reported as an
# integer lift (a strictly monotone transform of PMI, so rankings agree)
# ---------------------------------------------------------------------------

LIFT_WINDOW = 2  # skip-gram context window over the walk sequence
LIFT_PPM = 10**6


def walk_cooc_lift(
    walks: "rd.Dataset", window: int = LIFT_WINDOW
) -> "rd.Dataset":
    """Co-occurrence statistics over a walk corpus: every unordered node
    pair appearing within ``window`` steps of each other inside one walk is
    a co-occurrence event; emit per-pair counts plus
    ``lift_ppm = floor(1e6 * c_ab * T / (c_a * c_b))`` where ``c_x`` is the
    node's total occurrence count in the corpus and ``T`` the total event
    count. lift is exp(PMI): the same ranking, computed in exact integer
    arithmetic (Python ints on the aggregated pair table — no float log, no
    int64 overflow; cf. the wg_outlink_concentration exactness fix).

    Shape: walks route to coarse buckets on start_id (a walk's rows all
    share its start, so each walk resolves inside one bucket); pair
    generation is a vectorized shifted-array pass per offset d<=window —
    steps within a walk are contiguous, so rows d apart in (start, step)
    order are exactly d steps apart. One (a, b) groupby aggregates counts.
    Driver state: the node-occurrence dict (node-vocabulary-bounded — the
    same bound as every nodes-table broadcast) and the scalar T."""
    import numpy as np
    import pandas as pd  # noqa: F401 — map_groups pandas format
    import pyarrow.compute as pc  # noqa: F401
    import ray

    n_groups = max(8, cluster_cpus())

    def route(t: pa.Table) -> pa.Table:
        import numpy as np

        s = t["start_id"].combine_chunks().to_numpy(zero_copy_only=False)
        return t.append_column(
            "_bk", pa.array(s.astype(np.int64) % n_groups, pa.int64())
        )

    def bucket_pairs(df) -> pa.Table:
        df = df.sort_values(["start_id", "step"], kind="mergesort")
        s = df["start_id"].to_numpy(np.int64)
        st = df["step"].to_numpy(np.int64)
        nd = df["node_id"].to_numpy(np.int64)
        los, his = [], []
        for d in range(1, window + 1):
            if len(s) <= d:
                break
            m = (s[d:] == s[:-d]) & (st[d:] - st[:-d] == d)
            a, b = nd[:-d][m], nd[d:][m]
            keep = a != b  # revisits: no self co-occurrence
            a, b = a[keep], b[keep]
            los.append(np.minimum(a, b))
            his.append(np.maximum(a, b))
        lo = np.concatenate(los) if los else np.empty(0, np.int64)
        hi = np.concatenate(his) if his else np.empty(0, np.int64)
        return pa.table(
            {"a": pa.array(lo, pa.int64()), "b": pa.array(hi, pa.int64())}
        )

    cab = (
        walks.map_batches(route, batch_format="pyarrow")
        .groupby("_bk")
        .map_groups(bucket_pairs, batch_format="pandas")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="n_cooc"))
        .materialize()
    )
    total = int(cab.sum("n_cooc") or 0)
    occ_rows = (
        walks.groupby("node_id").aggregate(Count(alias_name="c")).take_all()
    )
    occ_ref = ray.put({r["node_id"]: r["c"] for r in occ_rows})

    def lift(t: pa.Table) -> pa.Table:
        import ray

        occ = ray.get(occ_ref)
        lifts = [
            (LIFT_PPM * int(c) * total) // (occ[int(x)] * occ[int(y)])
            for x, y, c in zip(
                t["a"].to_pylist(), t["b"].to_pylist(), t["n_cooc"].to_pylist()
            )
        ]
        return t.append_column("lift_ppm", pa.array(lifts, pa.int64()))

    return cab.map_batches(lift, batch_format="pyarrow").sort(["a", "b"])


def kg_walk_lift(sf_dir: str):
    """Driver query: skip-gram co-occurrence lift over the deterministic
    walk corpus of the materialized KG. Oracle: ANSI-SQL self-join over the
    sequential golden walks (goldens.kg_oracle_sql) — step-difference join
    is equivalent to the shifted-array pass because walk steps are
    contiguous."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    nodes = _kg_nodes_ds(out)
    return walk_cooc_lift(random_walks(edges, nodes))


# ---------------------------------------------------------------------------
# HITS hubs & authorities (Kleinberg 1999) — fixed-point integer power
# iteration over the DIRECTED distinct-pair graph
# ---------------------------------------------------------------------------
# Same determinism contract as pagerank: integer scores scaled to HITS_SCALE,
# int64 sums (order-free), floor-divided L-infinity normalization each half-
# step (divide by the global max, an exact integer aggregate — the usual L2
# norm would need a float sqrt). Per half-step: one score attach (tag-union
# groupby), one sum shuffle, one Max aggregate; iterative state is the
# node-sized score vector. Bit-identical to goldens._seq_hits at any
# parallelism.
#
# Scale note: a raw sum is bounded by max_in_degree * HITS_SCALE <=
# n_nodes * 1e6 — inside int64 to ~9e12 nodes.

HITS_ITERS = 5
HITS_SCALE = 10**6
HITS_TOP = 50


def _hits_broadcast(pairs: "rd.Dataset", nodes: "rd.Dataset",
                    iters: int, top: int) -> "rd.Dataset":
    """Broadcast-score HITS half-steps — same round-latency rationale as
    _pagerank_broadcast (edges stay distributed, scores ship via ray.put,
    per-block combiner partials merge on the driver by integer addition;
    2 map passes per iteration instead of ~8 shuffle barriers). Kernel
    parity with the shuffle loop: contrib = score(src) summed per dst,
    then rescale s * HITS_SCALE // max(s, 1). Endpoint-closure contract
    as in _pagerank_broadcast."""
    import numpy as np

    ids = _gather_node_ids(nodes)
    n = len(ids)
    if n == 0:
        return rd.from_arrow(
            pa.schema(
                [
                    ("entity_id", pa.int64()),
                    ("auth_fp", pa.int64()),
                    ("hub_fp", pa.int64()),
                ]
            ).empty_table()
        )
    ids_ref = ray.put(ids)

    def half(scores: np.ndarray, src: str, dst: str) -> np.ndarray:
        s_ref = ray.put(scores)

        def partial(
            t: pa.Table, _i=ids_ref, _s=s_ref, _src=src, _dst=dst
        ) -> pa.Table:
            import numpy as np

            ids_ = ray.get(_i) if hasattr(_i, "hex") else _i
            sc = ray.get(_s) if hasattr(_s, "hex") else _s
            a = t[_src].combine_chunks().to_numpy(zero_copy_only=False)
            b = t[_dst].combine_chunks().to_numpy(zero_copy_only=False)
            si = np.searchsorted(ids_, a)
            if (si >= len(ids_)).any() or (ids_[si] != a).any():
                raise ValueError(
                    "edge endpoint outside the node set — broadcast HITS "
                    "requires endpoint closure"
                )
            u, inv = np.unique(b, return_inverse=True)
            acc = np.zeros(len(u), np.int64)
            np.add.at(acc, inv, sc[si])
            return pa.table(
                {
                    "node_id": pa.array(u, pa.int64()),
                    "c": pa.array(acc, pa.int64()),
                }
            )

        new = np.zeros(n, np.int64)
        for blk in pairs.map_batches(
            partial, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            if not blk.num_rows:
                continue
            bn = blk["node_id"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(ids, bn)
            if (idx >= n).any() or (ids[idx] != bn).any():
                raise ValueError(
                    "edge endpoint outside the node set — broadcast HITS "
                    "requires endpoint closure"
                )
            np.add.at(new, idx, blk["c"].to_numpy(zero_copy_only=False))
        mx = max(int(new.max()) if n else 0, 1)
        return new * HITS_SCALE // mx

    hubs = np.full(n, HITS_SCALE, np.int64)
    auths = hubs
    for _ in range(iters):
        new_auths = half(hubs, "subj_id", "obj_id")
        new_hubs = half(new_auths, "obj_id", "subj_id")
        if np.array_equal(new_auths, auths) and np.array_equal(
            new_hubs, hubs
        ):
            break  # exact fixpoint — further iterations are no-ops
        auths, hubs = new_auths, new_hubs

    order = np.lexsort((ids, -auths))[:top]
    return rd.from_arrow(
        pa.table(
            {
                "entity_id": pa.array(ids[order], pa.int64()),
                "auth_fp": pa.array(auths[order], pa.int64()),
                "hub_fp": pa.array(hubs[order], pa.int64()),
            }
        )
    )


def hits(edges: "rd.Dataset", nodes: "rd.Dataset",
         iters: int = HITS_ITERS, top: int = HITS_TOP,
         force_shuffle: bool = False) -> "rd.Dataset":
    """``edges``: (subj_id, obj_id) int64 rows (deduped here); ``nodes``:
    (entity_id), one row per node. Output: top ``top`` nodes by
    (auth_fp desc, entity_id asc) with both scores. ``force_shuffle``
    opts out of the broadcast fast path (see ``pagerank``)."""
    import pyarrow.compute as pc

    n_parts = max(8, cluster_cpus())

    pairs = (
        edges.filter(expr="subj_id >= 0 and obj_id >= 0")
        .groupby(["subj_id", "obj_id"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
        .repartition(n_parts)  # bound loop-shuffle partition count
        .materialize()  # reused twice per iteration
    )

    nodes = nodes.materialize()  # gate count + gather share one execution
    if not force_shuffle and nodes.count() <= PR_BROADCAST_NODES:
        return _hits_broadcast(pairs, nodes, iters, top)

    def base_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node_id": t["entity_id"],
                "c": pa.array([0] * len(t), pa.int64()),
            }
        )

    zero = (
        nodes.map_batches(base_rows, batch_format="pyarrow")
        .repartition(n_parts)
        .materialize()
    )

    def init_score(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node_id": t["node_id"],
                "score": pa.array([HITS_SCALE] * len(t), pa.int64()),
            }
        )

    hubs = zero.map_batches(init_score, batch_format="pyarrow").materialize()

    def _half_step(scores: "rd.Dataset", src: str, dst: str) -> "rd.Dataset":
        """new(dst) = normalize( sum over edges of score(src) )."""
        contrib = _attach_i64(
            pairs, ["subj_id", "obj_id"], src,
            scores, "node_id", "score", "s", n_parts,
        ).map_batches(
            lambda t, _d=dst: pa.table({"node_id": t[_d], "c": t["s"]}),
            batch_format="pyarrow",
        )
        raw = (
            contrib.union(zero)
            .groupby("node_id")
            .aggregate(Sum("c", alias_name="s"))
            .repartition(n_parts)  # union grows block count; re-bound it
            .materialize()  # node-sized; consumed twice (max + rescale)
        )
        mx = max(int(raw.max("s") or 0), 1)

        def rescale(t: pa.Table, _mx=mx) -> pa.Table:
            s = t["s"].combine_chunks().to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "node_id": t["node_id"],
                    "score": pa.array(
                        s * HITS_SCALE // _mx, pa.int64()
                    ),
                }
            )

        return raw.map_batches(rescale, batch_format="pyarrow").materialize()

    auths = hubs
    for _ in range(iters):
        auths = _half_step(hubs, "subj_id", "obj_id")
        hubs = _half_step(auths, "obj_id", "subj_id")

    both = _attach_i64(
        auths.map_batches(
            lambda t: pa.table({"node_id": t["node_id"], "auth_fp": t["score"]}),
            batch_format="pyarrow",
        ),
        ["node_id", "auth_fp"], "node_id",
        hubs, "node_id", "score", "hub_fp", n_parts,
    )
    return (
        both.map_batches(
            lambda t: pa.table(
                {
                    "entity_id": pc.cast(t["node_id"], pa.int64()),
                    "auth_fp": pc.cast(t["auth_fp"], pa.int64()),
                    "hub_fp": pc.cast(t["hub_fp"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .sort(["auth_fp", "entity_id"], descending=[True, False])
        .limit(top)
    )


def kg_hits(sf_dir: str):
    """Driver query: HITS hubs/authorities over the materialized KG.
    Oracle: golden file from the sequential recomputation
    (goldens._seq_hits)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    nodes = _kg_nodes_ds(out)
    return hits(edges, nodes)


# ---------------------------------------------------------------------------
# Resource-Allocation link prediction (Zhou/Lü/Zhang 2009) — like kg_jaccard
# but weighting each shared neighbor by 1/deg(center), the index that
# consistently beats common-neighbors on real graphs. Chosen over
# Adamic-Adar's 1/log(deg) because 10^9 // deg is EXACT integer arithmetic:
# the wedge contributions sum order-free in int64, so the distributed result
# is bit-identical to the SQL mirror (float log summation would not be).
# ---------------------------------------------------------------------------

RA_SCALE = 10**9
RA_MAX_DEG = 30     # hub guard, same semantics as jaccard_pairs
RA_MIN_COMMON = 2
RA_TOP = 100


def resource_allocation_pairs(
    edges: "rd.Dataset",
    max_deg: int = RA_MAX_DEG,
    min_common: int = RA_MIN_COMMON,
    top: int = RA_TOP,
) -> "rd.Dataset":
    """Top non-adjacent-or-adjacent node pairs by RA score
    ra_score = sum over shared neighbors w with deg(w) <= max_deg of
    RA_SCALE // deg(w); deg(w) is the FULL symmetric degree (the wedge
    group's own fan-out). Output: (node_a, node_b, common, ra_score) by
    (ra_score desc, node_a, node_b), limit ``top``.

    Shape: one wedge pass inside a coarse-bucket map_groups (per-center
    work bounded by max_deg^2, contribution computed IN the group from its
    own size — no degree attach needed), then ONE (u, v) groupby summing
    int64 contributions. Nothing node- or edge-sized on the driver."""
    import numpy as np
    import pyarrow.compute as pc

    n_groups = max(8, cluster_cpus())

    pairs = _distinct_undirected_pairs(edges)
    sym = _symmetrize_pairs(pairs)

    def bucket(t: pa.Table) -> pa.Table:
        src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
        return t.append_column("_bk", pa.array(src % n_groups, pa.int64()))

    def wedge_rows(df) -> pa.Table:
        us, vs, ws = [], [], []
        for _, g in df.groupby("src"):
            d = g["dst"].to_numpy()
            n = len(d)
            if n < 2 or n > max_deg:
                continue
            w = RA_SCALE // n  # deg(center) == its distinct-neighbor count
            d = np.sort(d)
            iu, iv = np.triu_indices(n, k=1)
            us.append(d[iu])
            vs.append(d[iv])
            ws.append(np.full(len(iu), w, np.int64))
        if not us:
            return pa.table(
                {
                    "u": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                    "w": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "u": pa.array(np.concatenate(us), pa.int64()),
                "v": pa.array(np.concatenate(vs), pa.int64()),
                "w": pa.array(np.concatenate(ws), pa.int64()),
            }
        )

    return (
        sym.map_batches(bucket, batch_format="pyarrow")
        .groupby("_bk")
        .map_groups(wedge_rows, batch_format="pandas")
        .groupby(["u", "v"])
        .aggregate(Count(alias_name="common"), Sum("w", alias_name="ra"))
        .filter(expr=f"common >= {min_common}")
        .map_batches(
            lambda t: pa.table(
                {
                    "node_a": pc.cast(t["u"], pa.int64()),
                    "node_b": pc.cast(t["v"], pa.int64()),
                    "common": pc.cast(t["common"], pa.int64()),
                    "ra_score": pc.cast(t["ra"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .sort(["ra_score", "node_a", "node_b"],
              descending=[True, False, False])
        .limit(top)
    )


def kg_link_ra(sf_dir: str):
    """Driver query: top entity pairs by Resource-Allocation link-prediction
    score over the materialized KG. Oracle: DuckDB wedge self-join over the
    sequential golden edges parquet (goldens.kg_oracle_sql)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    return resource_allocation_pairs(edges)


# ---------------------------------------------------------------------------
# Local clustering coefficient (Watts-Strogatz 1998) — per-node triangle
# participation over the undirected distinct-pair graph, integer ppm:
#   cc_ppm(v) = 2 * tri(v) * 10^6 // (deg(v) * (deg(v) - 1))   for deg >= 2
# Same degree-ordered orientation as ``triangles`` (a hub's edges all point
# AT it, so no d^2 wedge blowup), but each closed wedge (center; x, y) is
# kept as a row and credited to ALL THREE vertices — every triangle is found
# exactly once (at its lowest-order vertex) and contributes once per corner.
# Closure is checked by an int64-packed (x, y) key attach, NOT a per-pair
# map_groups: the wedge stream stays vectorized end to end.
#
# Packing assumption (documented like the edge sort key): node ids fit in
# 31 bits (key = x << 32 | y); asserted per batch. Isolated nodes (degree 0)
# have no pair rows and are excluded — both here and in the SQL mirror.
# ---------------------------------------------------------------------------

CC_SCALE = 10**6
CC_TOP = 100


def clustering_coefficients(edges: "rd.Dataset", top: int = CC_TOP) -> "rd.Dataset":
    """Top ``top`` nodes by (cc_ppm desc, entity_id asc) with degree and
    triangle count. Exact; one extra shuffle vs the scalar census."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    n_parts = max(8, cluster_cpus())

    def canon(t: pa.Table) -> pa.Table:
        s = t["subj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        o = t["obj_id"].combine_chunks().to_numpy(zero_copy_only=False)
        keep = (s != o) & (s >= 0) & (o >= 0)
        s, o = s[keep], o[keep]
        return pa.table(
            {
                "a": pa.array(np.minimum(s, o), pa.int64()),
                "b": pa.array(np.maximum(s, o), pa.int64()),
            }
        )

    pairs = (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
        .materialize()  # reused: degree, orientation, closure markers
    )

    def endpoint_counts(t: pa.Table) -> pa.Table:
        both = np.concatenate(
            [
                t["a"].combine_chunks().to_numpy(zero_copy_only=False),
                t["b"].combine_chunks().to_numpy(zero_copy_only=False),
            ]
        )
        ids, cnt = np.unique(both, return_counts=True)
        return pa.table(
            {
                "node": pa.array(ids, pa.int64()),
                "dp": pa.array(cnt.astype("int64"), pa.int64()),
            }
        )

    deg = (
        pairs.map_batches(endpoint_counts, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("dp", alias_name="deg"))
        .materialize()  # node-sized; reused for orientation + final attach
    )

    with_da = _attach_i64(
        pairs, ["a", "b"], "a", deg, "node", "deg", "da", n_parts
    )
    with_deg = _attach_i64(
        with_da, ["a", "b", "da"], "b", deg, "node", "deg", "db", n_parts
    )

    def orient(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks().to_numpy(zero_copy_only=False)
        b = t["b"].combine_chunks().to_numpy(zero_copy_only=False)
        da = t["da"].combine_chunks().to_numpy(zero_copy_only=False)
        db = t["db"].combine_chunks().to_numpy(zero_copy_only=False)
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table(
            {
                "src": pa.array(np.where(a_first, a, b), pa.int64()),
                "dst": pa.array(np.where(a_first, b, a), pa.int64()),
                "ddst": pa.array(np.where(a_first, db, da), pa.int64()),
            }
        )

    oriented = with_deg.map_batches(orient, batch_format="pyarrow").materialize()

    def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        assert x.max(initial=0) < (1 << 31) and y.max(initial=0) < (1 << 31), (
            "clustering_coefficients packs (x, y) into int64: ids must fit "
            "31 bits"
        )
        return (x << np.int64(32)) | y

    def wedge_rows(df: "pd.DataFrame") -> pa.Table:
        df = df.sort_values(["ddst", "dst"], kind="mergesort")
        n = df["dst"].to_numpy()
        k = len(n)
        if k < 2:
            return pa.table(
                {
                    "x": pa.array([], pa.int64()),
                    "y": pa.array([], pa.int64()),
                    "center": pa.array([], pa.int64()),
                    "key": pa.array([], pa.int64()),
                }
            )
        i, j = np.triu_indices(k, 1)
        x, y = n[i], n[j]
        center = np.full(len(i), df["src"].iloc[0], np.int64)
        return pa.table(
            {
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64()),
                "center": pa.array(center, pa.int64()),
                "key": pa.array(_pack(x, y), pa.int64()),
            }
        )

    cand = oriented.groupby("src").map_groups(wedge_rows, batch_format="pandas")

    markers = oriented.map_batches(
        lambda t: pa.table(
            {
                "key": pa.array(
                    _pack(
                        t["src"].combine_chunks().to_numpy(zero_copy_only=False),
                        t["dst"].combine_chunks().to_numpy(zero_copy_only=False),
                    ),
                    pa.int64(),
                ),
                "one": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    closed = _attach_i64(
        cand, ["x", "y", "center", "key"], "key",
        markers, "key", "one", "_e", n_parts,
    )

    def corner_rows(t: pa.Table) -> pa.Table:
        node = np.concatenate(
            [
                t["x"].combine_chunks().to_numpy(zero_copy_only=False),
                t["y"].combine_chunks().to_numpy(zero_copy_only=False),
                t["center"].combine_chunks().to_numpy(zero_copy_only=False),
            ]
        )
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "t": pa.array(np.ones(len(node), np.int64), pa.int64()),
            }
        )

    tri = (
        closed.map_batches(corner_rows, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("t", alias_name="tri"))
    )

    with_tri = _attach_i64(
        deg, ["node", "deg"], "node", tri, "node", "tri", "tri_cnt",
        n_parts, default=0,
    )

    def cc(t: pa.Table) -> pa.Table:
        d = t["deg"].combine_chunks().to_numpy(zero_copy_only=False)
        tr = t["tri_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        denom = d * (d - 1)
        ppm = np.where(denom > 0, 2 * tr * CC_SCALE // np.maximum(denom, 1), 0)
        return pa.table(
            {
                "entity_id": pc.cast(t["node"], pa.int64()),
                "deg": pa.array(d, pa.int64()),
                "tri_cnt": pa.array(tr, pa.int64()),
                "cc_ppm": pa.array(ppm, pa.int64()),
            }
        )

    return (
        with_tri.map_batches(cc, batch_format="pyarrow")
        .sort(["cc_ppm", "entity_id"], descending=[True, False])
        .limit(top)
    )


def kg_clustering(sf_dir: str):
    """Driver query: local clustering coefficients over the materialized KG.
    Oracle: DuckDB unoriented wedge join over the sequential golden edges
    parquet (goldens._cc_sql) — an independent algorithm for the same exact
    quantity."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    return clustering_coefficients(edges)


PPR_SEED_MOD = 10


def kg_ppr(sf_dir: str):
    """Driver query: PERSONALIZED PageRank over the materialized KG —
    teleport restricted to the seed set entity_id % {PPR_SEED_MOD} == 0
    (the related-entity recommendation shape: rank mass measures proximity
    to the seeds, not global centrality). Oracle: golden-file sequential
    mirror (goldens._seq_ppr)."""
    from .kgqueries import _ensure_run

    out = _ensure_run(sf_dir)
    edges = _kg_edges_ds(out)
    nodes = _kg_nodes_ds(out)
    return pagerank(edges, nodes, seed_mod=PPR_SEED_MOD)


# ---------------------------------------------------------------------------
# weighted PageRank: rank mass distributed proportionally to integer edge
# weights instead of uniformly over distinct successors —
#   share(e) = (rank(src) * 85 // 100) * w(e) // W_out(src)
# (floor per edge; residual mass drops, like dangling mass in the uniform
# variant). Same bounded-partition BSP loop as pagerank().
# ---------------------------------------------------------------------------

def _wcontrib_batch(t: pa.Table) -> pa.Table:
    import numpy as np

    rank = t["rank"].combine_chunks().to_numpy(zero_copy_only=False)
    w = t["w"].combine_chunks().to_numpy(zero_copy_only=False)
    wout = t["wout"].combine_chunks().to_numpy(zero_copy_only=False)
    c = (rank * PR_DAMP_NUM // PR_DAMP_DEN) * w // wout
    return pa.table(
        {"node_id": t["obj_id"], "c": pa.array(c.astype("int64"), pa.int64())}
    )


def pagerank_weighted(edges: "rd.Dataset", nodes: "rd.Dataset",
                      iters: int = PR_ITERS, top: int = PR_TOP,
                      force_shuffle: bool = False) -> "rd.Dataset":
    """``edges``: (subj_id, obj_id, w) int64 rows, one per distinct pair
    (weights already aggregated); ``nodes``: (entity_id).
    ``force_shuffle`` opts out of the broadcast fast path (see
    ``pagerank``)."""
    n_parts = max(8, cluster_cpus())

    nodes = nodes.materialize()  # gate count + gather share one execution
    if not force_shuffle and nodes.count() <= PR_BROADCAST_NODES:
        # no wout attach: the broadcast path derives the out-weight
        # divisor from the (already-aggregated) edges in one combiner pass
        adjb = edges.repartition(n_parts).materialize()
        return _pagerank_broadcast(adjb, nodes, iters, top, None,
                                   weighted=True)

    wout = edges.groupby("subj_id").aggregate(Sum("w", alias_name="wout"))
    adj = (
        _attach_i64(
            edges, ["subj_id", "obj_id", "w"], "subj_id",
            wout, "subj_id", "wout", "wout", n_parts,
        )
        .repartition(n_parts)
        .materialize()
    )

    def base_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node_id": t["entity_id"],
                "c": pa.array([0] * len(t), pa.int64()),
            }
        )

    zero = (
        nodes.map_batches(base_rows, batch_format="pyarrow")
        .repartition(n_parts)
        .materialize()
    )

    def init_rank(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node_id": t["node_id"],
                "rank": pa.array([PR_SCALE] * len(t), pa.int64()),
            }
        )

    ranks = zero.map_batches(init_rank, batch_format="pyarrow").materialize()

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "node_id": t["node_id"],
                "rank": pc.add(t["s"], PR_BASE),
            }
        )

    for _ in range(iters):
        contrib = _attach_i64(
            adj, ["subj_id", "obj_id", "w", "wout"], "subj_id",
            ranks, "node_id", "rank", "rank", n_parts,
        ).map_batches(_wcontrib_batch, batch_format="pyarrow")
        ranks = (
            contrib.union(zero)
            .groupby("node_id")
            .aggregate(Sum("c", alias_name="s"))
            .map_batches(finish, batch_format="pyarrow")
            .repartition(n_parts)
        ).materialize()

    return (
        ranks.sort(["rank", "node_id"], descending=[True, False])
        .limit(top)
        .rename_columns({"node_id": "entity_id", "rank": "rank_fp"})
    )
