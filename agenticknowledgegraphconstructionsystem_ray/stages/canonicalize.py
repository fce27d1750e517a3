"""Canonicalization: mention-count merge + union-find merge + entity-id
application.

Reference analog (SURVEY.md A4/D3): the ``concepts`` unique-name upsert with
``mention_count = mention_count + 1`` (``agents/src/database.ts:102-110``,
``db_init.py:56``) — a grouped count implemented row-at-a-time in the
reference, re-expressed as a two-level aggregation:

1. the TripleExtractor already emits one row per (page, norm_surface) with
   ``n_in_page`` (page-level combiner);
2. the same batch collapses its mention rows to one ``kind=mcount`` row per
   (chunk, surface) (``stages/triples._mcount_table``, the batch-level
   combiner — this is what defeats Zipf-head skew: a head entity
   contributes at most one row per batch to the merge, the same effect as
   salting the groupby key, without a second merge pass);
3. phase B merges those partials with one Arrow ``group_by("norm_surface")``
   on the driver (``pipelines.kg.run_phase_b``).

Entity merging (alias long-form <-> acronym) runs on the DRIVER over the
distinct-surface table. Only alias-relevant surfaces (alias keys and the
canonical names' own norms, ``alias_relevant_set``) can ever be unioned, so
one ``is_in`` splits the counts: a dict union-find (state/unionfind.py) runs
over the relevant rows only and links each alias to its canonical's norm,
then ONE columnar pass tags those rows with their component root and
``group_by(root)`` sums the counts, takes the score max/min and lists the
aliases. Every other surface is a one-member node built in Arrow. The id
map is an Arrow table too, applied to the edges with ``index_in``. No
per-surface or per-component Python loop runs outside the alias-relevant
rows. The reference lists this disambiguation as future work
(``README.md:1442-1444``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.textnorm import norm_surface
from ..state.unionfind import UnionFind

NODES_SCHEMA = pa.schema(
    [
        ("entity_id", pa.int64()),
        ("canonical_name", pa.string()),
        ("ent_type", pa.string()),
        ("mention_count", pa.int64()),
        ("link_count", pa.int64()),
        ("perfect_links", pa.int64()),
        ("max_score", pa.float64()),
        ("min_score", pa.float64()),
        ("aliases", pa.list_(pa.string())),
    ]
)

# member norm -> (entity_id, canonical_name): every observed norm plus the
# unseen canonical norms of merged components
ID_MAP_SCHEMA = pa.schema([("member_norm", pa.string()),
                           ("entity_id", pa.int64()),
                           ("canonical_name", pa.string())])

# node columns before entity ids are assigned, plus each row's component
# root (the tie-break between equal names), and the per-component
# aggregations that fill the columns after name and type
_ROWS_SCHEMA = pa.schema([*(f for f in NODES_SCHEMA if f.name != "entity_id"),
                          ("root", pa.string())])
_COMPONENT_AGGS = [
    ("mention_count", "sum"), ("link_count", "sum"), ("perfect_links", "sum"),
    ("max_score", "max"), ("min_score", "min"), ("norm_surface", "list"),
]


def alias_relevant_set(alias: dict[str, tuple[str, str]]) -> set[str]:
    """Surfaces union-find can involve: alias keys plus each canonical
    name's own normalized surface (union targets)."""
    return set(alias) | {norm_surface(v[0]) for v in alias.values()}


def component_table(
    counts: pa.Table, alias: dict[str, tuple[str, str]]
) -> tuple[pa.Table, dict[str, int]]:
    """Union-find + one columnar aggregation -> (one row per component,
    ``_ROWS_SCHEMA``; member norm -> row index for every member, unseen
    canonical norms included).

    ``canonical_name``/``ent_type`` are the smallest alias canonical/type
    among the members (else ``"concept"``); a component with no alias
    member is one observed norm, which names itself."""
    norms = counts["norm_surface"].to_pylist()
    uf = UnionFind()
    for norm in norms:
        uf.add(norm)
        hit = alias.get(norm)
        if hit is not None:
            # union with the canonical form's own normalized surface; alias
            # chains (acronym <-> long form <-> hyphenated) meet transitively.
            uf.union(norm, norm_surface(hit[0]))
    root_of = {m: uf.find(m) for m in uf.parent}

    # name and type come from the alias entries of the members — never from
    # the canonical's own norm, which a user-supplied alias dict need not
    # contain (it maps aliases, not necessarily the canonical itself)
    canon: dict[str, str] = {}
    ent_type: dict[str, str] = {}
    for m, r in root_of.items():
        hit = alias.get(m)
        if hit is not None:
            canon[r] = min(canon.get(r, hit[0]), hit[0])
            ent_type[r] = min(ent_type.get(r, hit[1]), hit[1])

    # one pass over all components; single-threaded so each aliases list
    # keeps the norm order of the sorted input
    g = (
        counts.append_column(
            "root", pa.array([root_of[n] for n in norms], pa.string())
        )
        .sort_by("norm_surface")
        .group_by("root", use_threads=False)
        .aggregate(_COMPONENT_AGGS)
    )
    roots = g["root"].to_pylist()
    g = pa.Table.from_arrays(
        [
            pa.array([canon.get(r, r) for r in roots], pa.string()),
            pa.array([ent_type.get(r, "concept") for r in roots], pa.string()),
            *(g[f"{col}_{op}"] for col, op in _COMPONENT_AGGS),
            g["root"],
        ],
        names=_ROWS_SCHEMA.names,
    )

    # every component holds an observed norm: union-find is seeded from them
    row_of_root = {r: i for i, r in enumerate(roots)}
    return g.cast(_ROWS_SCHEMA), {m: row_of_root[r] for m, r in root_of.items()}


def _singleton_rows(counts: pa.Table) -> pa.Table:
    """One ``_ROWS_SCHEMA`` row per counts row, each its own component:
    named by its norm, type ``concept``, aliases ``[norm]``, root = norm."""
    norms = counts["norm_surface"].combine_chunks()
    n = len(norms)
    return pa.Table.from_arrays(
        [
            norms, pa.repeat("concept", n),
            counts["mention_count"], counts["link_count"],
            counts["perfect_links"],
            # a one-row group's max/min as Arrow's hash aggregate gives it
            # (NaN -> -inf/+inf, null stays null)
            pc.max_element_wise(counts["max_score"], float("-inf"),
                                skip_nulls=False),
            pc.min_element_wise(counts["min_score"], float("inf"),
                                skip_nulls=False),
            pa.ListArray.from_arrays(
                pa.array(np.arange(n + 1, dtype=np.int32)), norms),
            norms,
        ],
        names=_ROWS_SCHEMA.names,
    ).cast(_ROWS_SCHEMA)


def build_entity_table(
    counts: pa.Table, alias: dict[str, tuple[str, str]]
) -> tuple[pa.Table, pa.Table]:
    """Driver-side union-find merge -> (nodes table, ``ID_MAP_SCHEMA`` id
    map).

    ``counts`` columns: norm_surface, mention_count, link_count,
    perfect_links, max_score, min_score (already merged across blocks).
    Only the alias-relevant rows go through ``component_table``; every
    other row is a singleton node (``_singleton_rows``). Deterministic:
    entity ids are the dense rank of (canonical name, component root).
    """
    relevant = pc.is_in(
        counts["norm_surface"],
        value_set=pa.array(sorted(alias_relevant_set(alias)), pa.string()))
    merged, row_of = component_table(counts.filter(relevant), alias)
    rows = pa.concat_tables(
        [merged, _singleton_rows(counts.filter(pc.invert(relevant)))])
    order = pc.sort_indices(
        rows, [("canonical_name", "ascending"), ("root", "ascending")])
    n = rows.num_rows
    nodes = rows.take(order).drop_columns(["root"]).add_column(
        0, NODES_SCHEMA.field("entity_id"), pa.array(np.arange(n)))
    # row -> entity id; the id map's rows are the merged components'
    # members, then the singletons (rows merged.num_rows .. n-1, each
    # the root of its own component)
    entity_of = np.empty(n, np.int64)
    entity_of[order.to_numpy()] = np.arange(n)
    src = np.concatenate([np.fromiter(row_of.values(), np.int64, len(row_of)),
                          np.arange(merged.num_rows, n)])
    id_map = pa.Table.from_arrays(
        [pa.concat_arrays([pa.array(list(row_of), pa.string()),
                           rows["root"].slice(merged.num_rows).combine_chunks()]),
         pa.array(entity_of[src]),
         rows["canonical_name"].take(src).combine_chunks()],
        schema=ID_MAP_SCHEMA)
    return nodes.combine_chunks(), id_map


EDGE_COLUMNS = ["subj_id", "pred", "obj_id", "subj", "obj",
               "url", "warc_ts", "confidence", "context"]


def lookup_norms(
    col: pa.ChunkedArray, id_map: pa.Table
) -> tuple[pa.Array, pa.Array]:
    """(entity ids, names) of a norm column through the ``ID_MAP_SCHEMA``
    ``id_map``, with the ``(-1, norm)`` unknown sentinel for a miss.
    Dictionary-encodes the column (Zipf-heavy: few uniques per batch) and
    resolves only the DICTIONARY with one ``index_in``, then takes."""
    enc = pc.dictionary_encode(col.combine_chunks())
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    at = pc.index_in(enc.dictionary, value_set=id_map["member_norm"])
    ids = pc.fill_null(pc.take(id_map["entity_id"], at), -1)
    names = pc.coalesce(pc.take(id_map["canonical_name"], at), enc.dictionary)
    return pc.take(ids, enc.indices), pc.take(names, enc.indices)


def edge_table(t: pa.Table, subj, obj) -> pa.Table:
    """Edge rows of triple records ``t`` from their resolved (ids, names)
    pairs ``subj`` and ``obj``."""
    return pa.Table.from_arrays(
        [subj[0], t.column("pred"), obj[0], subj[1], obj[1],
         t.column("url"), t.column("warc_ts"), t.column("confidence"),
         t.column("context")],
        names=EDGE_COLUMNS,
    )


def label_propagation_components_driverless(edges, max_rounds: int = 50):
    """Fully driverless connected components: min-label propagation where
    BOTH the edge set and the per-round (node, label) assignment stay
    distributed — labels are joined to edges via a groupby on the node key,
    so neither the node set nor the edge set has to fit in one heap.

    Per round: union(edge rows keyed by each endpoint, label rows keyed by
    node) -> groupby(node key) attaches the key's current label to each
    incident edge row -> emitted (neighbor, candidate label) rows ∪ own
    labels -> groupby(node).min(label). Convergence = no label changed,
    checked with a distributed count. O(diameter) rounds, 2 shuffles per
    round over |V|+|E| rows.

    Returns the converged label assignment as a Dataset (node, label); the
    caller decides whether that fits on the driver. Labels equal the
    lexicographically smallest reachable member, the first member of the
    component in ``UnionFind.components()``.
    """
    import ray.data as rd
    from ray.data.aggregate import Count, Min

    def explode(t: pa.Table) -> pa.Table:
        a = t.column("a").combine_chunks()
        b = t.column("b").combine_chunks()
        n = len(a)
        return pa.table(
            {
                "k": pa.concat_arrays([a, b]),
                "other": pa.concat_arrays([b, a]),
                "label": pa.nulls(2 * n, pa.string()),
            }
        )

    from ..runtime import cluster_cpus

    n_parts = max(8, cluster_cpus())
    edge_rows = (
        edges.map_batches(explode, batch_format="pyarrow")
        .repartition(n_parts)  # bound the per-round shuffle partition count
        .materialize()
    )

    # initial labels: every node labels itself
    labels = (
        edge_rows.map_batches(
            lambda t: pa.table({"node": t["k"], "label": t["k"]}),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Min("label", alias_name="label"))
        .materialize()
    )

    for _ in range(max_rounds):
        tagged = edge_rows.union(
            labels.map_batches(
                lambda t: pa.table(
                    {
                        "k": t["node"],
                        "other": pa.nulls(t.num_rows, pa.string()),
                        "label": t["label"],
                    }
                ),
                batch_format="pyarrow",
            )
        )

        def attach(g):
            import numpy as np

            lab = g.loc[g["other"].isna(), "label"]
            if not len(lab):
                return {
                    "node": np.array([], dtype="U1"),
                    "cand": np.array([], dtype="U1"),
                }
            v = lab.iloc[0]
            others = g.loc[g["other"].notna(), "other"]
            # neighbors receive this node's label; the node keeps its own
            return {
                "node": np.concatenate(
                    [others.to_numpy(dtype=object),
                     np.array([g["k"].iloc[0]], dtype=object)]
                ),
                "cand": np.array([v] * (len(others) + 1), dtype=object),
            }

        new_labels = (
            tagged.groupby("k")
            .map_groups(attach, batch_format="pandas")
            .groupby("node")
            .aggregate(Min("cand", alias_name="label"))
            .repartition(n_parts)  # union grows block count; re-bound it
            .materialize()
        )

        # distributed convergence check: any (node, label) row not present
        # identically in both assignments?
        n_old = labels.count()
        n_same = (
            labels.union(new_labels)
            .groupby(["node", "label"])
            .aggregate(Count(alias_name="n"))
            .map_batches(
                lambda t: t.filter(pc.equal(t["n"], pa.scalar(2))),
                batch_format="pyarrow",
            )
            .count()
        )
        converged = n_same == n_old
        labels = new_labels
        if converged:
            return labels
    raise RuntimeError(
        f"label propagation did not converge within {max_rounds} rounds "
        f"(a component's diameter exceeds max_rounds); raise max_rounds"
    )


def apply_ids_batch(batch: pa.Table, *, id_map: pa.Table) -> pa.Table:
    """Triple records -> id-resolved edge rows through the
    ``ID_MAP_SCHEMA`` ``id_map``. Phase B passes the map as a top-level
    task argument, so Ray hands each task the broadcast table itself,
    read zero-copy from the local object store."""
    return edge_table(batch, lookup_norms(batch["subj_norm"], id_map),
                      lookup_norms(batch["obj_norm"], id_map))


# Dedup KEY includes the carried subj/obj names: for resolved ids they are
# the canonical name (a function of the id — no extra splitting), but for
# the -1 unknown sentinel they are the raw norm, so two DISTINCT unknown
# entities on one url never collapse into one edge.
DEDUP_KEYS = ["subj_id", "pred", "obj_id", "url", "subj", "obj"]
DEDUP_TIEBREAK = ["confidence", "context", "warc_ts"]


def dedup_edges_batch(batch: pa.Table) -> pa.Table:
    """Exact dedup on (subj_id, pred, obj_id, url) plus the carried names:
    keeps the row with the smallest (confidence, context, warc_ts) TUPLE —
    the same representative rule as the per-page dedup in
    stages/triples.py, so the two dedup paths agree on surviving row
    contents (independent per-column mins could stitch fields from different
    source rows). Sort-then-ordered-first; pyarrow 'first' with
    use_threads=False preserves encounter order, so every non-key column
    (the validation flags too) comes from that one row and the output keeps
    the input's columns in their order. Reference analog:
    UNIQUE(source, target, type) upsert-DO-NOTHING (``db_init.py:128``,
    ``database.ts:264-289``)."""
    batch = batch.sort_by(
        [(c, "ascending") for c in DEDUP_KEYS + DEDUP_TIEBREAK]
    )
    rest = [c for c in batch.column_names if c not in DEDUP_KEYS]
    g = batch.group_by(DEDUP_KEYS, use_threads=False).aggregate(
        [(c, "first") for c in rest]
    )
    return pa.Table.from_arrays(
        [g.column(c if c in DEDUP_KEYS else f"{c}_first")
         for c in batch.column_names],
        names=batch.column_names,
    )
