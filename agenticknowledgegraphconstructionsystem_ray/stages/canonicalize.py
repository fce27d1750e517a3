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
3. phase B merges those partials with one ``group_by("norm_surface")``:
   an Arrow one on the driver while the partial rows stay at or below
   ``pipelines.kg.DRIVER_MCOUNT_MAX_ROWS``, a Ray groupby above it
   (``pipelines.kg.run_phase_b``).

Entity merging (alias long-form <-> acronym) runs on the DRIVER over the
distinct-surface table (above the gate, over its alias-relevant rows
only: pipelines/openvocab.py), which is bounded by vocabulary size, not
corpus size. A dict union-find (state/unionfind.py) links each alias to its
canonical's norm; then ONE columnar pass tags every counts row with its
component root and ``group_by(root)`` sums the counts, takes the score
max/min and lists the aliases — no per-component Python loop. The reference
lists this disambiguation as future work (``README.md:1442-1444``).
"""

from __future__ import annotations

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


# node columns before entity ids are assigned, and the per-component
# aggregations that fill ENTITY_SCHEMA's columns after name and type
ENTITY_SCHEMA = pa.schema([f for f in NODES_SCHEMA if f.name != "entity_id"])
_COMPONENT_AGGS = [
    ("mention_count", "sum"), ("link_count", "sum"), ("perfect_links", "sum"),
    ("max_score", "max"), ("min_score", "min"), ("norm_surface", "list"),
]


def component_table(
    counts: pa.Table, alias: dict[str, tuple[str, str]]
) -> tuple[pa.Table, dict[str, int]]:
    """Union-find + one columnar aggregation -> (node rows without entity
    ids, ordered by (canonical_name, component root); member norm -> row
    index for every member, unseen canonical norms included).

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
        names=[*ENTITY_SCHEMA.names, "root"],
    ).sort_by([("canonical_name", "ascending"), ("root", "ascending")])

    # every component holds an observed norm: union-find is seeded from them
    row_of_root = {r: i for i, r in enumerate(g["root"].to_pylist())}
    row_of = {m: row_of_root[r] for m, r in root_of.items()}
    return g.drop_columns(["root"]).cast(ENTITY_SCHEMA), row_of


def build_entity_table(
    counts: pa.Table, alias: dict[str, tuple[str, str]]
) -> tuple[pa.Table, dict[str, tuple[int, str]]]:
    """Driver-side union-find merge -> (nodes table, norm -> (entity_id,
    canonical_name) map).

    ``counts`` columns: norm_surface, mention_count, link_count,
    perfect_links, max_score, min_score (already merged across blocks).
    Deterministic: entity ids are the dense rank of sorted canonical names.
    """
    rows, row_of = component_table(counts, alias)
    names = rows["canonical_name"].to_pylist()
    nodes = rows.add_column(
        0, NODES_SCHEMA.field("entity_id"),
        pa.array(range(rows.num_rows), pa.int64()),
    )
    return nodes, {m: (i, names[i]) for m, i in row_of.items()}


EDGE_COLUMNS = ["subj_id", "pred", "obj_id", "subj", "obj",
               "url", "warc_ts", "confidence", "context"]


def lookup_norms(
    col: pa.ChunkedArray, id_map: dict[str, tuple[int, str]]
) -> tuple[pa.Array, pa.Array]:
    """(entity ids, names) of a norm column through ``id_map``, with the
    ``(-1, norm)`` unknown sentinel for a miss. Dictionary-encodes the
    column (Zipf-heavy: few uniques per batch) and maps only the
    DICTIONARY, then takes — per-row Python cost is O(uniques), not
    O(rows)."""
    enc = pc.dictionary_encode(col.combine_chunks())
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    hits = [id_map.get(u, (-1, u)) for u in enc.dictionary.to_pylist()]
    ids = pa.array([h[0] for h in hits], pa.int64())
    names = pa.array([h[1] for h in hits], pa.string())
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


def label_propagation_components(
    edges, max_rounds: int = 50
):
    """Distributed connected components via iterated min-label propagation —
    the documented fallback for alias-edge sets too large for driver-side
    union-find (see state/unionfind.py).

    ``edges``: ray Dataset with string columns (a, b). Returns
    {node -> component_label} where the label is the lexicographically
    smallest member, identical to UnionFind's representative choice.

    Each round: every node takes the min label over itself and its
    neighbors (one groupby per round, O(diameter) rounds — alias chains are
    short, so convergence is fast). The per-round state is the (node, label)
    assignment, corpus-vocabulary-sized.

    NOTE: this implementation relieves the driver of the EDGE set (which
    stays distributed) but still broadcasts the node->label map each round,
    so the node set must fit in memory; a fully driverless variant would
    propagate labels via a distributed join of (edges x labels) instead of
    the broadcast dict.
    """
    import ray.data as rd
    from ray.data.aggregate import Min

    def explode(t: pa.Table) -> pa.Table:
        # undirected: each edge contributes candidate labels both ways,
        # plus self-labels so isolated endpoints keep their own label
        a = t.column("a")
        b = t.column("b")
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [a.combine_chunks(), b.combine_chunks(),
                     a.combine_chunks(), b.combine_chunks()]
                ),
                "label": pa.concat_arrays(
                    [b.combine_chunks(), a.combine_chunks(),
                     a.combine_chunks(), b.combine_chunks()]
                ),
            }
        )

    edge_rows = edges.materialize()  # reused every round
    labels = (
        edge_rows.map_batches(explode, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("label", alias_name="label"))
        .materialize()
    )

    ldf = labels.to_pandas()
    for _ in range(max_rounds):
        label_map = dict(zip(ldf["node"], ldf["label"]))
        import ray as _ray

        ref = _ray.put(label_map)

        def relabel(t: pa.Table, _ref=ref) -> pa.Table:
            import ray as _r

            m = _r.get(_ref)
            a = t.column("a").to_pylist()
            b = t.column("b").to_pylist()
            return pa.table(
                {
                    "node": a + b,
                    "label": [m[x] for x in b] + [m[x] for x in a],
                }
            )

        # candidate labels: own current label + neighbors' current labels
        own = labels
        prop = edge_rows.map_batches(relabel, batch_format="pyarrow")
        new_labels = (
            own.union(prop)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        new_df = new_labels.to_pandas()
        converged = new_df.equals(ldf)
        ldf = new_df
        if converged:
            break

    return dict(zip(ldf["node"], ldf["label"]))


def label_propagation_components_driverless(edges, max_rounds: int = 50):
    """Fully driverless connected components: min-label propagation where
    BOTH the edge set and the per-round (node, label) assignment stay
    distributed — labels are joined to edges via a groupby on the node key
    (the broadcast-dict variant above ships the whole node->label map to
    every task each round, so its node set must fit in one heap; this one
    has no such bound).

    Per round: union(edge rows keyed by each endpoint, label rows keyed by
    node) -> groupby(node key) attaches the key's current label to each
    incident edge row -> emitted (neighbor, candidate label) rows ∪ own
    labels -> groupby(node).min(label). Convergence = no label changed,
    checked with a distributed count. O(diameter) rounds, 2 shuffles per
    round over |V|+|E| rows.

    Returns the converged label assignment as a Dataset (node, label); the
    caller decides whether that fits on the driver. Labels equal the
    lexicographically smallest reachable member, matching UnionFind.
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


def apply_ids_batch(batch: pa.Table, *, id_map: dict) -> pa.Table:
    """Triple records -> id-resolved edge rows through the norm ->
    (entity_id, canonical_name) ``id_map``. Phase B passes the map as a
    top-level task argument, so Ray hands each task the broadcast dict
    itself, fetched from the local object store."""
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
