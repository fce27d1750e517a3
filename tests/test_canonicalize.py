"""Canonicalization units: union-find merge, block combiner correctness,
and the columnar entity table against a per-component reference and
against the former union-find over the full vocabulary."""

import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agenticknowledgegraphconstructionsystem_ray.functions.textnorm import norm_surface
from agenticknowledgegraphconstructionsystem_ray.stages.canonicalize import (
    ID_MAP_SCHEMA,
    NODES_SCHEMA,
    build_entity_table,
)
from agenticknowledgegraphconstructionsystem_ray.stages.triples import _mcount_table
from agenticknowledgegraphconstructionsystem_ray.pipelines.kg import merge_mcounts
from agenticknowledgegraphconstructionsystem_ray.state.unionfind import UnionFind


def id_map_dict(id_map: pa.Table) -> dict[str, tuple[int, str]]:
    """The Arrow id map as norm -> (entity_id, canonical_name)."""
    return {m: (i, n) for m, i, n in zip(
        *(id_map[c].to_pylist() for c in ID_MAP_SCHEMA.names))}


def test_unionfind_transitive():
    uf = UnionFind()
    uf.union("a", "b")
    uf.union("b", "c")
    uf.union("x", "y")
    comps = uf.components()
    assert sorted(map(tuple, comps.values())) == [("a", "b", "c"), ("x", "y")]


def test_partial_counts_match_naive():
    """Mention rows split over two chunks -> per-batch mcount partials
    (stages/triples) -> phase B's driver merge."""
    batch = pa.table(
        {
            "chunk": ["00000", "00000", "00001", "00001", "00001"],
            "norm_surface": ["a", "b", "a", "a", "b"],
            "n_in_page": pa.array([2, 1, 3, 1, 4], pa.int32()),
            "score": [0.4, 1.0, 0.8, 1.0, 0.6],
        }
    )
    partials = _mcount_table(batch)
    assert partials.num_rows == 4  # one row per (chunk, surface)
    out = merge_mcounts(partials).to_pydict()
    assert out["norm_surface"] == ["a", "b"]
    d = {
        n: (m, l, p, mx, mn)
        for n, m, l, p, mx, mn in zip(
            out["norm_surface"], out["mention_count"], out["link_count"],
            out["perfect_links"], out["max_score"], out["min_score"],
        )
    }
    assert d["a"] == (6, 3, 1, 1.0, 0.4)
    assert d["b"] == (5, 2, 1, 1.0, 0.6)


def _counts(rows):
    return pd.DataFrame(
        rows,
        columns=[
            "norm_surface", "mention_count", "link_count",
            "perfect_links", "max_score", "min_score",
        ],
    )


def test_alias_merge_transitive_chain():
    """long form <-> acronym <-> hyphenated all collapse to one entity."""
    alias = {
        "neural radiance fields": ("Neural Radiance Fields", "method"),
        "nrf0": ("Neural Radiance Fields", "method"),
        "neural-radiance-fields": ("Neural Radiance Fields", "method"),
    }
    counts = _counts(
        [
            ("neural radiance fields", 5, 3, 0, 0.8, 0.4),
            ("nrf0", 2, 2, 0, 0.6, 0.6),
            ("neural-radiance-fields", 1, 1, 0, 0.4, 0.4),
            ("unknown thing", 1, 1, 0, 0.4, 0.4),
        ]
    )
    nodes, id_map = build_entity_table(
        pa.Table.from_pandas(counts, preserve_index=False), alias)
    id_map = id_map_dict(id_map)
    d = nodes.to_pydict()
    assert d["canonical_name"] == ["Neural Radiance Fields", "unknown thing"]
    assert d["mention_count"] == [8, 1]
    assert d["link_count"] == [6, 1]
    assert d["ent_type"] == ["method", "concept"]
    assert sorted(d["aliases"][0]) == [
        "neural radiance fields", "neural-radiance-fields", "nrf0",
    ]
    # id map covers every member norm and both entities get dense ids
    assert id_map["nrf0"] == (0, "Neural Radiance Fields")
    assert id_map["unknown thing"] == (1, "unknown thing")


def test_entity_ids_deterministic_by_name():
    alias = {}
    counts = _counts(
        [("zebra", 1, 1, 0, 0.4, 0.4), ("apple", 1, 1, 0, 0.4, 0.4)]
    )
    nodes, id_map = build_entity_table(
        pa.Table.from_pandas(counts, preserve_index=False), alias)
    id_map = id_map_dict(id_map)
    assert nodes.to_pydict()["canonical_name"] == ["apple", "zebra"]
    assert id_map["apple"][0] == 0 and id_map["zebra"][0] == 1


# -- property: the columnar entity table equals a per-component reference --

def _reference_entity_table(counts, alias):
    """One component at a time: union-find, then per component the seen
    members' sums/max/min, the smallest alias canonical and type, nodes in
    stable name order over root-sorted components, dense-rank ids."""
    uf = UnionFind()
    for norm in counts["norm_surface"]:
        uf.add(norm)
        hit = alias.get(norm)
        if hit is not None:
            uf.union(norm, norm_surface(hit[0]))
    by_norm = counts.set_index("norm_surface")
    rows = []
    for _, members in sorted(uf.components().items()):
        canon_names = sorted({alias[m][0] for m in members if m in alias})
        member_types = sorted({alias[m][1] for m in members if m in alias})
        seen = [m for m in members if m in by_norm.index]
        if not seen:
            continue
        sub = by_norm.loc[seen]
        rows.append({
            "canonical_name": canon_names[0] if canon_names else members[0],
            "ent_type": member_types[0] if member_types else "concept",
            "mention_count": int(sub["mention_count"].sum()),
            "link_count": int(sub["link_count"].sum()),
            "perfect_links": int(sub["perfect_links"].sum()),
            "max_score": float(sub["max_score"].max()),
            "min_score": float(sub["min_score"].min()),
            "aliases": sorted(seen),
            "members": members,
        })
    rows.sort(key=lambda r: r["canonical_name"])
    id_map = {}
    cols = {f.name: [] for f in NODES_SCHEMA}
    for eid, r in enumerate(rows):
        for m in r.pop("members"):
            id_map[m] = (eid, r["canonical_name"])
        cols["entity_id"].append(eid)
        for k, v in r.items():
            cols[k].append(v)
    return pa.Table.from_pydict(cols, schema=NODES_SCHEMA), id_map


# Norms with acronym / long-form / hyphenated variants, singletons that a
# lowercase canonical ("mango tree") sorts between, and "Zeta", an observed
# norm equal to another component's canonical name (a name tie).
_NORMS = [
    "nerf", "neural radiance fields", "neural-radiance-fields",
    "ml", "machine learning", "machine-learning", "gs",
    "gaussian splatting", "apple", "mango tree", "zebra", "Zeta", "zeta",
]
_CANONICALS = [
    "Neural Radiance Fields", "Machine Learning", "Gaussian Splatting",
    "NeRF", "mango tree", "Zeta",
]
_TYPES = ["method", "field", "concept", "dataset"]


@st.composite
def counts_and_alias(draw):
    norms = draw(st.lists(st.sampled_from(_NORMS), min_size=1, unique=True))
    n = len(norms)
    ints = st.lists(st.integers(0, 50), min_size=n, max_size=n)
    scores = st.lists(
        st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]), min_size=n, max_size=n
    )
    lo, hi = draw(scores), draw(scores)
    counts = pd.DataFrame({
        "norm_surface": norms,
        "mention_count": draw(ints),
        "link_count": draw(ints),
        "perfect_links": draw(ints),
        "max_score": [max(a, b) for a, b in zip(lo, hi)],
        "min_score": [min(a, b) for a, b in zip(lo, hi)],
    })
    # keys may be unobserved, canonicals may be unobserved, and the dict
    # need not map any canonical's own norm to itself
    alias = draw(st.dictionaries(
        st.sampled_from(_NORMS),
        st.tuples(st.sampled_from(_CANONICALS), st.sampled_from(_TYPES)),
        max_size=10,
    ))
    return counts, alias


@given(case=counts_and_alias(), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
@example(
    case=(_counts([("ml", 3, 2, 0, 0.6, 0.4), ("other", 1, 1, 0, 0.4, 0.4)]),
          {"ml": ("Machine Learning", "field")}),
    seed=0,
)
@example(
    case=(_counts([("nerf", 2, 2, 0, 0.6, 0.6), ("apple", 1, 1, 0, 0.4, 0.4),
                   ("neural-radiance-fields", 1, 1, 1, 1.0, 0.4),
                   ("zebra", 1, 1, 0, 0.4, 0.4)]),
          {"nerf": ("Neural Radiance Fields", "method"),
           "neural-radiance-fields": ("NeRF", "dataset"),
           "zebra": ("mango tree", "concept")}),
    seed=1,
)
@example(  # an unseen member's alias names both components alike
    case=(_counts([("nerf", 0, 0, 0, 0.2, 0.2),
                   ("neural radiance fields", 0, 0, 0, 0.2, 0.2),
                   ("neural-radiance-fields", 0, 0, 0, 0.2, 0.2),
                   ("mango tree", 0, 0, 0, 0.2, 0.2)]),
          {"neural-radiance-fields": ("mango tree", "method"),
           "nerf": ("Neural Radiance Fields", "method"),
           "mango tree": ("Zeta", "method"),
           "zeta": ("Neural Radiance Fields", "method")}),
    seed=3,
)
@example(  # two components named "Zeta": ordered by their roots
    case=(_counts([("gs", 1, 1, 0, 0.4, 0.4), ("Zeta", 2, 1, 0, 0.6, 0.6)]),
          {"gs": ("Zeta", "method")}),
    seed=0,
)
def test_entity_table_matches_per_component_reference(case, seed):
    counts, alias = case
    # any row order: the pipeline's frame is sorted by norm, but the kernel
    # must not rely on it. Both sides get the same order, because union-find
    # roots (the tie-break between equal canonical names) depend on it.
    counts = counts.sample(frac=1.0, random_state=seed)
    want_nodes, want_map = _reference_entity_table(counts, alias)
    nodes, id_map = build_entity_table(
        pa.Table.from_pandas(counts, preserve_index=False), alias)
    assert nodes.schema == NODES_SCHEMA
    assert nodes.to_pydict() == want_nodes.to_pydict()
    assert id_map_dict(id_map) == want_map


# -- property: the relevant-only split equals the former full-vocabulary
# union-find, kept here verbatim as the reference --

_FULL_ENTITY_SCHEMA = pa.schema(
    [f for f in NODES_SCHEMA if f.name != "entity_id"])
_FULL_AGGS = [
    ("mention_count", "sum"), ("link_count", "sum"), ("perfect_links", "sum"),
    ("max_score", "max"), ("min_score", "min"), ("norm_surface", "list"),
]


def _full_component_table(counts, alias):
    norms = counts["norm_surface"].to_pylist()
    uf = UnionFind()
    for norm in norms:
        uf.add(norm)
        hit = alias.get(norm)
        if hit is not None:
            uf.union(norm, norm_surface(hit[0]))
    root_of = {m: uf.find(m) for m in uf.parent}
    canon: dict[str, str] = {}
    ent_type: dict[str, str] = {}
    for m, r in root_of.items():
        hit = alias.get(m)
        if hit is not None:
            canon[r] = min(canon.get(r, hit[0]), hit[0])
            ent_type[r] = min(ent_type.get(r, hit[1]), hit[1])
    g = (
        counts.append_column(
            "root", pa.array([root_of[n] for n in norms], pa.string())
        )
        .sort_by("norm_surface")
        .group_by("root", use_threads=False)
        .aggregate(_FULL_AGGS)
    )
    roots = g["root"].to_pylist()
    g = pa.Table.from_arrays(
        [
            pa.array([canon.get(r, r) for r in roots], pa.string()),
            pa.array([ent_type.get(r, "concept") for r in roots], pa.string()),
            *(g[f"{col}_{op}"] for col, op in _FULL_AGGS),
            g["root"],
        ],
        names=[*_FULL_ENTITY_SCHEMA.names, "root"],
    ).sort_by([("canonical_name", "ascending"), ("root", "ascending")])
    row_of_root = {r: i for i, r in enumerate(g["root"].to_pylist())}
    row_of = {m: row_of_root[r] for m, r in root_of.items()}
    return g.drop_columns(["root"]).cast(_FULL_ENTITY_SCHEMA), row_of


def _full_build_entity_table(counts, alias):
    rows, row_of = _full_component_table(counts, alias)
    names = rows["canonical_name"].to_pylist()
    nodes = rows.add_column(
        0, NODES_SCHEMA.field("entity_id"),
        pa.array(range(rows.num_rows), pa.int64()),
    )
    return nodes, {m: (i, names[i]) for m, i in row_of.items()}


_WORDS = ["nerf", "ml", "gs", "zeta", "Zeta", "apple", "mango", "field",
          "tree", "a", "b", "radiance", "x-y", "learning", ""]
_SCORES = [0.0, 0.4, 1.0, -0.5, 1.5, float("nan")]


@st.composite
def open_vocab_case(draw):
    """Counts over an open vocabulary plus an alias dict: alias keys (some
    unobserved), canonicals whose norms are observed or not, chains where
    one alias's canonical norm is another alias's key, and singleton norms
    that never appear in the dict, all in a shuffled row order."""
    word = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(
        " ".join)
    canon = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2).map(
        lambda w: " ".join(x.capitalize() for x in w))
    types = st.sampled_from(["method", "field", "data"])
    alias = draw(st.dictionaries(word, st.tuples(canon, types), max_size=8))
    # chains: an alias key equal to another entry's canonical norm
    for c, t in list(alias.values())[: draw(st.integers(0, 3))]:
        alias.setdefault(norm_surface(c), (draw(canon), t))
    relevant = sorted(set(alias) | {norm_surface(c) for c, _ in alias.values()})
    observed = (draw(st.lists(st.sampled_from(relevant), unique=True))
                if relevant else [])
    singles = draw(st.lists(word, unique=True, max_size=12))
    norms = draw(st.permutations(list(dict.fromkeys(
        observed + [w for w in singles if w not in relevant]))))
    n = len(norms)
    ints = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    scores = st.lists(st.sampled_from(_SCORES), min_size=n, max_size=n)
    counts = pa.table({
        "norm_surface": pa.array(norms, pa.string()),
        "mention_count": pa.array(draw(ints), pa.int64()),
        "link_count": pa.array(draw(ints), pa.int64()),
        "perfect_links": pa.array(draw(ints), pa.int64()),
        "max_score": pa.array(draw(scores), pa.float64()),
        "min_score": pa.array(draw(scores), pa.float64()),
    })
    return counts, alias


@given(case=open_vocab_case())
@settings(max_examples=300, deadline=None)
@example(case=(pa.table({
    "norm_surface": ["zeta", "ml", "apple", "machine learning"],
    "mention_count": pa.array([1, 2, 3, 4], pa.int64()),
    "link_count": pa.array([1, 1, 1, 1], pa.int64()),
    "perfect_links": pa.array([0, 0, 1, 0], pa.int64()),
    "max_score": [float("nan"), 0.4, 1.0, 0.5],
    "min_score": [float("nan"), 0.4, 1.0, 0.5],
}), {"ml": ("Machine Learning", "field"), "gs": ("Zeta", "method")}))
def test_relevant_split_matches_full_vocabulary_union_find(case):
    counts, alias = case
    want_nodes, want_map = _full_build_entity_table(counts, alias)
    nodes, id_map = build_entity_table(counts, alias)
    assert nodes.equals(want_nodes)
    assert id_map.schema == ID_MAP_SCHEMA
    assert id_map_dict(id_map) == want_map
    assert id_map.num_rows == len(want_map)


def test_apply_ids_builds_one_hash_table(monkeypatch):
    """apply_ids_batch resolves the subj and obj norms with ONE index_in,
    so the id map is hashed once per batch, and keeps the (-1, norm)
    sentinel for a miss."""
    import pyarrow.compute as pc

    from agenticknowledgegraphconstructionsystem_ray.stages.canonicalize import (
        apply_ids_batch,
    )

    calls = []
    orig = pc.index_in

    def spy(*a, **k):
        calls.append(1)
        return orig(*a, **k)

    monkeypatch.setattr(pc, "index_in", spy)
    id_map = pa.table({"member_norm": ["nerf", "neural radiance fields", "gan"],
                       "entity_id": pa.array([1, 1, 0], pa.int64()),
                       "canonical_name": ["NeRF", "NeRF", "GAN"]},
                      schema=ID_MAP_SCHEMA)
    batch = pa.table({
        "url": ["u1", "u2", "u3"],
        "warc_ts": pa.array([0, 0, 0], pa.timestamp("us")),
        "subj_norm": ["nerf", "gan", "foo"],
        "pred": ["uses", "uses", "uses"],
        "obj_norm": ["gan", "bar", "neural radiance fields"],
        "confidence": [0.5, 0.5, 0.5],
        "context": ["c", "c", "c"],
    })
    out = apply_ids_batch(batch, id_map=id_map)
    assert len(calls) == 1
    assert out["subj_id"].to_pylist() == [1, 0, -1]
    assert out["obj_id"].to_pylist() == [0, -1, 1]
    assert out["subj"].to_pylist() == ["NeRF", "GAN", "foo"]
    assert out["obj"].to_pylist() == ["GAN", "bar", "NeRF"]
