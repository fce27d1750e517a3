"""Canonicalization units: union-find merge, block combiner correctness,
and the columnar entity table against a per-component reference."""

import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agenticknowledgegraphconstructionsystem_ray.functions.textnorm import norm_surface
from agenticknowledgegraphconstructionsystem_ray.stages.canonicalize import (
    NODES_SCHEMA,
    build_entity_table,
    partial_mention_counts,
)
from agenticknowledgegraphconstructionsystem_ray.state.unionfind import UnionFind


def test_unionfind_transitive():
    uf = UnionFind()
    uf.union("a", "b")
    uf.union("b", "c")
    uf.union("x", "y")
    comps = uf.components()
    assert sorted(map(tuple, comps.values())) == [("a", "b", "c"), ("x", "y")]


def test_partial_counts_match_naive():
    batch = pa.table(
        {
            "norm_surface": ["a", "b", "a", "a", "b"],
            "n_in_page": [2, 1, 3, 1, 4],
            "score": [0.4, 1.0, 0.8, 1.0, 0.6],
        }
    )
    out = partial_mention_counts(batch).to_pydict()
    d = {
        n: (m, l, p, mx, mn)
        for n, m, l, p, mx, mn in zip(
            out["norm_surface"], out["mentions_p"], out["links_p"],
            out["perfect_p"], out["max_score_p"], out["min_score_p"],
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
    nodes, id_map = build_entity_table(counts, alias)
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
    nodes, id_map = build_entity_table(counts, alias)
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
    nodes, id_map = build_entity_table(counts, alias)
    assert nodes.schema == NODES_SCHEMA
    assert nodes.to_pydict() == want_nodes.to_pydict()
    assert id_map == want_map
