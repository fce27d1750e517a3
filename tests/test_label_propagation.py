"""Distributed min-label propagation must compute the same components as
driver-side union-find (the scale fallback, SURVEY §7.4)."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from agenticknowledgegraphconstructionsystem_ray.stages.canonicalize import (
    label_propagation_components_driverless,
)
from agenticknowledgegraphconstructionsystem_ray.state.unionfind import UnionFind


def _compare(edges: list[tuple[str, str]]):
    ds = rd.from_arrow(
        pa.table({"a": [e[0] for e in edges], "b": [e[1] for e in edges]})
    )
    labels = label_propagation_components_driverless(ds).to_pandas()
    lp = dict(zip(labels["node"], labels["label"]))

    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    for _, members in uf.components().items():
        rep = members[0]  # lexicographically smallest (sorted)
        for m in members:
            assert lp[m] == rep, (m, lp[m], rep)
    assert set(lp) == set(uf.parent)


def test_chain_and_islands(ray_session):
    _compare([("b", "c"), ("a", "b"), ("x", "y"), ("z", "z")])


def test_random_graph_matches_unionfind(ray_session):
    rng = np.random.default_rng(4)
    nodes = [f"n{i:03d}" for i in range(120)]
    edges = [
        (nodes[int(rng.integers(0, 120))], nodes[int(rng.integers(0, 120))])
        for _ in range(150)
    ]
    _compare(edges)


def test_long_chain_converges(ray_session):
    # diameter ~30: needs multiple propagation rounds
    edges = [(f"c{i:02d}", f"c{i+1:02d}") for i in range(30)]
    _compare(edges)
