"""Union-find (disjoint set) for entity canonicalization.

Connected components is the one operator with no direct Ray Data primitive
(SURVEY.md §7.4). The alias-edge set is bounded by the number of DISTINCT
surface forms, not by row count, so the engine merges per-surface counts with
a partial groupby and runs this dict union-find on the driver: one
``add``/``union`` per surface. It only assigns each surface its component
root; the per-component sums, score max/min and alias lists come from one
Arrow ``group_by(root)`` over the counts table
(stages/canonicalize.component_table), never from a loop over components.
For edge sets too large for one machine, the fallback is iterated min-label
propagation via ``groupby`` (stages/canonicalize.label_propagation_*): same
fixpoint, O(diameter) rounds.
"""

from __future__ import annotations


class UnionFind:
    """Path-compressed, union-by-size disjoint sets over hashable keys."""

    def __init__(self) -> None:
        self.parent: dict = {}
        self.size: dict = {}

    def add(self, x) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def components(self) -> dict:
        """key -> sorted tuple of members (deterministic)."""
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return {root: sorted(members) for root, members in groups.items()}
