"""Entity linking fused into the extraction stage (TripleExtractor with
an alias dict) + the stateless-task extraction variant."""

import pyarrow as pa

from agenticknowledgegraphconstructionsystem_ray.stages.triples import (
    TripleExtractor,
    extract_records_batch,
)

ALIAS = {
    "nerf": ("Neural Radiance Fields", "method"),
    "neural radiance fields": ("Neural Radiance Fields", "method"),
}


def _pages_batch():
    return pa.table(
        {
            "url": ["u1"],
            "warc_ts": pa.array([0], pa.timestamp("us")),
            "text": ["NeRF improves on Plenoxels. NeRF is widely used."],
            "lang": ["en"],
        }
    )


def test_task_variant_matches_actor_variant():
    batch = _pages_batch()
    via_class = TripleExtractor(alias_dict=ALIAS)(batch)
    via_task = extract_records_batch(batch, alias_ref=ALIAS)
    assert via_class.equals(via_task)
    rows = [r for r in via_class.to_pylist() if r["kind"] == "mention"]
    by_norm = {r["norm_surface"]: r for r in rows}
    assert by_norm["nerf"]["ent_type"] == "method"  # alias hit
    assert by_norm["nerf"]["link_score"] == 1.0
    assert by_norm["plenoxels"]["ent_type"] == "concept"  # closed-enum fallback
    assert by_norm["plenoxels"]["link_score"] == 0.0


def test_triple_dedup_key_is_the_normalized_canonical():
    # the canonical surface is not itself a key of this alias dict, so a raw
    # mention of it and a mention of its alias share a dedup key only if the
    # canonical is normalized
    alias = {"nerf": ("Neural Radiance Fields", "method")}
    batch = pa.table({
        "url": ["u1"],
        "warc_ts": pa.array([0], pa.timestamp("us")),
        "text": ["NeRF improves on Plenoxels. Neural Radiance Fields improves on Plenoxels."],
        "lang": ["en"],
    })
    records = TripleExtractor(alias_dict=alias)(batch)
    triples = [r for r in records.to_pylist() if r["kind"] == "triple"]
    assert len(triples) == 1 and triples[0]["pred"] == "improves_on"
